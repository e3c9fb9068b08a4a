(* The child processes the harness spawns: the per-seed oracle, and one
   rep (timed, or traced with per-layer replays). *)

let oracle ~workload ~seed ~domains ~out =
  Oracle.save out (Workloads.oracle ~workload ~domains (Inputs.instance ~seed ()))

(* [t0] is the harness's clock reading just before it spawned us, so
   set-up time counts process start as well as our own preparation. *)
let rep ~workload ~seed ~rep ~t0 ~domains ~work ~oracle ~trace_out ~out =
  let tracer = Option.map (fun _ -> Span.create ~rep) trace_out in
  let result =
    try
      let run = Workloads.prepare ?tracer ~workload ~seed ~domains ~work () in
      let t_start = Span.now () in
      let obs = run () in
      let t_end = Span.now () in
      let t_work = t_end -. t0 in
      let oracle = Option.map Oracle.load oracle in
      let r =
        Workloads.summarize ~setup_s:(t_start -. t0) ~t_start ~t_end ~oracle obs
      in
      let cpu = Unix.times () in
      let r =
        {
          r with
          Workloads.peak_rss_mb = Meta.peak_rss_mb ();
          cpu_s = cpu.Unix.tms_utime +. cpu.Unix.tms_stime;
        }
      in
      match (tracer, trace_out) with
      | Some tr, Some path ->
        let layers, problems = Layers.traced_metrics tr ~work ~obs ~t_work in
        Out_channel.with_open_bin path (fun oc ->
            output_string oc (Span.to_chrome_json tr));
        {
          Harness.rep =
            {
              r with
              Workloads.mismatches = r.Workloads.mismatches @ problems;
              failed = (if problems = [] then r.Workloads.failed else r.Workloads.ops);
            };
          layers = Some layers;
        }
      | _ -> { Harness.rep = r; layers = None }
    with e ->
      {
        Harness.rep = Harness.failed_rep ~workload ("exception: " ^ Printexc.to_string e);
        layers = None;
      }
  in
  Out_channel.with_open_bin out (fun oc -> Marshal.to_channel oc result [])
