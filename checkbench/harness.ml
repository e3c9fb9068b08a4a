(* The timed and traced modes: spawn one fresh process per rep, collect
   what each rep reports, and print the run's result. *)

let str = Printf.sprintf
let now = Unix.gettimeofday

(* A run must end within 180 s; reps stop being started well before. *)
let run_budget_s = 165.
let min_reps = 2

type child_result = {
  rep : Workloads.rep;
  layers : (string * float) list option;  (** traced reps only *)
}

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Run this executable with [args] in a child process, its stdout sent
   to our stderr; kill it after [timeout] seconds. Returns the wall time
   from just before the spawn to its exit, and whether it exited 0. *)
let spawn ~timeout args =
  let exe = Sys.executable_name in
  let t0 = now () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: args @ [ "--t0"; str "%.6f" t0 ]))
      Unix.stdin Unix.stderr Unix.stderr
  in
  let killed = ref false in
  let old =
    Sys.signal Sys.sigalrm
      (Sys.Signal_handle
         (fun _ ->
           killed := true;
           try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()))
  in
  ignore (Unix.alarm (max 1 (int_of_float (Float.ceil timeout))));
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  let wall = now () -. t0 in
  ignore (Unix.alarm 0);
  Sys.set_signal Sys.sigalrm old;
  (wall, status = Unix.WEXITED 0 && not !killed)

let load_child path : child_result option =
  match In_channel.with_open_bin path Marshal.from_channel with
  | r -> Some r
  | exception _ -> None

(* The operations a rep attempts, for accounting a rep that died. *)
let ops_of = function
  | Inputs.Job_mix -> List.length (Inputs.job_mix ~seed:0)
  | Inputs.Big_graph | Inputs.Bounded_memory -> 1

let failed_rep ~workload reason =
  {
    Workloads.setup_s = nan;
    wall_s = nan;
    fresh_states = 0;
    explore_s = nan;
    ops = ops_of workload;
    failed = ops_of workload;
    latencies = [];
    mismatches = [ reason ];
    peak_rss_mb = nan;
    cpu_s = nan;
  }

(* ---- metric definitions from BENCHMARK.json ---- *)

type metric_def = { name : string; unit_ : string; better : string; bound : float option }

let load_defs path =
  let j = Json.of_string (In_channel.with_open_bin path In_channel.input_all) in
  let defs key =
    List.map
      (fun m ->
        {
          name = Option.get (Json.to_str (Json.member "name" m));
          unit_ = Option.get (Json.to_str (Json.member "unit" m));
          better = Option.value (Json.to_str (Json.member "better" m)) ~default:"lower";
          bound = Json.to_num (Json.member "bound" m);
        })
      (Json.to_list (Json.member key j))
  in
  (defs "end_to_end", defs "per_layer")

(* ---- the run ---- *)

let samples_of reps =
  let ok = List.filter (fun (r : Workloads.rep) -> r.Workloads.failed = 0) reps in
  let col f = List.map f ok |> List.filter (fun x -> Float.is_finite x) in
  [
    ("setup_s", col (fun r -> r.Workloads.setup_s));
    ("wall_s", col (fun r -> r.Workloads.wall_s));
    ( "states_per_s",
      col (fun r -> float r.Workloads.fresh_states /. r.Workloads.explore_s) );
    ("peak_rss_mb", col (fun r -> r.Workloads.peak_rss_mb));
    ( "jobs_per_s",
      col (fun r -> float (r.Workloads.ops - r.Workloads.failed) /. r.Workloads.wall_s) );
    ("job_latency_s", List.concat_map (fun r -> r.Workloads.latencies) ok);
    (* not a metric: recorded so a slow run can be told apart as waiting
       (wall grows, CPU does not) or contended (both grow) *)
    ("cpu_s", col (fun r -> r.Workloads.cpu_s));
  ]

let summary_table ~title samples =
  Report.Table.make ~id:"checkbench" ~title
    ~header:[ "metric"; "median"; "q1"; "q3"; "high pct"; "n" ]
    (List.map
       (fun (name, xs) ->
         let q1, q3 = Stats.quartiles xs in
         [
           name;
           str "%.6g" (Stats.median xs);
           str "%.6g" q1;
           str "%.6g" q3;
           (match Stats.high_percentile xs with
           | Some (l, v) -> str "%s %.6g" l v
           | None -> "-");
           string_of_int (List.length xs);
         ])
       samples)

let run ~workload ~seed ~seconds ~trace ~domains ~out ~defs_path =
  let host = Meta.host () in
  if domains > host.Meta.recommended_domains then begin
    Printf.eprintf
      "checkbench: %d domains requested but Domain.recommended_domain_count () \
       is %d; refusing to oversubscribe\n"
      domains host.Meta.recommended_domains;
    exit 2
  end;
  let e2e, per_layer = load_defs defs_path in
  let wname = Inputs.workload_name workload in
  let probe = Meta.host_probe_s () in
  let t_start = now () in
  let root = "_checkbench" in
  let work = Filename.concat root (str "run-%d" (Unix.getpid ())) in
  rm_rf work;
  mkdir_p work;
  let common = [ "--workload"; wname; "--seed"; string_of_int seed; "--domains"; string_of_int domains ] in
  let errors = ref [] in
  let oracle_file = Filename.concat work "oracle.bin" in
  let oracle_args =
    match workload with
    | Inputs.Job_mix -> []
    | Inputs.Big_graph | Inputs.Bounded_memory ->
      let _, ok = spawn ~timeout:90. ([ "oracle" ] @ common @ [ "--out"; oracle_file ]) in
      if not ok then errors := "oracle computation failed" :: !errors;
      [ "--oracle"; oracle_file ]
  in
  let reps = ref [] and traced = ref [] in
  let one ~traced_rep i =
    let dir = Filename.concat work (str "rep-%d" i) in
    mkdir_p dir;
    let out_file = Filename.concat dir "result.bin" in
    let trace_args =
      if traced_rep then begin
        let tdir = Filename.concat root "traces" in
        mkdir_p tdir;
        [ "--trace-out"; Filename.concat tdir (str "%s-seed%d-rep%d.json" wname seed i) ]
      end
      else []
    in
    let timeout = Float.min 120. (run_budget_s -. (now () -. t_start)) in
    let wall, ok =
      spawn ~timeout
        ([ "rep" ] @ common
        @ [ "--rep"; string_of_int i; "--work"; dir; "--out"; out_file ]
        @ oracle_args @ trace_args)
    in
    let r =
      match (ok, load_child out_file) with
      | true, Some c -> { c with rep = { c.rep with Workloads.wall_s = wall } }
      | false, _ ->
        { rep = failed_rep ~workload (str "rep %d died or timed out after %.1f s" i wall); layers = None }
      | true, None -> { rep = failed_rep ~workload (str "rep %d wrote no result" i); layers = None }
    in
    List.iter (fun m -> errors := str "rep %d: %s" i m :: !errors) r.rep.Workloads.mismatches;
    rm_rf dir;
    if traced_rep then traced := r :: !traced else reps := r.rep :: !reps
  in
  let t_loop = now () and last_rep = ref 0. and i = ref 0 in
  let continue () =
    (List.length !reps < min_reps || now () -. t_loop < float seconds)
    && now () -. t_start +. (1.5 *. !last_rep) < run_budget_s
  in
  while continue () do
    let t = now () in
    one ~traced_rep:false !i;
    incr i;
    if trace then begin
      (* each untraced rep is paired with a traced one: the pair gives
         the tracing overhead *)
      one ~traced_rep:true !i;
      incr i
    end;
    last_rep := now () -. t
  done;
  rm_rf work;
  let all = !reps @ List.map (fun c -> c.rep) !traced in
  let attempted = List.fold_left (fun a r -> a + r.Workloads.ops) 0 all in
  let failed = List.fold_left (fun a r -> a + r.Workloads.failed) 0 all in
  let e2e_samples = samples_of !reps in
  let samples =
    if not trace then e2e_samples
    else
      let layer name =
        List.filter_map
          (fun c -> Option.bind c.layers (List.assoc_opt name))
          !traced
      in
      let untraced_wall = Stats.median (List.assoc "wall_s" e2e_samples) in
      List.map
        (fun name ->
          if name = "trace.overhead_s" then
            (name, List.map (fun w -> w -. untraced_wall) (layer "trace.wall_s"))
          else (name, layer name))
        Layers.layer_names
  in
  let defs = if trace then per_layer else e2e in
  let metrics =
    List.map
      (fun d ->
        match List.assoc_opt d.name samples with
        | Some (_ :: _ as xs) -> (d, Stats.median xs)
        | Some [] | None ->
          errors := str "no samples for metric %s" d.name :: !errors;
          (d, 0.))
      defs
  in
  let correct = failed = 0 && !errors = [] in
  Report.Table.render Format.std_formatter
    (summary_table
       ~title:(str "%s seed %d, %d rep(s)%s" wname seed (List.length !reps)
                 (if trace then str " + %d traced" (List.length !traced) else ""))
       (List.filter (fun (n, _) -> List.exists (fun d -> d.name = n) defs) samples));
  List.iter (fun e -> Printf.printf "error: %s\n" e) (List.rev !errors);
  let meta =
    Json.Obj
      [
        ("workload", Json.Str wname);
        ("seed", Json.Num (float seed));
        ("trace", Json.Bool trace);
        ("seconds", Json.Num (float seconds));
        ("domains", Json.Num (float domains));
        ("reps", Json.Num (float (List.length !reps)));
        ("traced_reps", Json.Num (float (List.length !traced)));
        ("run_s", Json.Num (now () -. t_start));
        ("host", Meta.to_json host);
        ("host_probe_s", Json.Num probe);
        ("inputs", Json.Str (Inputs.describe ~seed workload));
      ]
  in
  Printf.printf "meta: %s\n" (Json.to_string meta);
  let metric_json =
    Json.Obj
      (List.map
         (fun (d, v) ->
           (d.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str d.unit_) ]))
         metrics)
  in
  let record =
    Json.Obj
      [
        ("meta", meta);
        ("correct", Json.Bool correct);
        ("attempted", Json.Num (float attempted));
        ("failed", Json.Num (float failed));
        ("metrics", metric_json);
        ( "samples",
          Json.Obj (List.map (fun (n, xs) -> (n, Json.Arr (List.map (fun x -> Json.Num x) xs))) samples) );
      ]
  in
  mkdir_p (Filename.dirname out);
  Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 out (fun oc ->
      output_string oc (Json.to_string record ^ "\n"));
  print_string
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float attempted));
            ("failed", Json.Num (float failed));
            ("metrics", metric_json);
          ]));
  print_newline ();
  if correct then 0 else 1
