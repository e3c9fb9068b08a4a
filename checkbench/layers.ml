(* The traced run's per-layer metrics. The workload itself records spans
   around the public calls it makes (explore_*, to_flat, each property
   check, Pool.step); this module then replays the workload's reached
   states through the layers it cannot see from outside -- successor
   generation, Codec, Canon, Snapshot, Disk_visited, Cache.find -- and
   turns span totals and counters into named metrics. Layers a workload
   does not use report 0. *)


module Stats_ = Check.Checker_stats

type acc = {
  mutable succ_calls : int;
  mutable enc_calls : int;
  mutable values : int;
  mutable locals : int;
  mutable key_bytes : int;
  mutable canon_calls : int;
  mutable group_order : int;
  mutable pruned : int;
  mutable canon_hits : int;
  mutable canon_states : int;
  mutable orbit_sum : int;
  mutable live_bytes : float;
  mutable live_states : int;
  mutable explore_states : int;
  mutable explore_candidates : int;
  mutable snap_appends : int;
  mutable snap_bytes : int;
  mutable disk_keys_probed : int;
  mutable disk_probes : int;
  mutable disk_runs : int;
  mutable disk_bytes : int;
  mutable problems : string list;
}

let acc () =
  {
    succ_calls = 0;
    enc_calls = 0;
    values = 0;
    locals = 0;
    key_bytes = 0;
    canon_calls = 0;
    group_order = 0;
    pruned = 0;
    canon_hits = 0;
    canon_states = 0;
    orbit_sum = 0;
    live_bytes = 0.;
    live_states = 0;
    explore_states = 0;
    explore_candidates = 0;
    snap_appends = 0;
    snap_bytes = 0;
    disk_keys_probed = 0;
    disk_probes = 0;
    disk_runs = 0;
    disk_bytes = 0;
    problems = [];
  }

let problem a msg = a.problems <- msg :: a.problems

let add_explored a (s : Stats_.t) =
  a.explore_states <- a.explore_states + s.Stats_.n_states;
  a.explore_candidates <- a.explore_candidates + s.Stats_.candidates;
  if s.Stats_.canon then begin
    a.canon_hits <- a.canon_hits + s.Stats_.canon_hits;
    a.canon_states <- a.canon_states + s.Stats_.n_states;
    a.orbit_sum <- a.orbit_sum + s.Stats_.orbit_sum
  end

(* Re-drive Snapshot.read_chunks on a file a run wrote, then append its
   payloads [appends] times (cycling, oldest first) to a scratch file. *)
let redrive_snapshot a tracer ~path ~appends ~scratch =
  let meta, chunks, _ =
    Span.record tracer "Snapshot.read_chunks" (fun () ->
        Check.Snapshot.read_chunks ~path)
  in
  let payloads = Array.of_list (List.rev chunks) in
  if Array.length payloads > 0 then
    for k = 0 to appends - 1 do
      let p = payloads.(k mod Array.length payloads) in
      Span.record tracer "Snapshot.append" (fun () ->
          Check.Snapshot.append ~path:scratch ~fingerprint:meta.Check.Snapshot.fingerprint
            ~descr:meta.Check.Snapshot.descr p);
      a.snap_appends <- a.snap_appends + 1;
      a.snap_bytes <- a.snap_bytes + String.length p
    done;
  (try Sys.remove scratch with Sys_error _ -> ())

module Replay (P : Anonmem.Protocol.PROTOCOL) = struct
  module E = Check.Explore.Make (P)
  module Cd = Check.Codec.Make (P)
  module Cn = Check.Canon.Make (P)

  (* Successors, a fresh Codec and (for quotient runs) Canon over every
     reached state; returns the packed keys in state-id order. *)
  let states a tracer ~reduction (g : E.graph) =
    let cfg = g.E.cfg in
    Span.record tracer "replay.successors" (fun () ->
        Array.iter (fun st -> ignore (E.successors cfg st)) g.E.states);
    a.succ_calls <- a.succ_calls + Array.length g.E.states;
    let codec = Cd.create () in
    let keys =
      Span.record tracer "replay.encode" (fun () ->
          Array.map (fun st -> Cd.encode codec st.E.mem st.E.locals) g.E.states)
    in
    a.enc_calls <- a.enc_calls + Array.length keys;
    a.values <- a.values + Cd.n_values codec;
    a.locals <- a.locals + Cd.n_locals codec;
    Array.iter (fun k -> a.key_bytes <- a.key_bytes + String.length k) keys;
    (match reduction with
    | Check.Explore.Full -> ()
    | Check.Explore.Canon ->
      let syms = Cn.group ~ids:cfg.E.ids ~inputs:cfg.E.inputs ~namings:cfg.E.namings in
      let init = g.E.states.(0) in
      let codec = Cd.create () in
      let ctx =
        Cn.make_ctx ~syms ~value_code:(Cd.value_code codec)
          ~local_code:(Cd.local_code codec) ~pack:(Cd.key_of_codes codec)
          ~init:(init.E.mem, init.E.locals)
      in
      Span.record tracer "replay.canon" (fun () ->
          Array.iter
            (fun st ->
              let raw = Cn.state_key ctx st.E.mem st.E.locals in
              ignore (Cn.canonize_keyed ctx ~raw st.E.mem st.E.locals))
            g.E.states);
      a.canon_calls <- a.canon_calls + Array.length g.E.states;
      a.group_order <- max a.group_order (List.length syms);
      a.pruned <- a.pruned + Cn.pruned ctx);
    keys

  let live a (g : E.graph) =
    a.live_bytes <- a.live_bytes +. float (Obj.reachable_words (Obj.repr g) * (Sys.word_size / 8));
    a.live_states <- a.live_states + Array.length g.E.states
end

module R1 = Replay (Coord.Amutex.P)

(* ---- bounded-memory: disk and snapshot re-drives ---- *)

(* Replay the external explorer's spill/checkpoint schedule from the
   depth profile: the hot table (initial state included) spills once it
   holds [hot_cap] keys at a generation boundary; a checkpoint follows
   every spill and every [gap] fresh states. Returns the spill points
   (as state counts) and the number of checkpoints. *)
let external_schedule ~hot_cap ~gap (s : Stats_.t) =
  let hot = ref 1 and n = ref 1 and last = ref 1 and ckpts = ref 0 in
  let spills = ref [] in
  List.iter
    (fun (d : Stats_.depth_sample) ->
      if d.Stats_.discovered > 0 then begin
        n := !n + d.Stats_.discovered;
        hot := !hot + d.Stats_.discovered;
        let spilled = !hot >= hot_cap in
        if spilled then begin
          spills := !n :: !spills;
          hot := 0
        end;
        if spilled || !n - !last >= gap then begin
          incr ckpts;
          last := !n
        end
      end)
    s.Stats_.depths;
  (List.rev !spills, !ckpts)

(* Spill the real keys in the external run's batches and, before each
   generation, probe that generation's fresh keys against the runs
   spilled so far -- the sorted-merge work the run did, re-driven. *)
let redrive_disk a tracer ~dir ~keys (s : Stats_.t) ~spills =
  let key_len = String.length keys.(0) in
  let dv = Check.Disk_visited.create ~dir ~key_len () in
  let fp = Digest.string "checkbench-redrive" in
  let spills = ref spills and spilled_upto = ref 0 and n = ref 1 in
  List.iter
    (fun (d : Stats_.depth_sample) ->
      let k = d.Stats_.discovered in
      if k > 0 then begin
        let batch = Array.sub keys !n k in
        Array.sort compare batch;
        ignore
          (Span.record tracer "Disk_visited.probe" (fun () ->
               Check.Disk_visited.probe dv batch));
        a.disk_keys_probed <- a.disk_keys_probed + k;
        n := !n + k;
        match !spills with
        | p :: rest when p = !n ->
          let run = Array.sub keys !spilled_upto (p - !spilled_upto) in
          Array.sort compare run;
          Span.record tracer "Disk_visited.spill" (fun () ->
              Check.Disk_visited.spill dv ~fingerprint:fp ~descr:"redrive" run);
          spilled_upto := p;
          spills := rest
        | _ -> ()
      end)
    s.Stats_.depths;
  a.disk_probes <- Check.Disk_visited.n_probes dv;
  a.disk_runs <- Check.Disk_visited.n_runs dv;
  a.disk_bytes <- Check.Disk_visited.n_bytes dv

(* ---- job-mix: re-explore every distinct job the way Runner does ---- *)

(* The naming sweep, ids and inputs [Serve.Runner] uses for a check job
   (mirrored here; [traced_metrics] cross-checks the replayed state
   totals against the pool's outcomes). *)
let runner_ids n = Array.init n (fun i -> ((i + 1) * 17) + 1)

let runner_namings ~n ~m =
  if n = 2 && m <= 5 then
    List.map (fun nm -> [| Anonmem.Naming.identity m; nm |]) (Anonmem.Naming.all m)
  else [ Array.init n (fun k -> Anonmem.Naming.rotation m k) ]

module Mix_replay (P : Anonmem.Protocol.PROTOCOL) = struct
  module R = Replay (P)
  module E = R.E

  (* Replays one spec's sweep: sliced exploration with the pool's
     quantum (so snapshots are written as the runner writes them), the
     runner's properties, then the layer replays. Returns total states
     and one (fingerprint, ident) per config for the Cache.find
     re-drive. *)
  let run a tracer ~work ~quantum ~inputs
      ~(judge : E.graph -> unit) (spec : Serve.Spec.t) =
    let n = spec.Serve.Spec.n and reduction = spec.Serve.Spec.reduction in
    let total = ref 0 in
    let keys =
      List.map
        (fun namings ->
          let cfg = { E.ids = runner_ids n; inputs; namings } in
          let snap = Filename.concat work "mix-replay.snap" in
          (try Sys.remove snap with Sys_error _ -> ());
          let rec slice ~resume k =
            let cap =
              match spec.Serve.Spec.max_states with
              | Some b -> min b (k * quantum)
              | None -> k * quantum
            in
            let resume_from = if resume then Some snap else None in
            let g, st =
              Span.record tracer "explore_with_stats" (fun () ->
                  E.explore_with_stats ~max_states:cap ~reduction ~snapshot_to:snap
                    ?resume_from cfg)
            in
            (* done when complete, at the job's budget, or stopped short
               of this slice's cap for any other reason *)
            if g.E.complete || st.Stats_.n_states < cap
               || Some st.Stats_.n_states = spec.Serve.Spec.max_states
            then (g, st, k)
            else slice ~resume:true (k + 1)
          in
          let g, st, slices = slice ~resume:false 1 in
          add_explored a st;
          total := !total + st.Stats_.n_states;
          if slices > 1 || not g.E.complete then
            redrive_snapshot a tracer ~path:snap ~appends:slices
              ~scratch:(Filename.concat work "mix-redrive.snap");
          (try Sys.remove snap with Sys_error _ -> ());
          judge g;
          ignore (R.states a tracer ~reduction g);
          R.live a g;
          E.fingerprint ~reduction cfg |> fst, E.describe ~reduction cfg)
        (runner_namings ~n ~m:spec.Serve.Spec.m)
    in
    (!total, keys)
end

module M_mutex = Mix_replay (Coord.Amutex.P)
module M_cons = Mix_replay (Coord.Consensus.P)
module M_elect = Mix_replay (Coord.Election.P)
module M_ren = Mix_replay (Coord.Renaming.P)

let mutex_judge tracer (g : M_mutex.E.graph) =
  let f = Span.record tracer "to_flat" (fun () -> M_mutex.E.to_flat g) in
  ignore (Span.record tracer "mutual_exclusion" (fun () -> Check.Mutex_props.mutual_exclusion f));
  ignore (Span.record tracer "deadlock_freedom" (fun () -> Check.Mutex_props.deadlock_freedom f))

let replay_spec a tracer ~work ~quantum (spec : Serve.Spec.t) =
  let n = spec.Serve.Spec.n in
  let decide name f = ignore (Span.record tracer name f) in
  match spec.Serve.Spec.proto with
  | Serve.Spec.Mutex ->
    M_mutex.run a tracer ~work ~quantum ~inputs:(Array.make n ())
      ~judge:(mutex_judge tracer) spec
  | Serve.Spec.Consensus ->
    let inputs = Array.init n (fun i -> (i + 1) * 100) in
    M_cons.run a tracer ~work ~quantum ~inputs spec ~judge:(fun g ->
        let st = M_cons.E.statuses in
        decide "consensus" (fun () ->
            ignore (Check.Props.agreement ~equal:Int.equal ~statuses:st g.M_cons.E.states);
            ignore
              (Check.Props.validity
                 ~allowed:(fun v -> Array.exists (( = ) v) inputs)
                 ~statuses:st g.M_cons.E.states);
            M_cons.E.check_obstruction_freedom g))
  | Serve.Spec.Election ->
    let ids = runner_ids n in
    M_elect.run a tracer ~work ~quantum ~inputs:(Array.make n ()) spec
      ~judge:(fun g ->
        let st = M_elect.E.statuses in
        decide "consensus" (fun () ->
            ignore (Check.Props.agreement ~equal:Int.equal ~statuses:st g.M_elect.E.states);
            ignore
              (Check.Props.validity
                 ~allowed:(fun v -> Array.exists (( = ) v) ids)
                 ~statuses:st g.M_elect.E.states);
            M_elect.E.check_obstruction_freedom g))
  | Serve.Spec.Renaming ->
    M_ren.run a tracer ~work ~quantum ~inputs:(Array.make n ()) spec
      ~judge:(fun g ->
        let st = M_ren.E.statuses in
        decide "consensus" (fun () ->
            ignore
              (Check.Props.distinct_outputs ~equal:Int.equal ~statuses:st
                 g.M_ren.E.states);
            ignore
              (Check.Props.adaptive_range ~name_of:Fun.id ~statuses:st
                 g.M_ren.E.states);
            M_ren.E.check_obstruction_freedom g))
  | p ->
    invalid_arg ("checkbench: no replay for " ^ Serve.Spec.proto_to_string p)

(* ---- assembling the metrics ---- *)

let layer_names =
  [
    "successors.s"; "successors.calls"; "successors.ns_per_state";
    "codec.encode_s"; "codec.encode_calls"; "codec.values"; "codec.locals";
    "codec.key_bytes";
    "canon.s"; "canon.calls"; "canon.group_order"; "canon.pruned";
    "canon.cache_hits"; "canon.reduction_factor";
    "explore.s"; "explore.self_s"; "explore.states"; "explore.candidates";
    "explore.new_per_candidate"; "explore.minor_words_per_state";
    "explore.live_bytes_per_state"; "explore.minor_gcs"; "explore.major_gcs";
    "par.s"; "par.seq_s"; "par.speedup_vs_seq"; "par.cutover_depth";
    "par.steals"; "par.handoffs"; "par.shard_imbalance"; "par.minor_gcs";
    "props.to_flat_s"; "props.mutual_exclusion_s"; "props.deadlock_freedom_s";
    "props.starvation_freedom_s"; "props.consensus_s"; "props.share";
    "snapshot.appends"; "snapshot.bytes"; "snapshot.append_s"; "snapshot.read_s";
    "disk.runs"; "disk.probes"; "disk.bytes"; "disk.spill_s"; "disk.probe_s";
    "disk.keys_per_probe";
    "serve.step_s"; "serve.slices"; "serve.preemptions"; "serve.queue_wait_s";
    "serve.cache_hits"; "serve.cache_misses"; "serve.cache_hit_ratio";
    "serve.cache_find_s";
    "trace.wall_s"; "trace.overhead_s";
  ]

let ratio x y = if y = 0. then 0. else x /. y

(* Metrics of one traced rep. [explore_span] names the span(s) holding
   the workload's exploration. *)
let metrics tr a ~explore_span ~extra =
  let t = Span.total tr in
  let succ_s = t "replay.successors" and enc_s = t "replay.encode" and canon_s = t "replay.canon" in
  let explore_s = t explore_span in
  let words f = Span.sum_by_f tr explore_span f in
  let gcs f = float (Span.sum_by tr explore_span f) in
  let states = float a.explore_states in
  let props =
    [ ("props.to_flat_s", t "to_flat");
      ("props.mutual_exclusion_s", t "mutual_exclusion");
      ("props.deadlock_freedom_s", t "deadlock_freedom");
      ("props.starvation_freedom_s", t "starvation_freedom");
      ("props.consensus_s", t "consensus") ]
  in
  let props_s = List.fold_left (fun s (_, v) -> s +. v) 0. props in
  let base =
    [
      ("successors.s", succ_s);
      ("successors.calls", float a.succ_calls);
      ("successors.ns_per_state", ratio (succ_s *. 1e9) (float a.succ_calls));
      ("codec.encode_s", enc_s);
      ("codec.encode_calls", float a.enc_calls);
      ("codec.values", float a.values);
      ("codec.locals", float a.locals);
      ("codec.key_bytes", ratio (float a.key_bytes) (float a.enc_calls));
      ("canon.s", canon_s);
      ("canon.calls", float a.canon_calls);
      ("canon.group_order", float a.group_order);
      ("canon.pruned", float a.pruned);
      ("canon.cache_hits", float a.canon_hits);
      ("canon.reduction_factor", ratio (float a.orbit_sum) (float a.canon_states));
      ("explore.s", explore_s);
      ("explore.self_s", explore_s -. succ_s -. enc_s -. canon_s);
      ("explore.states", states);
      ("explore.candidates", float a.explore_candidates);
      ("explore.new_per_candidate", ratio states (float a.explore_candidates));
      ("explore.minor_words_per_state", ratio (words (fun s -> s.Span.minor_words)) states);
      ("explore.live_bytes_per_state", ratio a.live_bytes (float a.live_states));
      ("explore.minor_gcs", gcs (fun s -> s.Span.minor_gcs));
      ("explore.major_gcs", gcs (fun s -> s.Span.major_gcs));
    ]
    @ props
    @ [
        ("props.share", ratio props_s (props_s +. explore_s));
        ("snapshot.appends", float a.snap_appends);
        ("snapshot.bytes", float a.snap_bytes);
        ("snapshot.append_s", t "Snapshot.append");
        ("snapshot.read_s", t "Snapshot.read_chunks");
        ("disk.runs", float a.disk_runs);
        ("disk.probes", float a.disk_probes);
        ("disk.bytes", float a.disk_bytes);
        ("disk.spill_s", t "Disk_visited.spill");
        ("disk.probe_s", t "Disk_visited.probe");
        ("disk.keys_per_probe", ratio (float a.disk_keys_probed) (float a.disk_probes));
      ]
  in
  let all = base @ extra in
  List.map (fun name -> (name, Option.value (List.assoc_opt name all) ~default:0.)) layer_names

(* The layer part of a traced rep, after the workload ran with [tr]
   recording. [t_work] is the traced workload's own wall time. Returns
   the metrics and any cross-check that failed. *)
let traced_metrics tr ~work ~(obs : Workloads.obs) ~t_work =
  let a = acc () in
  let tracer = Some tr in
  let trace = [ ("trace.wall_s", t_work) ] in
  let m =
    match obs with
    | Workloads.Big b ->
      add_explored a b.stats;
      (* the timed reps explore sequentially; the parallel layer is
         measured by re-driving the same instance through [explore_par] *)
      let pg, ps =
        Span.record tracer "par.explore_par" (fun () ->
            Workloads.Fig1.explore_par ~domains:b.domains b.cfg)
      in
      if Array.length pg.Workloads.Fig1.states <> Array.length b.g.Workloads.Fig1.states then
        problem a
          (Printf.sprintf "explore_par re-drive found %d states, the rep %d"
             (Array.length pg.Workloads.Fig1.states) (Array.length b.g.Workloads.Fig1.states));
      ignore (R1.states a tracer ~reduction:Check.Explore.Full b.g);
      R1.live a b.g;
      let par_s = Span.total tr "par.explore_par" and seq_s = Span.total tr "explore_with_stats" in
      metrics tr a ~explore_span:"explore_with_stats"
        ~extra:
          ([
             ("par.s", par_s);
             ("par.seq_s", seq_s);
             ("par.speedup_vs_seq", ratio seq_s par_s);
             ("par.cutover_depth", float (Option.value ps.Stats_.cutover ~default:(-1)));
             ("par.steals", float ps.Stats_.steals);
             ("par.handoffs", float ps.Stats_.handoffs);
             ("par.shard_imbalance", Stats_.shard_imbalance ps);
             ("par.minor_gcs", float (Span.sum_by tr "par.explore_par" (fun s -> s.Span.minor_gcs)));
           ]
          @ trace)
    | Workloads.Bounded b ->
      add_explored a b.stats;
      let g, ram =
        Span.record tracer "replay.explore_in_ram" (fun () ->
            Workloads.Fig1.explore_with_stats b.cfg)
      in
      let keys = R1.states a tracer ~reduction:Check.Explore.Full g in
      let spills, ckpts =
        external_schedule ~hot_cap:Inputs.hot_cap ~gap:Inputs.snapshot_every ram
      in
      if List.length spills <> b.stats.Stats_.spilled_runs then
        problem a
          (Printf.sprintf "spill schedule replay found %d runs, the run spilled %d"
             (List.length spills) b.stats.Stats_.spilled_runs);
      redrive_snapshot a tracer ~path:b.snapshot ~appends:ckpts
        ~scratch:(Filename.concat work "redrive.snap");
      redrive_disk a tracer ~dir:(Filename.concat work "redrive-visited") ~keys ram ~spills;
      metrics tr a ~explore_span:"explore_external" ~extra:trace
    | Workloads.Mix m ->
      let d = Serve.Daemon.default ~spool:work in
      let quantum = d.Serve.Daemon.quantum in
      let cache = Serve.Pool.cache m.Workloads.pool in
      let hits = Serve.Cache.hits cache and misses = Serve.Cache.misses cache in
      let outcomes = Workloads.job_outcomes m in
      let replayed = Hashtbl.create 16 in
      let finds = ref [] in
      List.iteri
        (fun k (j : Inputs.job) ->
          let ident = Serve.Spec.ident j.spec in
          let total, keys =
            match Hashtbl.find_opt replayed ident with
            | Some r -> r
            | None ->
              let r = replay_spec a tracer ~work ~quantum j.spec in
              Hashtbl.add replayed ident r;
              r
          in
          finds := (k, keys) :: !finds;
          match outcomes.(k) with
          | Oracle.Done d when d.states <> total ->
            problem a
              (Printf.sprintf "job %d: replay found %d states, the pool reported %d" k
                 total d.states)
          | _ -> ())
        m.Workloads.jobs;
      List.iter
        (fun (k, keys) ->
          List.iter
            (fun (key, ident) ->
              ignore
                (Span.record tracer ~job:k "Cache.find" (fun () ->
                     Serve.Cache.find cache ~key ~ident)))
            keys)
        (List.rev !finds);
      let slices =
        Array.fold_left
          (fun s id ->
            match Serve.Pool.job m.Workloads.pool id with
            | Some j -> s + j.Serve.Pool.slices
            | None -> s)
          0 m.Workloads.ids
      in
      let waits =
        Array.to_list (Array.map (fun t -> t -. m.Workloads.t_submit) m.Workloads.first_ran)
        |> List.filter (fun x -> not (Float.is_nan x))
      in
      metrics tr a ~explore_span:"explore_with_stats"
        ~extra:
          ([
             ("serve.step_s", Span.total tr "Pool.step");
             ("serve.slices", float slices);
             ("serve.preemptions", float m.Workloads.yields);
             ("serve.queue_wait_s", Stats.median waits);
             ("serve.cache_hits", float hits);
             ("serve.cache_misses", float misses);
             ("serve.cache_hit_ratio", ratio (float hits) (float (hits + misses)));
             ("serve.cache_find_s", Span.total tr "Cache.find");
           ]
          @ trace)
  in
  (m, List.rev a.problems)
