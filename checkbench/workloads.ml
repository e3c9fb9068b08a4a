(* One rep of each workload: a set-up phase, then the checker calls a
   user would make, each wrapped in a span when a tracer is given. *)

open Anonmem
module Fig1 = Check.Explore.Make (Coord.Amutex.P)
module Stats_ = Check.Checker_stats

let fig1_config (i : Inputs.instance) : Fig1.config =
  {
    Fig1.ids = i.ids;
    inputs = Array.make i.n ();
    namings = Array.map Naming.of_array i.namings;
  }

(* The three verdicts [coordctl check mutex] prints, on one graph. *)
let fig1_verdicts ?tracer (g : Fig1.graph) : Oracle.verdicts =
  let f = Span.record tracer "to_flat" (fun () -> Fig1.to_flat g) in
  let me =
    Span.record tracer "mutual_exclusion" (fun () ->
        Check.Mutex_props.mutual_exclusion f)
  in
  let df =
    Span.record tracer "deadlock_freedom" (fun () ->
        Check.Mutex_props.deadlock_freedom f)
  in
  let sf =
    Span.record tracer "starvation_freedom" (fun () ->
        Check.Mutex_props.starvation_freedom f)
  in
  {
    Oracle.states = Array.length g.Fig1.states;
    transitions =
      Array.fold_left (fun a l -> a + List.length l) 0 g.Fig1.succs;
    complete = g.Fig1.complete;
    mutual_exclusion = me = None;
    deadlock_freedom = df = None;
    starvation = (match sf with None -> "none" | Some (p, _) -> "p" ^ string_of_int p);
  }

(* The per-seed oracle. big-graph's reps run the sequential explorer, so
   its expected graph and verdicts come from the other engine,
   [explore_par] on [domains]; bounded-memory's expected stats come from
   the sequential in-RAM explorer its external run must match. *)
let oracle ~(workload : Inputs.workload) ~domains (i : Inputs.instance) : Oracle.t =
  let cfg = fig1_config i in
  match workload with
  | Inputs.Big_graph ->
    let g, stats = Fig1.explore_par ~domains cfg in
    { Oracle.verdicts = Some (fig1_verdicts g); stats }
  | Inputs.Bounded_memory | Inputs.Job_mix ->
    let _, stats = Fig1.explore_with_stats cfg in
    { Oracle.verdicts = None; stats }

(* ---- observations ---- *)

type mix = {
  pool : Serve.Pool.t;
  jobs : Inputs.job list;
  ids : int array;  (** pool id of each job, in submission order *)
  t_submit : float;
  first_ran : float array;  (** start of the round a job first ran in *)
  finished_at : float array;
  mutable yields : int;  (** slices that ended with the job yielded *)
}

type obs =
  | Big of {
      cfg : Fig1.config;
      domains : int;  (** for the traced run's parallel re-drive *)
      g : Fig1.graph;
      stats : Stats_.t;
      verdicts : Oracle.verdicts;
    }
  | Bounded of { cfg : Fig1.config; stats : Stats_.t; snapshot : string }
  | Mix of mix

(* [prepare] does the set-up a user pays before the first checker call
   (inputs, config, pool, cache, store directories) and returns the
   rep's work as a closure. [instance] replaces the seeded Fig 1
   instance (tests use a small one). *)
let prepare ?tracer ?instance ~(workload : Inputs.workload) ~seed ~domains ~work () :
    unit -> obs =
  let instance () =
    match instance with Some i -> i | None -> Inputs.instance ~seed ()
  in
  match workload with
  | Inputs.Big_graph ->
    let cfg = fig1_config (instance ()) in
    fun () ->
      let g, stats =
        Span.record tracer "explore_with_stats" (fun () ->
            Fig1.explore_with_stats cfg)
      in
      let verdicts = fig1_verdicts ?tracer g in
      Big { cfg; domains; g; stats; verdicts }
  | Inputs.Bounded_memory ->
    let cfg = fig1_config (instance ()) in
    let dir = Filename.concat work "visited" in
    let snapshot = Filename.concat work "bounded.snap" in
    Sys.mkdir dir 0o755;
    fun () ->
      let stats =
        Span.record tracer "explore_external" (fun () ->
            Fig1.explore_external ~hot_cap:Inputs.hot_cap
              ~snapshot_every:Inputs.snapshot_every ~snapshot_to:snapshot ~dir
              cfg)
      in
      Bounded { cfg; stats; snapshot }
  | Inputs.Job_mix ->
    let jobs = Inputs.job_mix ~seed in
    let state_dir = Filename.concat work "serve" in
    let d = Serve.Daemon.default ~spool:state_dir in
    let pool =
      Serve.Pool.create ~workers:(min d.Serve.Daemon.workers domains)
        ~quantum:d.Serve.Daemon.quantum ~cache:(Serve.Cache.create ())
        ~state_dir ()
    in
    let n = List.length jobs in
    fun () ->
      let t_submit = Span.now () in
      let ids =
        Array.of_list (List.map (fun (j : Inputs.job) -> Serve.Pool.submit pool j.spec) jobs)
      in
      let m =
        {
          pool;
          jobs;
          ids;
          t_submit;
          first_ran = Array.make n nan;
          finished_at = Array.make n nan;
          yields = 0;
        }
      in
      let rec loop () =
        let t_round = Span.now () in
        let slices_before =
          Array.map
            (fun id ->
              match Serve.Pool.job pool id with Some j -> j.Serve.Pool.slices | None -> 0)
            ids
        in
        if Span.record tracer "Pool.step" (fun () -> Serve.Pool.step pool)
        then begin
          let t = Span.now () in
          Array.iteri
            (fun k id ->
              match Serve.Pool.job pool id with
              | None -> ()
              | Some j ->
                let ran = j.Serve.Pool.slices > slices_before.(k) in
                if ran && Float.is_nan m.first_ran.(k) then m.first_ran.(k) <- t_round;
                (match j.Serve.Pool.status with
                | Serve.Pool.Finished _ | Serve.Pool.Crashed _ | Serve.Pool.Cancelled ->
                  if Float.is_nan m.finished_at.(k) then m.finished_at.(k) <- t
                | Serve.Pool.Yielded -> if ran then m.yields <- m.yields + 1
                | Serve.Pool.Queued -> ()))
            ids;
          loop ()
        end
      in
      loop ();
      Mix m

(* ---- what a rep reports ---- *)

type rep = {
  setup_s : float;
  wall_s : float;  (** filled in by the harness, which spawned the rep *)
  fresh_states : int;
  explore_s : float;  (** summed [Checker_stats.elapsed_s] of fresh runs *)
  ops : int;
  failed : int;
  latencies : float list;  (** per operation *)
  mismatches : string list;
  peak_rss_mb : float;
  cpu_s : float;  (** user + system CPU time of the rep process *)
}

let job_outcomes (m : mix) =
  Array.map
    (fun id ->
      match Serve.Pool.job m.pool id with
      | None -> Oracle.Unfinished
      | Some j -> (
        match j.Serve.Pool.status with
        | Serve.Pool.Finished o ->
          Oracle.Done
            {
              verdict = Serve.Runner.verdict_tag o.Serve.Runner.verdict;
              detail = o.Serve.Runner.detail;
              states = o.Serve.Runner.states;
            }
        | Serve.Pool.Crashed e -> Oracle.Crashed e
        | _ -> Oracle.Unfinished))
    m.ids

(* Fresh explorations of a job mix, each counted once: a cache answer
   replays the original's stats record itself, so physical identity
   separates fresh runs from replays. *)
let fresh_stats (m : mix) =
  Array.fold_left
    (fun acc id ->
      match Serve.Pool.job m.pool id with
      | Some { Serve.Pool.status = Serve.Pool.Finished o; _ } ->
        List.fold_left
          (fun acc s -> if List.memq s acc then acc else s :: acc)
          acc o.Serve.Runner.stats
      | _ -> acc)
    [] m.ids

(* Judge one observation against the seed's oracle. *)
let summarize ~setup_s ~t_start ~t_end ~(oracle : Oracle.t option) (o : obs) : rep =
  let single ~stats ~mismatches =
    {
      setup_s;
      wall_s = nan;
      fresh_states = stats.Stats_.n_states;
      explore_s = stats.Stats_.elapsed_s;
      ops = 1;
      failed = (if mismatches = [] then 0 else 1);
      latencies = [ t_end -. t_start ];
      mismatches;
      peak_rss_mb = nan;
      cpu_s = nan;
    }
  in
  match (o, oracle) with
  | Big b, Some { Oracle.verdicts = Some expected; _ } ->
    single ~stats:b.stats
      ~mismatches:(Oracle.check_big_graph ~expected ~observed:b.verdicts ~stats:b.stats)
  | Bounded b, Some oracle ->
    single ~stats:b.stats
      ~mismatches:(Oracle.check_bounded ~expected:oracle.Oracle.stats ~observed:b.stats)
  | (Big _ | Bounded _), _ -> invalid_arg "summarize: missing oracle"
  | Mix m, _ ->
    let bad = Oracle.check_jobs m.jobs (job_outcomes m) in
    let fresh = fresh_stats m in
    {
      setup_s;
      wall_s = nan;
      fresh_states = Serve.Pool.explored m.pool;
      explore_s = List.fold_left (fun a s -> a +. s.Stats_.elapsed_s) 0. fresh;
      ops = Array.length m.ids;
      failed = List.length bad;
      latencies =
        Array.to_list (Array.map (fun t -> t -. m.t_submit) m.finished_at)
        |> List.filter (fun x -> not (Float.is_nan x));
      mismatches = List.map (fun (i, r) -> Printf.sprintf "job %d: %s" i r) bad;
      peak_rss_mb = nan;
      cpu_s = nan;
    }
