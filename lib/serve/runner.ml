open Anonmem

let str = Printf.sprintf

type verdict =
  | Pass
  | Violation
  | Truncated
  | Deadline
  | Disagreement
  | Failed of string

let verdict_exit = function
  | Pass -> 0
  | Violation -> 1
  | Truncated -> 3
  | Disagreement -> 5
  | Deadline -> 6
  | Failed _ -> 7

let verdict_tag = function
  | Pass -> "pass"
  | Violation -> "violation"
  | Truncated -> "truncated"
  | Deadline -> "deadline"
  | Disagreement -> "disagreement"
  | Failed _ -> "failed"

let verdict_of_exit ~detail = function
  | 0 -> Pass
  | 1 -> Violation
  | 3 -> Truncated
  | 5 -> Disagreement
  | 6 -> Deadline
  | _ -> Failed detail

type outcome = {
  verdict : verdict;
  detail : string;
  configs : int;
  cached_configs : int;
  states : int;
  explored : int;
  stats : Check.Checker_stats.t list;
}

type check_state = {
  idx : int;  (* next configuration in the naming sweep *)
  states_done : int;  (* states the snapshot covers for config [idx] *)
  partial : bool;  (* a snapshot of config [idx] is on disk *)
  bad : bool;
  truncated : bool;
  saw_deadline : bool;
  acc_stats : Check.Checker_stats.t list;  (* rev *)
  acc_detail : string list;  (* rev *)
  cached : int;
  total_states : int;
  explored : int;
}

type progress = Start | Check_cursor of check_state

let start = Start
let progress_explored = function Start -> 0 | Check_cursor cs -> cs.explored

let after_crash ~snapshot = function
  | Start -> Start
  | Check_cursor cs ->
    (* if the checkpoint died with the slice, the current config restarts
       from scratch; completed configs live in the cursor and are kept *)
    Check_cursor { cs with partial = cs.partial && Sys.file_exists snapshot }

type slice = Done of outcome | Yield of progress

let init_cs =
  {
    idx = 0;
    states_done = 0;
    partial = false;
    bad = false;
    truncated = false;
    saw_deadline = false;
    acc_stats = [];
    acc_detail = [];
    cached = 0;
    total_states = 0;
    explored = 0;
  }

let cursor = function Start -> init_cs | Check_cursor cs -> cs

let render_verdicts vs =
  String.concat ", "
    (List.map
       (fun (name, ok) -> str "%s %s" name (if ok then "ok" else "VIOLATED"))
       vs)

type report = {
  namings : Naming.t array;
  complete : bool;
  stats : Check.Checker_stats.t;
  verdicts : (string * bool) list;
  info : (string * string) list;
}

(* What a coordctl invocation adds to the check loop. Served jobs run
   with [served]: one shared snapshot path, no per-config report. *)
type extras = {
  domains : int option;
  snapshot_every : int option;
  snapshot_dir : string option;  (* per-config checkpoints, kept *)
  resume : (string * Check.Snapshot.meta) option;
  recover : bool;
  on_config : (report -> unit) option;
}

let served =
  {
    domains = None;
    snapshot_every = None;
    snapshot_dir = None;
    resume = None;
    recover = false;
    on_config = None;
  }

(* ------------------------------------------------------------------ *)
(* check jobs: the naming sweep, sliced                                *)
(* ------------------------------------------------------------------ *)

let check_slice ?cache ?quantum ?deadline_left_s ~salvage ~snapshot ~x
    (spec : Spec.t) (cs0 : check_state) : slice =
  let entry = Catalog.find spec.Spec.proto in
  let cfgs = Array.of_list (entry.Catalog.configs spec) in
  let ncfg = Array.length cfgs in
  let finalize cs =
    let verdict =
      if cs.bad then Violation
      else if cs.saw_deadline then Deadline
      else if cs.truncated then Truncated
      else Pass
    in
    Done
      {
        verdict;
        detail = String.concat "; " (List.rev cs.acc_detail);
        configs = ncfg;
        cached_configs = cs.cached;
        states = cs.total_states;
        explored = cs.explored;
        stats = List.rev cs.acc_stats;
      }
  in
  let rec step cs =
    if cs.idx >= ncfg then finalize cs
    else begin
      let cfg = cfgs.(cs.idx) in
      let key () = fst (Lazy.force cfg.Catalog.fingerprint) in
      let hit =
        if cs.partial then None
        else
          Option.bind cache (fun c ->
              Cache.find c ~key:(key ()) ~ident:(Lazy.force cfg.Catalog.ident))
      in
      match hit with
      | Some e ->
        (* consecutive hits fold into one slice: a fully-cached job
           completes in a single slice with [explored = 0] *)
        step
          {
            cs with
            idx = cs.idx + 1;
            cached = cs.cached + 1;
            total_states = cs.total_states + e.Cache.n_states;
            bad = cs.bad || e.Cache.exit_code = 1;
            acc_detail = (e.Cache.detail ^ " [cached]") :: cs.acc_detail;
            acc_stats =
              (match e.Cache.stats with
              | Some s -> s :: cs.acc_stats
              | None -> cs.acc_stats);
          }
      | None ->
        let budget = spec.Spec.max_states in
        let cap =
          match (quantum, budget) with
          | Some q, Some b -> Some (min b (cs.states_done + q))
          | Some q, None -> Some (cs.states_done + q)
          | None, b -> b
        in
        let snapshot_to =
          match x.snapshot_dir with
          | Some dir ->
            Some
              (Filename.concat dir
                 (str "%s-n%d-m%d-%d.snap" entry.Catalog.name spec.Spec.n
                    spec.Spec.m (cs.idx + 1)))
          | None -> snapshot
        in
        let resume_from =
          if cs.partial then snapshot_to
          else
            match x.resume with
            | Some (path, meta)
              when meta.Check.Snapshot.fingerprint = key () ->
              Some path
            | _ -> None
        in
        let r =
          cfg.Catalog.explore
            {
              Catalog.engine = spec.Spec.engine;
              domains = x.domains;
              max_states = cap;
              snapshot_every = x.snapshot_every;
              snapshot_to;
              resume_from;
              deadline_s = Option.map (Float.max 0.0) deadline_left_s;
              salvage;
              recover = x.recover;
            }
        in
        let st = r.Catalog.stats in
        let stt = st.Check.Checker_stats.n_states in
        let cs =
          { cs with explored = cs.explored + max 0 (stt - cs.states_done) }
        in
        let finish_config ?(keep_snapshot = false) ~cacheable cs =
          let vs = Lazy.force r.Catalog.verdicts in
          let bad_here = List.exists (fun (_, ok) -> not ok) vs in
          let detail =
            str "cfg %d/%d (%d states%s): %s" (cs.idx + 1) ncfg stt
              (if r.Catalog.complete then "" else ", truncated")
              (render_verdicts vs)
          in
          (* only complete explorations are cacheable: the fingerprint
             excludes the budget, so a truncated verdict would poison
             later, bigger-budget queries *)
          if cacheable && r.Catalog.complete then
            Option.iter
              (fun c ->
                Cache.add c ~key:(key ())
                  {
                    Cache.ident = Lazy.force cfg.Catalog.ident;
                    verdict = (if bad_here then "violation" else "pass");
                    exit_code = (if bad_here then 1 else 0);
                    detail;
                    n_states = stt;
                    stats = Some st;
                  })
              cache;
          Option.iter
            (fun f ->
              f
                {
                  namings = cfg.Catalog.namings;
                  complete = r.Catalog.complete;
                  stats = st;
                  verdicts = vs;
                  info = Lazy.force r.Catalog.info;
                })
            x.on_config;
          if not keep_snapshot then
            Option.iter
              (fun p -> try Sys.remove p with Sys_error _ -> ())
              snapshot;
          {
            cs with
            idx = cs.idx + 1;
            partial = false;
            states_done = 0;
            bad = cs.bad || bad_here;
            total_states = cs.total_states + stt;
            acc_stats = st :: cs.acc_stats;
            acc_detail = detail :: cs.acc_detail;
          }
        in
        let next cs =
          if cs.idx >= ncfg then finalize cs else Yield (Check_cursor cs)
        in
        if r.Catalog.complete then next (finish_config ~cacheable:true cs)
        else begin
          match st.Check.Checker_stats.stop with
          | Check.Checker_stats.Deadline ->
            (* the job deadline expired: judge the explored prefix, keep
               its snapshot for a resume, and end the whole job (the
               remaining configs are not attempted) *)
            let cs = finish_config ~keep_snapshot:true ~cacheable:false cs in
            finalize { cs with saw_deadline = true; truncated = true }
          | Check.Checker_stats.Budget
            when match budget with Some b -> stt >= b | None -> false ->
            (* the per-config state budget: prefix verdict, move on *)
            next { (finish_config ~cacheable:false cs) with truncated = true }
          | (Check.Checker_stats.Budget | Check.Checker_stats.Interrupted)
            when quantum <> None ->
            (* preempted at a snapshot boundary (slice quantum or a stop
               request): yield; a later slice resumes bit-identically *)
            Yield (Check_cursor { cs with partial = true; states_done = stt })
          | ( Check.Checker_stats.Oom | Check.Checker_stats.Fault
            | Check.Checker_stats.Disk_full )
            when quantum <> None ->
            (* degraded stop: resume from the flushed snapshot if one
               made it to disk, else restart the config *)
            Yield
              (Check_cursor
                 {
                   cs with
                   partial =
                     (match snapshot_to with
                     | Some p -> Sys.file_exists p
                     | None -> false);
                   states_done = stt;
                 })
          | _ ->
            (* run to completion, with no later slice to resume in: an
               interrupted or degraded config is a truncated verdict *)
            next { (finish_config ~cacheable:false cs) with truncated = true }
        end
    end
  in
  step cs0

(* ------------------------------------------------------------------ *)
(* fuzz and hunt jobs                                                  *)
(* ------------------------------------------------------------------ *)

let single verdict detail =
  {
    verdict;
    detail;
    configs = 1;
    cached_configs = 0;
    states = 0;
    explored = 0;
    stats = [];
  }

(* Served fuzz jobs pin n and draw m per attempt, as [coordctl fuzz -n N]
   does, with the same suite and baseline twin. *)
let fuzz_run ?deadline_left_s (spec : Spec.t) : outcome =
  let r =
    (Catalog.find spec.Spec.proto).Catalog.fuzz ?time_budget:deadline_left_s
      ~seed:spec.Spec.seed
      ~attempts:(Option.value spec.Spec.attempts ~default:200)
      ~max_states:(Option.value spec.Spec.max_states ~default:20_000)
      ~fixed:(Some spec.Spec.n, None) ()
  in
  let detail =
    str "attempts=%d agreed=%d violations=%d undecided=%d" r.Catalog.attempts
      r.Catalog.agreed r.Catalog.violations r.Catalog.undecided
  in
  match r.Catalog.disagreement with
  | Some d -> single Disagreement (str "%s; DISAGREEMENT %s" detail d)
  | None -> single (if r.Catalog.violations > 0 then Violation else Pass) detail

let hunt_run (spec : Spec.t) : outcome =
  let o =
    (Catalog.find spec.Spec.proto).Catalog.hunt
      ~attempts:(Option.value spec.Spec.attempts ~default:400)
      spec
  in
  match o.Check.Hunt.witness_seed with
  | Some s ->
    single Violation
      (str "witness seed %d after %d attempts (%d steps)" s
         o.Check.Hunt.attempts_made o.Check.Hunt.steps_taken)
  | None ->
    single Pass
      (str "no violation in %d attempts (%d steps)" o.Check.Hunt.attempts_made
         o.Check.Hunt.steps_taken)

(* ------------------------------------------------------------------ *)
(* dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let run_slice ?cache ?quantum ?deadline_left_s ?(salvage = false) ~snapshot
    (spec : Spec.t) (p : progress) : slice =
  match spec.Spec.kind with
  | Spec.Check ->
    check_slice ?cache ?quantum ?deadline_left_s ~salvage
      ~snapshot:(Some snapshot) ~x:served spec (cursor p)
  | Spec.Fuzz | Spec.Hunt -> (
    let id = Spec.ident spec in
    let key = Digest.string id in
    match Option.bind cache (fun c -> Cache.find c ~key ~ident:id) with
    | Some e ->
      Done
        {
          (single
             (verdict_of_exit ~detail:e.Cache.detail e.Cache.exit_code)
             (e.Cache.detail ^ " [cached]"))
          with
          cached_configs = 1;
          states = e.Cache.n_states;
        }
    | None ->
      let o =
        match spec.Spec.kind with
        | Spec.Fuzz -> fuzz_run ?deadline_left_s spec
        | _ -> hunt_run spec
      in
      (* a fuzz campaign cut short by a wall-clock budget is not a
         deterministic function of its spec — don't memoize it *)
      let cacheable =
        (match spec.Spec.kind with
        | Spec.Fuzz -> deadline_left_s = None
        | _ -> true)
        && match o.verdict with Failed _ -> false | _ -> true
      in
      if cacheable then
        Option.iter
          (fun c ->
            Cache.add c ~key
              {
                Cache.ident = id;
                verdict = verdict_tag o.verdict;
                exit_code = verdict_exit o.verdict;
                detail = o.detail;
                n_states = o.states;
                stats = None;
              })
          cache;
      Done o)

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let run ?domains ?snapshot_every ?snapshot_dir ?resume ?(salvage = false)
    ?(recover = false) ?on_config (spec : Spec.t) : outcome =
  let resume =
    Option.map (fun path -> (path, Check.Snapshot.read_meta ~path)) resume
  in
  Option.iter ensure_dir snapshot_dir;
  let x =
    { domains; snapshot_every; snapshot_dir; resume; recover; on_config }
  in
  (* the deadline bounds the whole job: each slice gets what is left *)
  let t0 = Check.Checker_stats.now () in
  let rec go p =
    let deadline_left_s =
      Option.map
        (fun d -> d -. (Check.Checker_stats.now () -. t0))
        spec.Spec.deadline_s
    in
    match
      check_slice ?deadline_left_s ~salvage ~snapshot:None ~x spec (cursor p)
    with
    | Done o -> o
    | Yield p -> go p
  in
  let o = go Start in
  (match resume with
  | Some (path, meta) ->
    (* a snapshot matching no configuration of the sweep belongs to some
       other exploration *)
    let cfgs = (Catalog.find spec.Spec.proto).Catalog.configs spec in
    if
      not
        (List.exists
           (fun c ->
             fst (Lazy.force c.Catalog.fingerprint)
             = meta.Check.Snapshot.fingerprint)
           cfgs)
    then
      raise
        (Check.Snapshot.Error
           (Check.Snapshot.Config_mismatch
              {
                path;
                snapshot = meta.Check.Snapshot.descr;
                current = snd (Lazy.force (List.hd cfgs).Catalog.fingerprint);
              }))
  | None -> ());
  o
