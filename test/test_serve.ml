(* The job-queue verification service. Contracts pinned here:

   - queue ordering: priority descending, FIFO within a class, and a
     yielded job re-queues BEHIND its class (round-robin, no hogging);
   - per-job state budgets are enforced per configuration (exit 3);
   - the verdict cache hits on fingerprint + full identity, detects a
     deliberate digest collision (degrades to a miss, never a wrong
     verdict), and serves a repeat submission with zero fresh states;
   - a preempted-then-resumed job's verdict and per-config stats are
     bit-identical (mod clock) to the same job run uninterrupted;
   - deadline and cancel exit paths;
   - a crash mid-job (Resilience.plan_of_seed-style faults) is absorbed:
     the pool retries with salvage and converges on the fault-free
     result. *)

let spec_check ?max_states ?deadline_s ?priority ?(m = 3) () =
  Serve.Spec.make ?max_states ?deadline_s ?priority ~m Serve.Spec.Check
    Serve.Spec.Mutex

let tmp_dir name =
  let d = Filename.temp_file ("coordserve-" ^ name) ".d" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let with_plan plan f =
  Resilience.arm plan;
  Fun.protect ~finally:Resilience.disarm f

let finished_outcome tag pool id =
  match (Option.get (Serve.Pool.job pool id)).Serve.Pool.status with
  | Serve.Pool.Finished o -> o
  | Serve.Pool.Crashed msg -> Alcotest.fail (tag ^ ": crashed: " ^ msg)
  | _ -> Alcotest.fail (tag ^ ": not finished")

let check_stats_list tag (a : Check.Checker_stats.t list)
    (b : Check.Checker_stats.t list) =
  Alcotest.(check int) (tag ^ ": same config count") (List.length a)
    (List.length b);
  List.iteri
    (fun i (x, y) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: cfg %d stats bit-identical (mod clock)" tag i)
        true
        (Check.Checker_stats.equal_ignoring_time x y))
    (List.combine a b)

(* ------------------------------ spec ---------------------------------- *)

let test_spec_roundtrip () =
  let specs =
    [
      spec_check ~max_states:1000 ~deadline_s:1.5 ~priority:3 ();
      Serve.Spec.make ~engine:Serve.Spec.Par Serve.Spec.Check
        Serve.Spec.Mutex;
      Serve.Spec.make ~n:3 ~attempts:50 ~seed:7 Serve.Spec.Fuzz
        Serve.Spec.Consensus;
      Serve.Spec.make ~steps:500 ~strategy:Check.Hunt.Chaos Serve.Spec.Hunt
        Serve.Spec.Renaming;
    ]
  in
  List.iter
    (fun s ->
      match Serve.Spec.parse (Serve.Spec.to_line s) with
      | Ok s' ->
        Alcotest.(check bool)
          ("round-trips: " ^ Serve.Spec.to_line s)
          true (s = s')
      | Error e -> Alcotest.fail e)
    specs;
  (* defaults match coordctl check *)
  Alcotest.(check int) "mutex default m" 3
    (Serve.Spec.make Serve.Spec.Check Serve.Spec.Mutex).Serve.Spec.m;
  Alcotest.(check int) "consensus default m at n=3" 5
    (Serve.Spec.make ~n:3 Serve.Spec.Check Serve.Spec.Consensus).Serve.Spec.m;
  (* priority is scheduling, not identity *)
  Alcotest.(check string) "priority not in ident"
    (Serve.Spec.ident (spec_check ()))
    (Serve.Spec.ident (spec_check ~priority:9 ()));
  (match Serve.Spec.parse "kind = check" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing proto must not parse");
  Alcotest.(check bool)
    "engine=par parses" true
    (Serve.Spec.parse "kind = check\nproto = mutex\nengine = par"
    = Ok (Serve.Spec.make ~engine:Serve.Spec.Par Serve.Spec.Check
            Serve.Spec.Mutex));
  (* the deleted engines' tokens are rejected, naming what is accepted *)
  List.iter
    (fun e ->
      match Serve.Spec.parse ("kind = check\nproto = mutex\nengine = " ^ e) with
      | Error msg ->
        Alcotest.(check bool)
          ("engine=" ^ e ^ " error lists seq|par")
          true
          (let affix = "seq|par" in
           let n = String.length affix in
           let rec go i =
             i + n <= String.length msg
             && (String.sub msg i n = affix || go (i + 1))
           in
           go 0)
      | Ok _ -> Alcotest.fail ("engine=" ^ e ^ " must not parse"))
    [ "sharded"; "barrier" ];
  (match Serve.Spec.parse "kind = check\nproto = mutex\nfrobnicate = 1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown key must not parse");
  (* out-of-range sizes are refused at the boundary, naming the key *)
  List.iter
    (fun (line, key) ->
      match Serve.Spec.parse ("kind = check\nproto = mutex\n" ^ line) with
      | Error msg ->
        Alcotest.(check bool)
          (line ^ " error names " ^ key)
          true
          (String.length msg > String.length key
          && String.sub msg 0 (String.length key + 1) = key ^ " ")
      | Ok _ -> Alcotest.fail (line ^ " must not parse"))
    [ ("n = 0", "n"); ("m = 0", "m"); ("max_states = -5", "max_states") ];
  Alcotest.(check bool) "max_states = 0 parses" true
    (Result.is_ok
       (Serve.Spec.parse "kind = check\nproto = mutex\nmax_states = 0"));
  Alcotest.check_raises "make refuses n = 0"
    (Invalid_argument "n = 0 is out of range (must be >= 1)") (fun () ->
      ignore (Serve.Spec.make ~n:0 Serve.Spec.Check Serve.Spec.Mutex))

(* ------------------------------ cache --------------------------------- *)

let entry ident =
  {
    Serve.Cache.ident;
    verdict = "pass";
    exit_code = 0;
    detail = "d";
    n_states = 1;
    stats = None;
  }

let test_cache_hit_miss_collision () =
  let c = Serve.Cache.create () in
  let key = Digest.string "some-config" in
  Serve.Cache.add c ~key (entry "config A");
  (match Serve.Cache.find c ~key ~ident:"config A" with
  | Some e -> Alcotest.(check string) "hit returns the entry" "config A"
                e.Serve.Cache.ident
  | None -> Alcotest.fail "expected a hit");
  Alcotest.(check int) "one hit" 1 (Serve.Cache.hits c);
  (* a deliberate collision: same 16-byte digest, different configuration
     identity — must degrade to a detected miss, never a wrong verdict *)
  (match Serve.Cache.find c ~key ~ident:"config B (colliding)" with
  | None -> ()
  | Some _ -> Alcotest.fail "a colliding ident must not hit");
  Alcotest.(check int) "collision counted" 1 (Serve.Cache.collisions c);
  (match Serve.Cache.find c ~key:(Digest.string "other") ~ident:"x" with
  | None -> ()
  | Some _ -> Alcotest.fail "unknown key must miss");
  Alcotest.(check int) "misses counted" 2 (Serve.Cache.misses c);
  (* both colliding entries can coexist under the key *)
  Serve.Cache.add c ~key (entry "config B (colliding)");
  Alcotest.(check int) "bucket holds both" 2 (Serve.Cache.length c);
  match Serve.Cache.find c ~key ~ident:"config B (colliding)" with
  | Some _ -> ()
  | None -> Alcotest.fail "second entry must now hit"

let test_cache_save_load () =
  let c = Serve.Cache.create () in
  let key = Digest.string "k" in
  Serve.Cache.add c ~key (entry "id1");
  let path = Filename.temp_file "coordserve-cache" ".bin" in
  Serve.Cache.save c ~path;
  let c' = Serve.Cache.load ~path in
  Alcotest.(check int) "entries survive" 1 (Serve.Cache.length c');
  (match Serve.Cache.find c' ~key ~ident:"id1" with
  | Some _ -> ()
  | None -> Alcotest.fail "persisted entry must hit");
  (* a corrupt file loads as an empty cache, not an exception *)
  let oc = open_out_bin path in
  output_string oc "not a marshalled cache";
  close_out oc;
  Alcotest.(check int) "corrupt file -> empty cache" 0
    (Serve.Cache.length (Serve.Cache.load ~path));
  Sys.remove path

(* -------------------------- queue ordering ---------------------------- *)

let test_queue_ordering () =
  let dir = tmp_dir "queue" in
  (* tiny quantum so check jobs yield instead of finishing in one slice *)
  let pool = Serve.Pool.create ~quantum:200 ~state_dir:dir () in
  let j0 = Serve.Pool.submit pool (spec_check ()) in
  let j1 = Serve.Pool.submit pool (spec_check ~priority:5 ()) in
  let j2 = Serve.Pool.submit pool (spec_check ()) in
  Alcotest.(check (list int)) "priority desc, FIFO within a class"
    [ j1; j0; j2 ]
    (Serve.Pool.runnable pool);
  (* the high-priority job runs first; it yields and STAYS first (its
     class outranks the others) *)
  ignore (Serve.Pool.step pool);
  Alcotest.(check (list int)) "yielded high-priority job keeps its class"
    [ j1; j0; j2 ]
    (Serve.Pool.runnable pool);
  (* cancel it; now the two equal-priority jobs round-robin: j0 slices,
     then re-queues behind j2 *)
  Alcotest.(check bool) "cancel a yielded job" true (Serve.Pool.cancel pool j1);
  ignore (Serve.Pool.step pool);
  Alcotest.(check (list int)) "yielded job goes behind its class" [ j2; j0 ]
    (Serve.Pool.runnable pool);
  Serve.Pool.drain pool;
  let o0 = finished_outcome "j0" pool j0 in
  Alcotest.(check int) "cancelled job explored nothing, others complete" 0
    o0.Serve.Runner.cached_configs

(* ------------------------- budget enforcement ------------------------- *)

let test_per_job_budget () =
  let dir = tmp_dir "budget" in
  let pool = Serve.Pool.create ~state_dir:dir () in
  let id = Serve.Pool.submit pool (spec_check ~max_states:500 ()) in
  Serve.Pool.drain pool;
  let o = finished_outcome "budget" pool id in
  Alcotest.(check bool) "budget truncates the job" true
    (o.Serve.Runner.verdict = Serve.Runner.Truncated);
  Alcotest.(check int) "exit 3" 3 (Serve.Runner.verdict_exit o.Serve.Runner.verdict);
  Alcotest.(check int) "all six namings attempted" 6 o.Serve.Runner.configs;
  List.iter
    (fun st ->
      Alcotest.(check bool) "each config stopped on its budget" true
        (st.Check.Checker_stats.stop = Check.Checker_stats.Budget))
    o.Serve.Runner.stats

(* --------------- preemption: resume is bit-identical ------------------ *)

let test_preempt_resume_bit_identity () =
  (* the same job, uninterrupted (huge quantum: one slice per config)
     vs preempted every 700 states; separate caches so neither feeds the
     other *)
  let base = tmp_dir "preempt" in
  let run ~quantum =
    let dir = Filename.concat base (Printf.sprintf "q%d" quantum) in
    let pool = Serve.Pool.create ~quantum ~state_dir:dir () in
    let id = Serve.Pool.submit pool (spec_check ()) in
    Serve.Pool.drain pool;
    ( finished_outcome "preempt" pool id,
      (Option.get (Serve.Pool.job pool id)).Serve.Pool.slices )
  in
  let uo, uslices = run ~quantum:1_000_000 in
  let po, pslices = run ~quantum:700 in
  Alcotest.(check bool) "preemption actually happened" true
    (pslices > uslices);
  Alcotest.(check bool) "same verdict" true
    (po.Serve.Runner.verdict = uo.Serve.Runner.verdict);
  Alcotest.(check int) "same total states" uo.Serve.Runner.states
    po.Serve.Runner.states;
  Alcotest.(check int) "same fresh states" uo.Serve.Runner.explored
    po.Serve.Runner.explored;
  Alcotest.(check string) "same detail" uo.Serve.Runner.detail
    po.Serve.Runner.detail;
  check_stats_list "preempted vs uninterrupted" uo.Serve.Runner.stats
    po.Serve.Runner.stats

(* ------------------- repeat submissions hit the cache ----------------- *)

let test_repeat_served_from_cache () =
  let dir = tmp_dir "repeat" in
  let pool = Serve.Pool.create ~quantum:900 ~state_dir:dir () in
  let a = Serve.Pool.submit pool (spec_check ()) in
  Serve.Pool.drain pool;
  let explored_after_first = Serve.Pool.explored pool in
  let b = Serve.Pool.submit pool (spec_check ()) in
  Serve.Pool.drain pool;
  let oa = finished_outcome "first" pool a in
  let ob = finished_outcome "repeat" pool b in
  Alcotest.(check int) "repeat explored zero fresh states" 0
    ob.Serve.Runner.explored;
  Alcotest.(check int) "pool explored nothing new" explored_after_first
    (Serve.Pool.explored pool);
  Alcotest.(check int) "every config served from cache"
    ob.Serve.Runner.configs ob.Serve.Runner.cached_configs;
  Alcotest.(check int) "a fully-cached job takes one slice" 1
    (Option.get (Serve.Pool.job pool b)).Serve.Pool.slices;
  Alcotest.(check bool) "same verdict" true
    (oa.Serve.Runner.verdict = ob.Serve.Runner.verdict);
  Alcotest.(check int) "same states" oa.Serve.Runner.states
    ob.Serve.Runner.states;
  (* the cached stats are the original run's stats, bit for bit *)
  check_stats_list "cached stats replay the original" oa.Serve.Runner.stats
    ob.Serve.Runner.stats;
  (* a different m is a different fingerprint: no false sharing *)
  let c = Serve.Pool.submit pool (spec_check ~m:2 ()) in
  Serve.Pool.drain pool;
  let oc_ = finished_outcome "m=2" pool c in
  Alcotest.(check int) "different config misses the cache" 0
    oc_.Serve.Runner.cached_configs

(* ------------- coordctl check runs the same loop (Runner.run) ---------- *)

let test_run_matches_pool () =
  (* the CLI entry point (no quantum, no cache) and a preempted served
     job reach the same outcome, configuration for configuration *)
  List.iter
    (fun spec ->
      let tag = Serve.Spec.ident spec in
      let pool = Serve.Pool.create ~quantum:700 ~state_dir:(tmp_dir "run") () in
      let id = Serve.Pool.submit pool spec in
      Serve.Pool.drain pool;
      let po = finished_outcome tag pool id in
      let reports = ref [] in
      let ro =
        Serve.Runner.run ~on_config:(fun r -> reports := r :: !reports) spec
      in
      Alcotest.(check bool) (tag ^ ": same verdict") true
        (ro.Serve.Runner.verdict = po.Serve.Runner.verdict);
      Alcotest.(check string) (tag ^ ": same detail") po.Serve.Runner.detail
        ro.Serve.Runner.detail;
      Alcotest.(check int) (tag ^ ": same states") po.Serve.Runner.states
        ro.Serve.Runner.states;
      check_stats_list tag po.Serve.Runner.stats ro.Serve.Runner.stats;
      let reports = List.rev !reports in
      Alcotest.(check int) (tag ^ ": one report per config")
        ro.Serve.Runner.configs (List.length reports);
      List.iter
        (fun (r : Serve.Runner.report) ->
          Alcotest.(check bool) (tag ^ ": info columns for mutexes only")
            (spec.Serve.Spec.proto = Serve.Spec.Mutex)
            (r.Serve.Runner.info <> []))
        reports)
    [
      spec_check ();
      spec_check ~m:4 ();
      spec_check ~max_states:500 ();
      Serve.Spec.make Serve.Spec.Check Serve.Spec.Consensus;
      Serve.Spec.make ~reduction:Check.Explore.Canon Serve.Spec.Check
        Serve.Spec.Ccp;
    ]

let test_run_deadline_bounds_sweep () =
  (* the deadline bounds the whole run: an expired one stops the first
     configuration, keeps its checkpoint, and attempts no other; a
     resume from that checkpoint completes to the uninterrupted result *)
  let dir = tmp_dir "run-deadline" in
  let reports = ref 0 in
  let o =
    Serve.Runner.run ~snapshot_dir:dir
      ~on_config:(fun _ -> incr reports)
      (spec_check ~deadline_s:0.0 ())
  in
  Alcotest.(check bool) "deadline verdict" true
    (o.Serve.Runner.verdict = Serve.Runner.Deadline);
  Alcotest.(check int) "one configuration attempted" 1 !reports;
  let snap = Filename.concat dir "anonymous-mutex-fig1-n2-m3-1.snap" in
  Alcotest.(check bool) "its checkpoint is kept" true (Sys.file_exists snap);
  let resumed = Serve.Runner.run ~resume:snap (spec_check ()) in
  let clean = Serve.Runner.run (spec_check ()) in
  Alcotest.(check bool) "resume passes" true
    (resumed.Serve.Runner.verdict = Serve.Runner.Pass);
  check_stats_list "resumed vs uninterrupted" clean.Serve.Runner.stats
    resumed.Serve.Runner.stats;
  (* a snapshot of no configuration in the sweep is refused *)
  match Serve.Runner.run ~resume:snap (spec_check ~m:4 ()) with
  | _ -> Alcotest.fail "a foreign snapshot must be refused"
  | exception
      Check.Snapshot.Error (Check.Snapshot.Config_mismatch _) -> ()

(* ------------------------ deadline and cancel ------------------------- *)

let test_deadline_exit () =
  let dir = tmp_dir "deadline" in
  let pool = Serve.Pool.create ~state_dir:dir () in
  (* an expired deadline still stops gracefully at a generation boundary *)
  let id = Serve.Pool.submit pool (spec_check ~deadline_s:0.0 ()) in
  Serve.Pool.drain pool;
  let o = finished_outcome "deadline" pool id in
  Alcotest.(check bool) "deadline verdict" true
    (o.Serve.Runner.verdict = Serve.Runner.Deadline);
  Alcotest.(check int) "exit 6" 6
    (Serve.Runner.verdict_exit o.Serve.Runner.verdict);
  (* a generous deadline changes nothing *)
  let id2 = Serve.Pool.submit pool (spec_check ~deadline_s:3600.0 ()) in
  Serve.Pool.drain pool;
  let o2 = finished_outcome "generous deadline" pool id2 in
  Alcotest.(check bool) "pass under a generous deadline" true
    (o2.Serve.Runner.verdict = Serve.Runner.Pass)

let test_cancel_paths () =
  let dir = tmp_dir "cancel" in
  let pool = Serve.Pool.create ~state_dir:dir () in
  let a = Serve.Pool.submit pool (spec_check ()) in
  let b = Serve.Pool.submit pool (spec_check ~m:2 ()) in
  Alcotest.(check bool) "cancel a queued job" true (Serve.Pool.cancel pool b);
  Serve.Pool.drain pool;
  Alcotest.(check bool) "cancelled job never ran" true
    ((Option.get (Serve.Pool.job pool b)).Serve.Pool.status
    = Serve.Pool.Cancelled);
  ignore (finished_outcome "survivor" pool a);
  Alcotest.(check bool) "cannot cancel a finished job" false
    (Serve.Pool.cancel pool a);
  Alcotest.(check bool) "cannot cancel an unknown job" false
    (Serve.Pool.cancel pool 999)

(* --------------------- crash-mid-job salvage -------------------------- *)

let test_crash_mid_job_salvage () =
  let base = tmp_dir "crash" in
  let clean =
    let pool =
      Serve.Pool.create ~state_dir:(Filename.concat base "clean") ()
    in
    let id = Serve.Pool.submit pool (spec_check ()) in
    Serve.Pool.drain pool;
    finished_outcome "fault-free" pool id
  in
  (* a worker kill escapes the slice as an exception; the pool repairs
     the cursor and retries (salvage on), converging on the clean result *)
  let plan =
    {
      Resilience.seed = 2;
      faults = [ Resilience.Kill_domain { domain = 0; after_ticks = 600 } ];
    }
  in
  with_plan plan (fun () ->
      let pool =
        Serve.Pool.create ~state_dir:(Filename.concat base "kill") ()
      in
      let id = Serve.Pool.submit pool (spec_check ()) in
      Serve.Pool.drain pool;
      Alcotest.(check int) "the kill fired" 1 (Resilience.fired ());
      let j = Option.get (Serve.Pool.job pool id) in
      Alcotest.(check bool) "the crash cost a recovery" true
        (j.Serve.Pool.recoveries >= 1);
      let o = finished_outcome "killed" pool id in
      Alcotest.(check bool) "same verdict as fault-free" true
        (o.Serve.Runner.verdict = clean.Serve.Runner.verdict);
      Alcotest.(check int) "same states as fault-free"
        clean.Serve.Runner.states o.Serve.Runner.states;
      check_stats_list "salvaged stats match fault-free" clean.Serve.Runner.stats
        o.Serve.Runner.stats);
  (* an allocation failure degrades INSIDE the slice (Oom stop with a
     flushed snapshot); the runner yields and resumes without the pool
     ever seeing an exception *)
  let plan =
    {
      Resilience.seed = 3;
      faults = [ Resilience.Alloc_fail { after_boundaries = 3 } ];
    }
  in
  with_plan plan (fun () ->
      let pool =
        Serve.Pool.create ~state_dir:(Filename.concat base "oom") ()
      in
      let id = Serve.Pool.submit pool (spec_check ()) in
      Serve.Pool.drain pool;
      let o = finished_outcome "oom" pool id in
      Alcotest.(check bool) "same verdict after oom degradation" true
        (o.Serve.Runner.verdict = clean.Serve.Runner.verdict);
      Alcotest.(check int) "same states after oom degradation"
        clean.Serve.Runner.states o.Serve.Runner.states;
      check_stats_list "oom-degraded stats match fault-free"
        clean.Serve.Runner.stats o.Serve.Runner.stats)

(* ------------------------------ daemon -------------------------------- *)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let read_kv path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
         match String.index_opt line '=' with
         | None -> None
         | Some i ->
           Some
             ( String.trim (String.sub line 0 i),
               String.trim
                 (String.sub line (i + 1) (String.length line - i - 1)) ))

let test_daemon_once_drains_spool () =
  let spool = tmp_dir "spool" in
  let run_once () =
    Serve.Daemon.run
      ~log:(fun _ -> ())
      {
        (Serve.Daemon.default ~spool) with
        Serve.Daemon.once = true;
        workers = 1;
      }
  in
  write_file
    (Filename.concat spool "good.job")
    "kind = check\nproto = mutex\nm = 3\n";
  write_file (Filename.concat spool "bad.job") "kind = check\n";
  let code = run_once () in
  Alcotest.(check int) "clean exit" 0 code;
  let kv = read_kv (Filename.concat spool "done/good.result") in
  Alcotest.(check (option string)) "verdict recorded" (Some "pass")
    (List.assoc_opt "verdict" kv);
  Alcotest.(check (option string)) "exit recorded" (Some "0")
    (List.assoc_opt "exit" kv);
  (* the malformed spec got an error file, not a wedged daemon *)
  Alcotest.(check bool) "parse error reported" true
    (Sys.file_exists (Filename.concat spool "done/bad.error"));
  (* a restarted daemon loads the persisted cache and answers the
     identical job without exploring anything *)
  write_file
    (Filename.concat spool "again.job")
    "kind = check\nproto = mutex\nm = 3\n";
  Alcotest.(check int) "second run clean exit" 0 (run_once ());
  let kv2 = read_kv (Filename.concat spool "done/again.result") in
  Alcotest.(check (option string)) "repeat served from cache" (Some "true")
    (List.assoc_opt "cached" kv2);
  Alcotest.(check (option string)) "repeat explored nothing" (Some "0")
    (List.assoc_opt "explored" kv2);
  Alcotest.(check (option string)) "cached verdict matches"
    (List.assoc_opt "verdict" kv)
    (List.assoc_opt "verdict" kv2);
  (* the spool itself was drained *)
  Alcotest.(check bool) "job files claimed" true
    (Array.for_all
       (fun f -> not (Filename.check_suffix f ".job"))
       (Sys.readdir spool))

let suite =
  [
    Alcotest.test_case "spec round-trips; coordctl defaults" `Quick
      test_spec_roundtrip;
    Alcotest.test_case "cache: hit, miss, detected collision" `Quick
      test_cache_hit_miss_collision;
    Alcotest.test_case "cache: save/load; corrupt file is empty" `Quick
      test_cache_save_load;
    Alcotest.test_case "queue: priority, FIFO, yield re-queues behind" `Quick
      test_queue_ordering;
    Alcotest.test_case "per-job budget enforced (exit 3)" `Quick
      test_per_job_budget;
    Alcotest.test_case "preempt at boundary = uninterrupted (bit-identical)"
      `Quick test_preempt_resume_bit_identity;
    Alcotest.test_case "repeat submission served from cache, 0 explored"
      `Quick test_repeat_served_from_cache;
    Alcotest.test_case "run (coordctl check) = preempted pool job" `Quick
      test_run_matches_pool;
    Alcotest.test_case "run: the deadline bounds the whole sweep" `Quick
      test_run_deadline_bounds_sweep;
    Alcotest.test_case "deadline exit path (6)" `Quick test_deadline_exit;
    Alcotest.test_case "cancel exit paths" `Quick test_cancel_paths;
    Alcotest.test_case "crash mid-job salvaged to the fault-free result"
      `Quick test_crash_mid_job_salvage;
    Alcotest.test_case "daemon --once drains a spool" `Quick
      test_daemon_once_drains_spool;
  ]
