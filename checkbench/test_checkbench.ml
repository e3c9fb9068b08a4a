(* Tests of the benchmark itself: seeded inputs, the oracles, the traced
   run's spans, and the comparator. *)

open Checkbench

let inputs_deterministic () =
  List.iter
    (fun w ->
      Alcotest.(check string)
        (Inputs.workload_name w ^ " inputs repeat")
        (Inputs.describe ~seed:7 w) (Inputs.describe ~seed:7 w))
    Inputs.workloads;
  let a = Inputs.instance ~seed:1 () and b = Inputs.instance ~seed:2 () in
  Alcotest.(check bool) "seeds 1 and 2 draw different naming tuples" true
    (a.Inputs.namings <> b.Inputs.namings);
  Alcotest.(check bool) "job-mix order depends on the seed" true
    (Inputs.describe ~seed:1 Inputs.Job_mix <> Inputs.describe ~seed:2 Inputs.Job_mix)

let small = Inputs.instance ~n:2 ~m:3 ~seed:1 ()

let planted_counts_caught () =
  let oracle = Workloads.oracle ~workload:Inputs.Big_graph ~domains:1 small in
  let v = Option.get oracle.Oracle.verdicts in
  let stats = oracle.Oracle.stats in
  Alcotest.(check (list string)) "true oracle passes" []
    (Oracle.check_big_graph ~expected:v ~observed:v ~stats);
  let planted = { v with Oracle.states = v.Oracle.states + 1 } in
  Alcotest.(check bool) "planted state count caught" true
    (Oracle.check_big_graph ~expected:planted ~observed:v ~stats <> []);
  let planted = { v with Oracle.deadlock_freedom = not v.Oracle.deadlock_freedom } in
  Alcotest.(check bool) "planted verdict caught" true
    (Oracle.check_big_graph ~expected:planted ~observed:v ~stats <> []);
  let bad_accounting = { stats with Check.Checker_stats.dedup_hits = stats.dedup_hits + 1 } in
  Alcotest.(check bool) "candidates <> states + dedup_hits caught" true
    (Oracle.check_big_graph ~expected:v ~observed:v ~stats:bad_accounting <> []);
  let planted = { stats with Check.Checker_stats.n_states = stats.n_states + 1 } in
  Alcotest.(check bool) "planted external stats caught" true
    (Oracle.check_bounded ~expected:planted ~observed:{ stats with spilled_runs = 1 } <> [])

let planted_job_verdict_caught () =
  let jobs = Inputs.job_mix ~seed:3 in
  let done_ ?(detail = "cfg 1/1 (7 states): ok") (j : Inputs.job) =
    Oracle.Done { verdict = j.expect; detail; states = 7 }
  in
  let good = Array.of_list (List.map (fun j -> done_ j) jobs) in
  Alcotest.(check int) "expected verdicts pass" 0 (List.length (Oracle.check_jobs jobs good));
  let wrong = Array.copy good in
  wrong.(0) <- Oracle.Done { verdict = "violation-planted"; detail = ""; states = 7 };
  Alcotest.(check bool) "wrong verdict caught" true (Oracle.check_jobs jobs wrong <> []);
  let k, _ =
    List.find (fun (_, (j : Inputs.job)) -> j.original <> None) (List.mapi (fun i j -> (i, j)) jobs)
  in
  let stale = Array.copy good in
  stale.(k) <- done_ ~detail:"cfg 1/1 (8 states): ok [cached]" (List.nth jobs k);
  Alcotest.(check bool) "cache answer differing from its original caught" true
    (Oracle.check_jobs jobs stale <> [])

let spans_nest () =
  let work = Filename.temp_dir "checkbench" "" in
  let tr = Span.create ~rep:0 in
  let run =
    Workloads.prepare ~tracer:tr ~instance:small ~workload:Inputs.Big_graph ~seed:1
      ~domains:1 ~work ()
  in
  let obs = run () in
  let metrics, problems = Layers.traced_metrics tr ~work ~obs ~t_work:1. in
  Alcotest.(check (list string)) "no cross-check failed" [] problems;
  Alcotest.(check bool) "spans nest" true (Span.well_nested tr);
  List.iter
    (fun s ->
      Alcotest.(check bool) (s.Span.name ^ " self time >= 0") true (Span.self_time tr s >= 0.))
    (Span.spans tr);
  Alcotest.(check bool) "property checks are children of no span" true
    (List.for_all (fun s -> s.Span.parent = -1) (Span.named tr "to_flat"));
  Alcotest.(check (list string)) "every layer metric reported" Layers.layer_names
    (List.map fst metrics);
  Alcotest.(check bool) "explore.self_s is non-negative" true
    (List.assoc "explore.self_s" metrics >= 0.);
  Harness.rm_rf work

let comparator () =
  let base = [ 10.; 10.1; 9.9; 10.; 10.05; 9.95 ] in
  let scale k = List.map (fun x -> x *. k) base in
  let judge = Compare.judge ~lower_is_better:true ~bound:0.1 in
  let tag = Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (Compare.verdict_tag v)) ( = ) in
  Alcotest.check tag "20% faster" Compare.Better (judge base (scale 0.8));
  Alcotest.check tag "20% slower" Compare.Worse (judge base (scale 1.2));
  Alcotest.check tag "within the bound" Compare.Unresolved (judge base (scale 1.03));
  let noisy = [ 6.; 14.; 9.; 12.; 8.; 11. ] in
  Alcotest.check tag "spread wider than the bound" Compare.Unresolved (judge noisy (List.map (fun x -> x *. 0.85) noisy));
  Alcotest.check tag "wide spread but every run faster" Compare.Better
    (judge noisy (List.map (fun x -> x /. 3.) noisy));
  Alcotest.check tag "higher is better" Compare.Better
    (Compare.judge ~lower_is_better:false ~bound:0.1 base (scale 1.2))

let quartiles_match_python () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q3 = Stats.quartiles (List.init 10 (fun i -> float (i + 1))) in
  Alcotest.(check (float 1e-12)) "q1" 2.75 q1;
  Alcotest.(check (float 1e-12)) "q3" 8.25 q3

let json_round_trip () =
  let j =
    Json.Obj [ ("a", Json.Num 0.1); ("b", Json.Str "x\"y\n"); ("c", Json.Arr [ Json.Bool true; Json.Null ]) ]
  in
  Alcotest.(check bool) "parse (print j) = j" true (Json.of_string (Json.to_string j) = j)

let () =
  Alcotest.run "checkbench"
    [
      ( "checkbench",
        [
          Alcotest.test_case "same seed, same inputs" `Quick inputs_deterministic;
          Alcotest.test_case "planted oracle counts are caught" `Quick planted_counts_caught;
          Alcotest.test_case "planted job verdicts are caught" `Quick planted_job_verdict_caught;
          Alcotest.test_case "traced run: spans nest, self times >= 0" `Quick spans_nest;
          Alcotest.test_case "comparator verdicts" `Quick comparator;
          Alcotest.test_case "quartiles match Python" `Quick quartiles_match_python;
          Alcotest.test_case "json round trip" `Quick json_round_trip;
        ] );
    ]
