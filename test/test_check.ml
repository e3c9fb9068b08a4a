open Anonmem
open Check

(* Scc and Dot have their own suites now (test_scc.ml, test_dot.ml). *)

(* --- Mutex_props on hand-built flat graphs --- *)

let flat ~n_procs ~statuses ~edges =
  let n = Array.length statuses in
  let succs = Array.make n [] in
  List.iter
    (fun (src, t) -> succs.(src) <- t :: succs.(src))
    edges;
  Check.Flatgraph.of_lists ~n_procs statuses succs

let tr dst proc enters_cs = { Check.Flatgraph.dst; proc; enters_cs }

let test_me_detects () =
  let g =
    flat ~n_procs:2
      ~statuses:[| [| Flatgraph.Try; Try |]; [| Crit; Crit |] |]
      ~edges:[ (0, tr 1 0 true) ]
  in
  match Check.Mutex_props.mutual_exclusion g with
  | Some v -> Alcotest.(check int) "violating state" 1 v.state
  | None -> Alcotest.fail "should detect double critical"

let test_me_ok () =
  let g =
    flat ~n_procs:2
      ~statuses:[| [| Flatgraph.Crit; Try |]; [| Rem; Crit |] |]
      ~edges:[]
  in
  Alcotest.(check bool) "no violation" true
    (Check.Mutex_props.mutual_exclusion g = None)

let test_df_detects_fair_cycle () =
  (* Two states, both processes trying, both stepping, no CS entry. *)
  let g =
    flat ~n_procs:2
      ~statuses:[| [| Flatgraph.Try; Try |]; [| Try; Try |] |]
      ~edges:[ (0, tr 1 0 false); (1, tr 0 1 false) ]
  in
  match Check.Mutex_props.deadlock_freedom g with
  | Some v ->
    Alcotest.(check (list int)) "both trying forever" [ 0; 1 ] v.trying
  | None -> Alcotest.fail "should detect livelock"

let test_df_ignores_unfair_cycle () =
  (* Process 1 is trying inside the cycle but never steps in it: the cycle
     starves process 1, which is an illegal run, not a deadlock. *)
  let g =
    flat ~n_procs:2
      ~statuses:[| [| Flatgraph.Try; Try |]; [| Try; Try |] |]
      ~edges:[ (0, tr 1 0 false); (1, tr 0 0 false) ]
  in
  Alcotest.(check bool) "unfair cycle not reported" true
    (Check.Mutex_props.deadlock_freedom g = None)

let test_df_ignores_progress_cycle () =
  (* A cycle that keeps entering the critical section is progress. *)
  let g =
    flat ~n_procs:1
      ~statuses:[| [| Flatgraph.Try |]; [| Crit |] |]
      ~edges:[ (0, tr 1 0 true); (1, tr 0 0 false) ]
  in
  Alcotest.(check bool) "progress cycle ok" true
    (Check.Mutex_props.deadlock_freedom g = None)

let test_df_ignores_remainder_cycle () =
  (* Everyone idles in the remainder: nobody is trying, no obligation. *)
  let g =
    flat ~n_procs:1
      ~statuses:[| [| Flatgraph.Rem |] |]
      ~edges:[ (0, tr 0 0 false) ]
  in
  Alcotest.(check bool) "remainder churn ok" true
    (Check.Mutex_props.deadlock_freedom g = None)

let test_df_refinement () =
  (* An SCC that is only bad because of a state where a third party is
     active but never steps; refinement removes it and finds the real
     subcycle 1<->2. *)
  let g =
    flat ~n_procs:2
      ~statuses:
        [|
          [| Flatgraph.Try; Try |] (* p1 active here but steps nowhere *);
          [| Try; Rem |];
          [| Try; Rem |];
        |]
      ~edges:
        [
          (0, tr 1 0 false);
          (1, tr 2 0 false);
          (2, tr 1 0 false);
          (2, tr 0 0 false);
        ]
  in
  match Check.Mutex_props.deadlock_freedom g with
  | Some v ->
    Alcotest.(check (list int)) "only p0 starves" [ 0 ] v.trying;
    Alcotest.(check bool) "cycle excludes state 0" true
      (not (List.mem 0 v.states))
  | None -> Alcotest.fail "refined cycle should be found"

(* --- Explore on the toy protocol --- *)

module Toy = Test_runtime.Toy
module E = Check.Explore.Make (Toy)

let test_explore_toy () =
  let cfg = E.config ~ids:[ 5; 9 ] ~inputs:[ (); () ] () in
  let g = E.explore cfg in
  Alcotest.(check bool) "complete" true g.complete;
  (* toy: each process has 4 local states; interleavings are bounded *)
  Alcotest.(check bool) "small but nontrivial" true
    (Array.length g.states > 10 && Array.length g.states < 200);
  (* initial state is state 0 with both in remainder *)
  let sts = E.statuses g.states.(0) in
  Alcotest.(check bool) "initial remainder" true
    (Array.for_all (fun s -> s = Protocol.Remainder) sts)

let test_explore_budget () =
  let cfg = E.config ~ids:[ 5; 9 ] ~inputs:[ (); () ] () in
  let g = E.explore ~max_states:5 cfg in
  Alcotest.(check bool) "truncated" true (not g.complete);
  Alcotest.(check int) "capped" 5 (Array.length g.states)

let test_explore_decisions () =
  (* in every terminal state both toys decided on some id *)
  let cfg = E.config ~ids:[ 5; 9 ] ~inputs:[ (); () ] () in
  let g = E.explore cfg in
  Array.iteri
    (fun sid st ->
      if g.succs.(sid) = [] then
        Array.iter
          (fun s ->
            match s with
            | Protocol.Decided v ->
              Alcotest.(check bool) "decided an id" true (v = 5 || v = 9)
            | _ -> Alcotest.fail "terminal state must be decided")
          (E.statuses st))
    g.states

let test_solo_run_toy () =
  let cfg = E.config ~ids:[ 5; 9 ] ~inputs:[ (); () ] () in
  match E.solo_run cfg (E.initial cfg) ~proc:1 ~max_steps:10 with
  | `Decided v -> Alcotest.(check int) "solo toy decides own id" 9 v
  | _ -> Alcotest.fail "toy must decide solo"

let test_of_check_toy () =
  let cfg = E.config ~ids:[ 5; 9 ] ~inputs:[ (); () ] () in
  let g = E.explore cfg in
  Alcotest.(check bool) "toy is obstruction-free" true
    (E.check_obstruction_freedom g = None)

let suite =
  [
    Alcotest.test_case "mutex: detects double critical" `Quick test_me_detects;
    Alcotest.test_case "mutex: accepts exclusive" `Quick test_me_ok;
    Alcotest.test_case "df: detects fair livelock" `Quick
      test_df_detects_fair_cycle;
    Alcotest.test_case "df: ignores unfair cycle" `Quick
      test_df_ignores_unfair_cycle;
    Alcotest.test_case "df: ignores progress cycle" `Quick
      test_df_ignores_progress_cycle;
    Alcotest.test_case "df: ignores remainder churn" `Quick
      test_df_ignores_remainder_cycle;
    Alcotest.test_case "df: fairness refinement" `Quick test_df_refinement;
    Alcotest.test_case "explore: toy graph" `Quick test_explore_toy;
    Alcotest.test_case "explore: budget truncation" `Quick test_explore_budget;
    Alcotest.test_case "explore: terminal decisions" `Quick
      test_explore_decisions;
    Alcotest.test_case "explore: solo run" `Quick test_solo_run_toy;
    Alcotest.test_case "explore: obstruction freedom" `Quick test_of_check_toy;
  ]

(* --- Hunt: randomized violation search --- *)

module HuntWin = Check.Hunt.Make (Test_wrap.Fig1_3)
module HuntFig1 = Check.Hunt.Make (Coord.Amutex.P)

let test_hunt_finds_window_violation () =
  (* misaligned ignore-windows (E15) break mutual exclusion in a way random
     schedules expose quickly *)
  let o, trace =
    HuntWin.hunt ~violation:HuntWin.mutex_violation ~ids:[ 7; 13 ]
      ~inputs:[ (); () ] ~m:5 ()
  in
  Alcotest.(check bool) "witness found" true (o.Check.Hunt.witness_seed <> None);
  match trace with
  | Some t ->
    Alcotest.(check bool) "trace ends with both critical" true
      (List.exists Trace.enters_critical t)
  | None -> Alcotest.fail "expected a witness trace"

let test_hunt_clean_on_verified_instance () =
  let o, trace =
    HuntFig1.hunt ~attempts:150 ~violation:HuntFig1.mutex_violation
      ~ids:[ 7; 13 ] ~inputs:[ (); () ] ~m:3 ()
  in
  Alcotest.(check bool) "no witness on the verified instance" true
    (o.Check.Hunt.witness_seed = None && trace = None);
  Alcotest.(check int) "all attempts used" 150 o.Check.Hunt.attempts_made

let test_hunt_deterministic () =
  let run () =
    fst
      (HuntWin.hunt ~violation:HuntWin.mutex_violation ~ids:[ 7; 13 ]
         ~inputs:[ (); () ] ~m:5 ())
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same witness seed both times" true
    (a.Check.Hunt.witness_seed = b.Check.Hunt.witness_seed)

let hunt_suite =
  [
    Alcotest.test_case "hunt finds window ME violation" `Quick
      test_hunt_finds_window_violation;
    Alcotest.test_case "hunt clean on verified instance" `Quick
      test_hunt_clean_on_verified_instance;
    Alcotest.test_case "hunt is deterministic" `Quick test_hunt_deterministic;
  ]

let suite = suite @ hunt_suite

(* hunt's disagreement predicate, on consensus misused with one register *)
module HuntCons = Check.Hunt.Make (Test_wrap.Pinned)

let test_hunt_disagreement () =
  (* Fix_n(2) consensus given m=1 register and 3 processes: covering-free
     disagreement is actually reachable by plain schedules here *)
  let o, _ =
    HuntCons.hunt ~attempts:500
      ~violation:(HuntCons.disagreement ~equal:Int.equal)
      ~ids:[ 5; 9; 13 ] ~inputs:[ 100; 200; 300 ] ~m:1 ()
  in
  Alcotest.(check bool) "disagreement witness found" true
    (o.Check.Hunt.witness_seed <> None)

let suite =
  suite
  @ [
      Alcotest.test_case "hunt finds consensus disagreement" `Quick
        test_hunt_disagreement;
    ]
