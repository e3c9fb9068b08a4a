open Anonmem

(* Flatgraph is the protocol-agnostic shape every generic checker consumes;
   to_flat must mirror the explored graph exactly. *)

module E = Check.Explore.Make (Test_runtime.Toy)

let toy_graph () =
  E.explore (E.config ~ids:[ 5; 9 ] ~inputs:[ (); () ] ())

let test_of_status () =
  let check name expect status =
    Alcotest.(check string) name expect
      (Format.asprintf "%a" Check.Flatgraph.pp_status
         (Check.Flatgraph.of_status status))
  in
  check "remainder" "remainder" Protocol.Remainder;
  check "trying" "trying" Protocol.Trying;
  check "critical" "critical" Protocol.Critical;
  check "exiting" "exiting" Protocol.Exiting;
  check "decided" "decided" (Protocol.Decided 42)

let test_to_flat_mirrors_graph () =
  let g = toy_graph () in
  let flat = E.to_flat g in
  Alcotest.(check int) "n_procs" 2 flat.Check.Flatgraph.n_procs;
  Alcotest.(check int) "state count"
    (Array.length g.E.states)
    (Check.Flatgraph.n_states flat);
  Alcotest.(check int) "transition count"
    (Array.fold_left (fun a ts -> a + List.length ts) 0 g.E.succs)
    (Check.Flatgraph.n_transitions flat);
  Alcotest.(check bool) "complete flag carried" g.E.complete
    flat.Check.Flatgraph.complete;
  Array.iteri
    (fun i st ->
      let want = Array.map Check.Flatgraph.of_status (E.statuses st) in
      let got = Array.init 2 (Check.Flatgraph.status flat i) in
      Alcotest.(check bool)
        (Printf.sprintf "statuses of state %d" i)
        true (want = got))
    g.E.states;
  Array.iteri
    (fun i trans ->
      let want =
        List.map
          (fun { E.dst; label = { E.proc; enters_cs } } ->
            { Check.Flatgraph.dst; proc; enters_cs })
          trans
      in
      let got = ref [] in
      Check.Flatgraph.iter_succs flat i (fun dst proc enters_cs ->
          got := { Check.Flatgraph.dst; proc; enters_cs } :: !got);
      Alcotest.(check bool)
        (Printf.sprintf "succs of state %d, in edge order" i)
        true
        (want = List.rev !got))
    g.E.succs

let test_truncated_flag () =
  let g = E.explore ~max_states:2 (E.config ~ids:[ 5; 9 ] ~inputs:[ (); () ] ())
  in
  Alcotest.(check bool) "graph truncated" false g.E.complete;
  Alcotest.(check bool) "flat truncated" false (E.to_flat g).Check.Flatgraph.complete

let test_every_edge_in_range () =
  let flat = E.to_flat (toy_graph ()) in
  let n = Check.Flatgraph.n_states flat in
  for v = 0 to n - 1 do
    Check.Flatgraph.iter_succs flat v (fun dst proc _ ->
        Alcotest.(check bool) "dst in range" true (dst >= 0 && dst < n);
        Alcotest.(check bool) "proc in range" true (proc >= 0 && proc < 2))
  done

let suite =
  [
    Alcotest.test_case "of_status mapping" `Quick test_of_status;
    Alcotest.test_case "to_flat mirrors the graph" `Quick
      test_to_flat_mirrors_graph;
    Alcotest.test_case "truncation carried to flat" `Quick test_truncated_flag;
    Alcotest.test_case "edges well-formed" `Quick test_every_edge_in_range;
  ]
