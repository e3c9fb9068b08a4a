open Anonmem

(* Tarjan on known graphs, plus a differential check against a naive
   reachability-based SCC on random digraphs. *)

(* A process-less CSR graph whose edges out of [v] are [succs v]. *)
let csr n succs =
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + List.length (succs v)
  done;
  let dst = Array.make off.(n) 0 in
  for v = 0 to n - 1 do
    List.iteri (fun i w -> dst.(off.(v) + i) <- w) (succs v)
  done;
  {
    Check.Flatgraph.n_procs = 0;
    status_codes = Bytes.empty;
    off;
    dst;
    label = Bytes.make off.(n) '\000';
    complete = true;
  }

let scc_of edges n =
  let succs = Array.make n [] in
  List.iter (fun (u, v) -> succs.(u) <- v :: succs.(u)) edges;
  Check.Scc.compute (csr n (fun v -> succs.(v)))

let test_cycle () =
  let scc = scc_of [ (0, 1); (1, 2); (2, 0) ] 3 in
  Alcotest.(check int) "one component" 1 scc.count

let test_chain () =
  let scc = scc_of [ (0, 1); (1, 2) ] 3 in
  Alcotest.(check int) "three singletons" 3 scc.count

let test_two_cycles () =
  let scc = scc_of [ (0, 1); (1, 0); (2, 3); (3, 2); (1, 2) ] 4 in
  Alcotest.(check int) "two components" 2 scc.count;
  Alcotest.(check bool) "0 and 1 together" true
    (scc.component.(0) = scc.component.(1));
  Alcotest.(check bool) "2 and 3 together" true
    (scc.component.(2) = scc.component.(3));
  Alcotest.(check bool) "0 and 2 apart" true
    (scc.component.(0) <> scc.component.(2));
  (* sinks are numbered first: edge across components goes high -> low *)
  Alcotest.(check bool) "topological numbering" true
    (scc.component.(0) > scc.component.(2))

let test_self_loop () =
  let scc = scc_of [ (0, 0) ] 2 in
  Alcotest.(check int) "two components" 2 scc.count

let test_components_listing () =
  let scc = scc_of [ (0, 1); (1, 0) ] 3 in
  let comps = Check.Scc.components scc in
  let sizes = Array.to_list comps |> List.map List.length |> List.sort compare in
  Alcotest.(check (list int)) "sizes" [ 1; 2 ] sizes

let test_large_path () =
  (* a long path must not blow the stack: 200k vertices *)
  let n = 200_000 in
  let scc =
    Check.Scc.compute (csr n (fun v -> if v + 1 < n then [ v + 1 ] else []))
  in
  Alcotest.(check int) "all singletons" n scc.count

let test_large_cycle () =
  (* one 10^6-vertex cycle: the DFS path is a million frames deep *)
  let n = 1_000_000 in
  let scc = Check.Scc.compute (csr n (fun v -> [ (v + 1) mod n ])) in
  Alcotest.(check int) "one component" 1 scc.count;
  Alcotest.(check bool) "every vertex in it" true
    (Array.for_all (fun c -> c = 0) scc.component)

let test_filters () =
  (* 0 -> 1 -> 2 -> 0 with a chord 1 -> 0: dropping vertex 2 leaves the
     0 <-> 1 cycle; dropping the chord's edge as well splits everything *)
  let g =
    csr 3 (fun v -> match v with 0 -> [ 1 ] | 1 -> [ 2; 0 ] | _ -> [ 0 ])
  in
  let no2 = Check.Scc.compute ~vertex_ok:(fun v -> v <> 2) g in
  Alcotest.(check int) "two vertices, one component" 1 no2.count;
  Alcotest.(check int) "excluded vertex has no component" (-1)
    no2.component.(2);
  let no_chord =
    Check.Scc.compute ~vertex_ok:(fun v -> v <> 2) ~edge_ok:(fun e -> e <> 2) g
  in
  Alcotest.(check int) "two singletons" 2 no_chord.count;
  let ws = Check.Scc.workspace 3 in
  let a = Check.Scc.compute ~ws g in
  Alcotest.(check int) "workspace run: whole cycle" 1 a.count;
  let b = Check.Scc.compute ~ws ~edge_ok:(fun e -> e <> 1) g in
  Alcotest.(check int) "reused workspace: fresh answer" 2 b.count;
  Alcotest.(check (list int)) "0 <-> 1 only via the chord" [ 0; 0; 1 ]
    (List.sort compare (Array.to_list b.component))

(* O(n^3) reference: v and w share a component iff each reaches the other. *)
let naive_same_component n succs =
  let reach = Array.make_matrix n n false in
  for v = 0 to n - 1 do
    reach.(v).(v) <- true;
    List.iter (fun w -> reach.(v).(w) <- true) (succs v)
  done;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if reach.(i).(k) && reach.(k).(j) then reach.(i).(j) <- true
      done
    done
  done;
  fun v w -> reach.(v).(w) && reach.(w).(v)

let test_random_differential () =
  let rng = Rng.create 2024 in
  for _trial = 1 to 50 do
    let n = 2 + Rng.int rng 14 in
    let n_edges = Rng.int rng (2 * n) in
    let succs = Array.make n [] in
    for _ = 1 to n_edges do
      let u = Rng.int rng n and v = Rng.int rng n in
      succs.(u) <- v :: succs.(u)
    done;
    let succs v = succs.(v) in
    let scc = Check.Scc.compute (csr n succs) in
    let same = naive_same_component n succs in
    for v = 0 to n - 1 do
      for w = 0 to n - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "partition agrees on (%d, %d)" v w)
          (same v w)
          (scc.component.(v) = scc.component.(w))
      done
    done;
    (* count must equal the number of distinct component ids, all in range *)
    let ids = List.sort_uniq compare (Array.to_list scc.component) in
    Alcotest.(check int) "count matches distinct ids" scc.count
      (List.length ids);
    List.iter
      (fun id ->
        Alcotest.(check bool) "id in range" true (id >= 0 && id < scc.count))
      ids
  done

let suite =
  [
    Alcotest.test_case "single cycle" `Quick test_cycle;
    Alcotest.test_case "chain" `Quick test_chain;
    Alcotest.test_case "two cycles" `Quick test_two_cycles;
    Alcotest.test_case "self loop" `Quick test_self_loop;
    Alcotest.test_case "components listing" `Quick test_components_listing;
    Alcotest.test_case "deep path (no stack overflow)" `Quick test_large_path;
    Alcotest.test_case "10^6-vertex cycle (no recursion)" `Quick
      test_large_cycle;
    Alcotest.test_case "vertex and edge filters, reused workspace" `Quick
      test_filters;
    Alcotest.test_case "random graphs vs naive reachability" `Quick
      test_random_differential;
  ]
