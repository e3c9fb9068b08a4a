open Check

(* DOT well-formedness: the export of a real explored graph and of
   hand-built corner cases must parse as a digraph — balanced braces, every
   edge between declared nodes, elision under budget. *)

let contains hay needle =
  let nl = String.length needle and sl = String.length hay in
  let rec go i = i + nl <= sl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let render ?max_nodes ?highlight flat =
  Format.asprintf "%a"
    (fun ppf () -> Dot.of_flat ?max_nodes ?highlight flat ppf ())
    ()

let lines s = String.split_on_char '\n' s

let toy_flat () =
  let module E = Check.Explore.Make (Test_runtime.Toy) in
  let cfg = E.config ~ids:[ 5; 9 ] ~inputs:[ (); () ] () in
  E.to_flat (E.explore cfg)

let test_export_shape () =
  let flat = toy_flat () in
  let s = render flat in
  Alcotest.(check bool) "starts a digraph" true
    (String.length s > 20 && String.sub s 0 14 = "digraph states");
  Alcotest.(check bool) "has edges" true (contains s " -> ");
  (* elision kicks in when the budget is small *)
  let s' = render ~max_nodes:3 flat in
  Alcotest.(check bool) "elides beyond budget" true (contains s' "elided")

let test_braces_balanced () =
  let flat = toy_flat () in
  List.iter
    (fun s ->
      let count c =
        String.fold_left (fun acc ch -> if ch = c then acc + 1 else acc) 0 s
      in
      Alcotest.(check bool) "one open brace ends in one close brace" true
        (count '{' = 1 && count '}' = 1);
      Alcotest.(check bool) "closes at the end" true
        (String.length (String.trim s) > 0
        && (String.trim s).[String.length (String.trim s) - 1] = '}'))
    [ render flat; render ~max_nodes:2 flat ]

let test_edges_reference_declared_nodes () =
  let flat = toy_flat () in
  let s = render flat in
  let declared = Hashtbl.create 64 in
  List.iter
    (fun line ->
      let line = String.trim line in
      if String.length line > 1 && line.[0] = 's' && not (contains line "->")
      then
        match String.index_opt line ' ' with
        | Some i -> Hashtbl.replace declared (String.sub line 0 i) ()
        | None -> ())
    (lines s);
  Alcotest.(check bool) "some nodes declared" true (Hashtbl.length declared > 1);
  List.iter
    (fun line ->
      let line = String.trim line in
      if contains line " -> " then begin
        match String.split_on_char ' ' line with
        | src :: "->" :: dst :: _ ->
          Alcotest.(check bool) ("src declared: " ^ src) true
            (Hashtbl.mem declared src);
          Alcotest.(check bool) ("dst declared: " ^ dst) true
            (Hashtbl.mem declared dst)
        | _ -> Alcotest.fail ("unparsable edge line: " ^ line)
      end)
    (lines s)

let test_double_critical_is_red () =
  let flat =
    Flatgraph.of_lists ~n_procs:2 [| [| Flatgraph.Crit; Crit |] |] [| [] |]
  in
  Alcotest.(check bool) "two-critical state filled red" true
    (contains (render flat) "fillcolor=red")

let test_highlight () =
  let flat =
    Flatgraph.of_lists ~n_procs:1
      [| [| Flatgraph.Try |]; [| Try |] |]
      [| [ { Flatgraph.dst = 1; proc = 0; enters_cs = false } ]; [] |]
  in
  let s = render ~highlight:[ 1 ] flat in
  Alcotest.(check bool) "highlighted state is orange" true
    (contains s "fillcolor=orange");
  let s' = render flat in
  Alcotest.(check bool) "no highlight, no orange" false
    (contains s' "fillcolor=orange")

let test_cs_entry_edge_is_bold () =
  let flat =
    Flatgraph.of_lists ~n_procs:1
      [| [| Flatgraph.Try |]; [| Crit |] |]
      [| [ { Flatgraph.dst = 1; proc = 0; enters_cs = true } ]; [] |]
  in
  Alcotest.(check bool) "CS-entry edge is penwidth=2" true
    (contains (render flat) "penwidth=2")

(* The toy graph's export, pinned byte for byte: plain, elided at three
   nodes, and with states 0 and 2 highlighted. *)
let pinned_plain =
  {|digraph states {
  rankdir=LR; node [shape=box, fontname=monospace];
  s0 [label="0:RR"];
  s1 [label="1:TR"];
  s2 [label="2:RT"];
  s3 [label="3:TR"];
  s4 [label="4:TT"];
  s5 [label="5:RT"];
  s6 [label="6:DR"];
  s7 [label="7:TT"];
  s8 [label="8:TT"];
  s9 [label="9:RD"];
  s10 [label="10:DT"];
  s11 [label="11:TT"];
  s12 [label="12:TT"];
  s13 [label="13:TD"];
  s14 [label="14:DT"];
  s15 [label="15:DT"];
  s16 [label="16:TD"];
  s17 [label="17:DT"];
  s18 [label="18:TD"];
  s19 [label="19:TD"];
  s20 [label="20:DD"];
  s21 [label="21:DD"];
  s22 [label="22:DD"];
  s23 [label="23:DD"];
  s0 -> s1 [label="p0"];
  s0 -> s2 [label="p1"];
  s1 -> s3 [label="p0"];
  s1 -> s4 [label="p1"];
  s2 -> s4 [label="p0"];
  s2 -> s5 [label="p1"];
  s3 -> s6 [label="p0"];
  s3 -> s7 [label="p1"];
  s4 -> s7 [label="p0"];
  s4 -> s8 [label="p1"];
  s5 -> s8 [label="p0"];
  s5 -> s9 [label="p1"];
  s6 -> s10 [label="p1"];
  s7 -> s10 [label="p0"];
  s7 -> s11 [label="p1"];
  s8 -> s12 [label="p0"];
  s8 -> s13 [label="p1"];
  s9 -> s13 [label="p0"];
  s10 -> s14 [label="p1"];
  s11 -> s15 [label="p0"];
  s11 -> s16 [label="p1"];
  s12 -> s17 [label="p0"];
  s12 -> s18 [label="p1"];
  s13 -> s19 [label="p0"];
  s14 -> s20 [label="p1"];
  s15 -> s21 [label="p1"];
  s16 -> s21 [label="p0"];
  s17 -> s22 [label="p1"];
  s18 -> s22 [label="p0"];
  s19 -> s23 [label="p0"];
}
|}

let pinned_elided =
  {|digraph states {
  rankdir=LR; node [shape=box, fontname=monospace];
  s0 [label="0:RR"];
  s1 [label="1:TR"];
  s2 [label="2:RT"];
  s0 -> s1 [label="p0"];
  s0 -> s2 [label="p1"];
  elided [shape=plaintext, label="(21 more states elided)"];
}
|}

let pinned_highlighted =
  {|digraph states {
  rankdir=LR; node [shape=box, fontname=monospace];
  s0 [label="0:RR" style=filled fillcolor=orange];
  s1 [label="1:TR"];
  s2 [label="2:RT" style=filled fillcolor=orange];
  s3 [label="3:TR"];
  s4 [label="4:TT"];
  s5 [label="5:RT"];
  s6 [label="6:DR"];
  s7 [label="7:TT"];
  s8 [label="8:TT"];
  s9 [label="9:RD"];
  s10 [label="10:DT"];
  s11 [label="11:TT"];
  s12 [label="12:TT"];
  s13 [label="13:TD"];
  s14 [label="14:DT"];
  s15 [label="15:DT"];
  s16 [label="16:TD"];
  s17 [label="17:DT"];
  s18 [label="18:TD"];
  s19 [label="19:TD"];
  s20 [label="20:DD"];
  s21 [label="21:DD"];
  s22 [label="22:DD"];
  s23 [label="23:DD"];
  s0 -> s1 [label="p0"];
  s0 -> s2 [label="p1"];
  s1 -> s3 [label="p0"];
  s1 -> s4 [label="p1"];
  s2 -> s4 [label="p0"];
  s2 -> s5 [label="p1"];
  s3 -> s6 [label="p0"];
  s3 -> s7 [label="p1"];
  s4 -> s7 [label="p0"];
  s4 -> s8 [label="p1"];
  s5 -> s8 [label="p0"];
  s5 -> s9 [label="p1"];
  s6 -> s10 [label="p1"];
  s7 -> s10 [label="p0"];
  s7 -> s11 [label="p1"];
  s8 -> s12 [label="p0"];
  s8 -> s13 [label="p1"];
  s9 -> s13 [label="p0"];
  s10 -> s14 [label="p1"];
  s11 -> s15 [label="p0"];
  s11 -> s16 [label="p1"];
  s12 -> s17 [label="p0"];
  s12 -> s18 [label="p1"];
  s13 -> s19 [label="p0"];
  s14 -> s20 [label="p1"];
  s15 -> s21 [label="p1"];
  s16 -> s21 [label="p0"];
  s17 -> s22 [label="p1"];
  s18 -> s22 [label="p0"];
  s19 -> s23 [label="p0"];
}
|}

let test_pinned_output () =
  let flat = toy_flat () in
  Alcotest.(check string) "plain" pinned_plain (render flat);
  Alcotest.(check string) "max_nodes 3" pinned_elided (render ~max_nodes:3 flat);
  Alcotest.(check string) "highlight 0, 2" pinned_highlighted
    (render ~highlight:[ 0; 2 ] flat)

let suite =
  [
    Alcotest.test_case "export shape and elision" `Quick test_export_shape;
    Alcotest.test_case "braces balanced" `Quick test_braces_balanced;
    Alcotest.test_case "edges reference declared nodes" `Quick
      test_edges_reference_declared_nodes;
    Alcotest.test_case "double critical rendered red" `Quick
      test_double_critical_is_red;
    Alcotest.test_case "highlight list rendered orange" `Quick test_highlight;
    Alcotest.test_case "CS-entry edges bold" `Quick test_cs_entry_edge_is_bold;
    Alcotest.test_case "toy export pinned byte for byte" `Quick
      test_pinned_output;
  ]
