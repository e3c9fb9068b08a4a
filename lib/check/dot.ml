let status_letter = function
  | Flatgraph.Rem -> 'R'
  | Try -> 'T'
  | Crit -> 'C'
  | Exit -> 'E'
  | Done -> 'D'

let of_flat ?(max_nodes = 500) ?(highlight = []) (g : Flatgraph.t) ppf () =
  let n = min (Flatgraph.n_states g) max_nodes in
  let highlighted = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace highlighted v ()) highlight;
  Format.fprintf ppf "digraph states {@.";
  Format.fprintf ppf "  rankdir=LR; node [shape=box, fontname=monospace];@.";
  for v = 0 to n - 1 do
    let label =
      String.init g.n_procs (fun p -> status_letter (Flatgraph.status g v p))
    in
    let crit = ref 0 in
    for p = 0 to g.n_procs - 1 do
      if Flatgraph.status g v p = Crit then incr crit
    done;
    let color =
      if !crit >= 2 then " style=filled fillcolor=red"
      else if Hashtbl.mem highlighted v then " style=filled fillcolor=orange"
      else if !crit = 1 then " style=filled fillcolor=lightblue"
      else ""
    in
    Format.fprintf ppf "  s%d [label=\"%d:%s\"%s];@." v v label color
  done;
  for v = 0 to n - 1 do
    Flatgraph.iter_succs g v (fun dst proc enters_cs ->
        if dst < n then
          Format.fprintf ppf "  s%d -> s%d [label=\"p%d\"%s];@." v dst proc
            (if enters_cs then " penwidth=2 color=blue" else ""))
  done;
  if Flatgraph.n_states g > n then
    Format.fprintf ppf
      "  elided [shape=plaintext, label=\"(%d more states elided)\"];@."
      (Flatgraph.n_states g - n);
  Format.fprintf ppf "}@."
