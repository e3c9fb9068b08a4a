type t = { count : int; component : int array }

type workspace = {
  index : int array;  (** DFS number, -1 = unvisited *)
  lowlink : int array;
  cursor : int array;  (** next edge of the vertex to look at *)
  tarjan : int array;  (** Tarjan's stack of open components' vertices *)
  calls : int array;  (** the DFS path, replacing recursion *)
  comp : int array;
}

let workspace n =
  {
    index = Array.make n (-1);
    lowlink = Array.make n 0;
    cursor = Array.make n 0;
    tarjan = Array.make n 0;
    calls = Array.make n 0;
    comp = Array.make n (-1);
  }

let all _ = true

(* Iterative Tarjan. [calls] is the DFS path and [cursor.(v)] the next edge
   of [v] to follow, so the search is two int stacks; a vertex is on
   Tarjan's stack iff it is numbered but not yet assigned a component. *)
let compute ?ws ?(vertex_ok = all) ?(edge_ok = all) (g : Flatgraph.t) =
  let n = Flatgraph.n_states g in
  let ws =
    match ws with
    | Some ws when Array.length ws.index = n -> ws
    | Some _ -> invalid_arg "Scc.compute: workspace sized for another graph"
    | None -> workspace n
  in
  let { index; lowlink; cursor; tarjan; calls; comp } = ws in
  let off = g.off and dst = g.dst in
  Array.fill index 0 n (-1);
  Array.fill comp 0 n (-1);
  let next_index = ref 0 and tsp = ref 0 and csp = ref 0 in
  let count = ref 0 in
  let open_vertex v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    cursor.(v) <- off.(v);
    tarjan.(!tsp) <- v;
    incr tsp;
    calls.(!csp) <- v;
    incr csp
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 && vertex_ok root then begin
      open_vertex root;
      while !csp > 0 do
        let v = calls.(!csp - 1) in
        let e = cursor.(v) in
        if e < off.(v + 1) then begin
          cursor.(v) <- e + 1;
          let w = dst.(e) in
          if edge_ok e && vertex_ok w then
            if index.(w) < 0 then open_vertex w
            else if comp.(w) < 0 && index.(w) < lowlink.(v) then
              lowlink.(v) <- index.(w)
        end
        else begin
          decr csp;
          if lowlink.(v) = index.(v) then begin
            let c = !count in
            incr count;
            let w = ref (-1) in
            while !w <> v do
              decr tsp;
              w := tarjan.(!tsp);
              comp.(!w) <- c
            done
          end;
          if !csp > 0 then begin
            let p = calls.(!csp - 1) in
            if lowlink.(v) < lowlink.(p) then lowlink.(p) <- lowlink.(v)
          end
        end
      done
    end
  done;
  { count = !count; component = comp }

let components t =
  let buckets = Array.make t.count [] in
  Array.iteri
    (fun v c -> if c >= 0 then buckets.(c) <- v :: buckets.(c))
    t.component;
  buckets
