(** Strongly connected components (iterative Tarjan) of a {!Flatgraph.t}
    CSR graph, for the fair-cycle analysis behind the deadlock-freedom
    verdicts. *)

type t = {
  count : int;  (** number of components *)
  component : int array;
      (** [component.(v)] is the component id of [v], or [-1] when the
          vertex filter excludes [v] *)
}

type workspace
(** Int-array stacks and per-vertex edge cursors for one graph size,
    reusable across calls so repeated searches allocate nothing per
    vertex. *)

val workspace : int -> workspace
(** [workspace n] serves graphs of exactly [n] states. *)

val compute :
  ?ws:workspace ->
  ?vertex_ok:(int -> bool) ->
  ?edge_ok:(int -> bool) ->
  Flatgraph.t ->
  t
(** Components of the subgraph induced by the [vertex_ok] states (default
    all) and the [edge_ok] edges (edge indices into [dst]/[label], default
    all). Iterative, so graphs with millions of states do not blow the
    OCaml stack. Roots are tried in vertex order and edges in CSR order;
    components are numbered as Tarjan completes them, i.e. sinks first: an
    edge [u -> v] across components has [component.(u) > component.(v)].
    With [ws], the result's [component] array belongs to the workspace and
    is overwritten by the next call on it. *)

val components : t -> int list array
(** Member vertices of each component, each list in descending vertex
    order. Excluded vertices appear in none. *)
