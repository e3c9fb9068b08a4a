(** Protocol-agnostic view of a reachable-state graph: just statuses and
    labeled edges. The generic property checkers (mutual exclusion,
    deadlock freedom, agreement shapes) work on this, so they are shared by
    every protocol without functor plumbing.

    The layout is compressed sparse row (CSR): one status byte per
    (state, process), and the successors of state [v] are the edges
    [off.(v) .. off.(v + 1) - 1] of the flat [dst] / [label] arrays, in the
    explorer's transition order. That is about 38 B/state on the Fig 1
    graphs, and the checkers walk it without allocating per state or per
    edge. *)

open Anonmem

(** Status of one process in one state, without the output payload. *)
type proc_status = Rem | Try | Crit | Exit | Done

type trans = { dst : int; proc : int; enters_cs : bool }
(** One edge, as {!of_lists} takes it. *)

type t = {
  n_procs : int;
  status_codes : Bytes.t;
      (** [n_states × n_procs] bytes, row-major: the {!code} of process
          [p] in state [v] is byte [v * n_procs + p] *)
  off : int array;  (** [n_states + 1] edge offsets *)
  dst : int array;  (** [dst.(e)]: target state of edge [e] *)
  label : Bytes.t;  (** byte [e]: {!label_code} of edge [e] *)
  complete : bool;
}

val max_procs : int
(** Labels pack the stepping process in 7 bits: at most 128 processes. *)

val code : proc_status -> int
(** [Rem] 0, [Try] 1, [Crit] 2, [Exit] 3, [Done] 4. *)

val n_states : t -> int

val n_transitions : t -> int

val status : t -> int -> int -> proc_status
(** [status g v p]: process [p]'s status in state [v]. *)

val status_code : t -> int -> int -> int
(** [status_code g v p] is [code (status g v p)], read without decoding. *)

val label_code : proc:int -> enters_cs:bool -> int
(** The label byte of an edge. *)

val edge_label : t -> int -> int
(** Label byte of edge [e]. *)

val edge_proc : t -> int -> int
(** Stepping process of edge [e]. *)

val edge_enters_cs : t -> int -> bool
(** Whether edge [e] enters the critical section. *)

val iter_succs : t -> int -> (int -> int -> bool -> unit) -> unit
(** [iter_succs g v f] calls [f dst proc enters_cs] on each edge out of
    [v], in order. Allocates nothing per edge. *)

val of_lists :
  n_procs:int ->
  ?complete:bool ->
  proc_status array array ->
  trans list array ->
  t
(** [of_lists ~n_procs statuses succs] packs a hand-built graph:
    [statuses.(v).(p)] and the edges out of [v] in list order. [complete]
    defaults to [true]. Raises [Invalid_argument] on a ragged status row,
    an out-of-range process or target, or more than {!max_procs}
    processes. *)

val of_status : 'o Protocol.status -> proc_status

val pp_status : Format.formatter -> proc_status -> unit
