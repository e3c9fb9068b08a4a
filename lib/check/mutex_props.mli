(** Verdicts for the two mutual-exclusion requirements (paper §3.1), plus
    starvation, over a fully explored state graph. The fair-cycle searches
    run on the {!Flatgraph} CSR arrays with one scratch set per call
    ({!starvation_freedom} shares it across processes), so they allocate
    nothing per state or edge besides the witness they return. A witness
    lists its component's states in descending order. *)

type me_violation = { state : int; procs : int * int }
(** A reachable state with two processes in their critical sections. *)

type df_violation = {
  states : int list;  (** a fair non-progress cycle's states *)
  trying : int list;  (** processes trying forever along it *)
}

val mutual_exclusion : Flatgraph.t -> me_violation option
(** [None] = no reachable state has two processes in the critical section.
    Meaningful only when the graph is complete. *)

val deadlock_freedom : Flatgraph.t -> df_violation option
(** Searches for a reachable fair cycle in which: no step enters a critical
    section, at least one process is trying throughout, every process that
    is active (trying / critical / exiting) somewhere on the cycle takes
    steps on it (processes never fail and always leave the critical
    section, so a run that stalls such a process is not a legal
    counterexample), and remainder processes may stall (participation is
    not required). Found by strong-fairness refinement over SCCs of the
    enter-free subgraph. [None] = deadlock-free. *)

val starves : Flatgraph.t -> int -> df_violation option
(** [starves g p]: a fair cycle along which [p] is trying throughout and
    never enters its critical section, while other processes may come and
    go through theirs — a starvation scenario for [p]. *)

val starvation_freedom : Flatgraph.t -> (int * df_violation) option
(** First process that can starve, if any. [None] = starvation-free.
    (Strictly stronger than deadlock-freedom; the paper's Figure 1 is
    deadlock-free but not starvation-free, Peterson is both.) *)
