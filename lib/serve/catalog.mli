(** The per-protocol job definitions, each written once.

    For every protocol {!Spec.proto} names, this table holds what a job
    needs to know about it: the naming sweep and inputs of a check, the
    verdict set judged on each explored graph, the fuzz property suite
    with its input generator and known-good baseline twin, the input
    codec of witness bundles, and the violation a hunt looks for. The
    protocol's types are erased behind closures, so {!Runner}, the
    [coordctl] commands [check], [fuzz], [shrink] and [graph], and the
    daemon all run the same definitions. *)

open Anonmem

val ids_of : int -> int array
(** The process ids of an [n]-process instance: [18, 35, 52, ...]. *)

val namings_under_test : n:int -> m:int -> Naming.t array list
(** The naming sweep of a check: all [m!] relative namings for [n = 2,
    m <= 5] (process 0 keeps the identity), the rotation tuple
    otherwise. *)

(** How one configuration is explored. *)
type explore_args = {
  engine : Spec.engine;
  domains : int option;  (** [Par] only; default: recommended count *)
  max_states : int option;
  snapshot_every : int option;
  snapshot_to : string option;
  resume_from : string option;
  deadline_s : float option;
  salvage : bool;
  recover : bool;
      (** retry transient infrastructure failures from the newest
          snapshot ({!Check.Explore.Make.with_recovery}); needs
          [snapshot_to] *)
}

(** One configuration's exploration, judged on demand: the verdicts and
    the information-only columns are computed only when forced. *)
type explored = {
  complete : bool;
  stats : Check.Checker_stats.t;
  verdicts : (string * bool) list Lazy.t;
      (** the protocol's verdict set, [(property, holds)] *)
  info : (string * string) list Lazy.t;
      (** columns reported but never judged (mutex starvation-freedom) *)
}

(** One naming assignment of a check job. *)
type config = {
  namings : Naming.t array;
  fingerprint : (Digest.t * string) Lazy.t;
      (** {!Check.Explore.Make.fingerprint} under the spec's reduction *)
  ident : string Lazy.t;
      (** {!Check.Explore.Make.describe}: the cache identity *)
  explore : explore_args -> explored;
}

(** A replayable fuzz witness. *)
type bundle = {
  raw : Check.Shrink.raw;  (** the bundle in file form *)
  replay : unit -> bool * int * (Format.formatter -> unit);
      (** whether the violation reproduces, the trace length, and a
          printer for the trace *)
  shrink : ?max_rounds:int -> unit -> bundle * (Format.formatter -> unit);
      (** the minimized bundle and a printer for the shrink statistics;
          raises [Invalid_argument] if the bundle does not replay *)
}

(** A differential fuzz campaign's result ({!Check.Fuzz.Make.report}). *)
type fuzz_report = {
  attempts : int;
  agreed : int;
  violations : int;
  undecided : int;
  disagreement : string option;  (** where the engines first diverged *)
  pp_report : Format.formatter -> unit;
  witness : bundle option;  (** the first confirmed violation *)
}

type entry = {
  name : string;  (** the protocol module's [P.name] *)
  configs : Spec.t -> config list;
      (** the check sweep of [spec.n], [spec.m] and [spec.reduction] *)
  degraded : n:int -> string option;
      (** why [Canon] would fall back to the identity group at [n]
          processes, if it would *)
  graph : n:int -> m:int -> Check.Flatgraph.t;
      (** the reference explorer's graph of the rotation-naming instance *)
  fuzz :
    ?time_budget:float ->
    ?probes:int ->
    seed:int ->
    attempts:int ->
    max_states:int ->
    fixed:int option * int option ->
    unit ->
    fuzz_report;
      (** {!Check.Fuzz.Make.run} with the protocol's property suite,
          input generator and baseline twin; [fixed] pins n and/or m *)
  bundle : Check.Shrink.raw -> bundle option;
      (** decode a witness file; [None] when its property is not in the
          protocol's fuzz suite. Raises [Failure] on malformed inputs. *)
  hunt : attempts:int -> Spec.t -> Check.Hunt.outcome;
      (** {!Check.Hunt.Make.hunt} for the protocol's safety violation *)
}

val find : Spec.proto -> entry
