(** Job execution: one spec → one verdict, in preemptible slices.

    [coordctl check] runs this: it builds a {!Spec.t} from its flags and
    calls {!run}, so a served verdict and a CLI exit code come from the
    same loop over the same per-protocol definitions ({!Catalog}). A
    check job sweeps {!Catalog.namings_under_test} and judges each
    explored graph with the protocol's verdict set. In the daemon the
    job runs as a sequence of {e slices}: each slice explores at most
    [quantum] fresh states of the current configuration, then yields
    with a COORDSNAP snapshot on disk. Because a resumed exploration is
    bit-identical to an uninterrupted one (DESIGN.md §6), preemption is
    free — the final verdict and per-config stats (mod clock) cannot
    depend on where the scheduler cut.

    Fuzz and hunt jobs are not preemptible (their engines own their inner
    loop); they run in a single slice.

    Completed configurations are memoized in the shared {!Cache}; a
    cache-served configuration contributes its original stats and zero
    freshly explored states. *)

type verdict =
  | Pass
  | Violation
  | Truncated  (** a state budget truncated some exploration; prefix clean *)
  | Deadline  (** the job deadline expired; prefix clean *)
  | Disagreement  (** fuzz: engines diverged — a checker bug *)
  | Failed of string  (** infrastructure failure / unsupported combination *)

val verdict_exit : verdict -> int
(** The [coordctl] exit-code contract: 0 pass, 1 violation, 3 truncated,
    5 disagreement, 6 deadline, 7 failed. *)

val verdict_tag : verdict -> string

val render_verdicts : (string * bool) list -> string
(** ["mutual-exclusion ok, deadlock-freedom VIOLATED"]: a verdict set as
    a result detail and [coordctl check] line render it. *)

type outcome = {
  verdict : verdict;
  detail : string;  (** per-config verdict lines, [; ]-joined *)
  configs : int;  (** naming assignments in the sweep (1 for fuzz/hunt) *)
  cached_configs : int;  (** of which answered from the cache *)
  states : int;  (** total graph states across configs, cached included *)
  explored : int;  (** states freshly interned by {e this} execution *)
  stats : Check.Checker_stats.t list;  (** per config, in sweep order *)
}

type progress
(** Cursor of a partially-run check job: which configuration is current,
    how many of its states the snapshot covers, accumulated verdicts. *)

val start : progress
(** The cursor before any slice has run. *)

val progress_explored : progress -> int
(** Fresh states explored so far (for pool accounting across slices). *)

val after_crash : snapshot:string -> progress -> progress
(** Repair the cursor after a slice died mid-exploration: if the snapshot
    file survived, the next slice resumes (with salvage) from it;
    otherwise the current configuration restarts from scratch. Completed
    configurations are never lost — their verdicts live in the cursor. *)

type slice = Done of outcome | Yield of progress

val run_slice :
  ?cache:Cache.t ->
  ?quantum:int ->
  ?deadline_left_s:float ->
  ?salvage:bool ->
  snapshot:string ->
  Spec.t ->
  progress ->
  slice
(** Run one slice. [quantum] bounds fresh states explored per slice for
    check jobs (no bound: the job runs to completion in one slice).
    [deadline_left_s] is the remaining wall budget — it reaches the
    explorer's [~deadline_s], so an expired deadline still stops
    gracefully at a generation boundary with the snapshot flushed.
    Consecutive cache hits are folded into the same slice, so a job whose
    every configuration is cached completes in one slice with
    [explored = 0]. Transient infrastructure failures (armed
    {!Resilience} faults, OOM, corrupt snapshot) escape as exceptions —
    the {!Pool} owns the retry policy. *)

(** One freshly explored configuration of a check, as {!run} reports it. *)
type report = {
  namings : Anonmem.Naming.t array;
  complete : bool;
  stats : Check.Checker_stats.t;
  verdicts : (string * bool) list;  (** the protocol's verdict set *)
  info : (string * string) list;
      (** information-only columns (mutex starvation-freedom), computed
          only for a report consumer *)
}

val run :
  ?domains:int ->
  ?snapshot_every:int ->
  ?snapshot_dir:string ->
  ?resume:string ->
  ?salvage:bool ->
  ?recover:bool ->
  ?on_config:(report -> unit) ->
  Spec.t ->
  outcome
(** Run a check job to completion in this process, with no quantum and
    no cache ([spec.kind] is not consulted): the [coordctl check] entry
    point. The spec's deadline bounds the whole run; on a deadline stop
    the current configuration's snapshot is kept and the remaining
    configurations are not attempted. The optional arguments carry [coordctl check]'s flags and default to
    a served job's behaviour:
    - [domains] ([--domains]): worker domains of the [Par] engine;
    - [snapshot_every] ([--snapshot-every]): checkpoint cadence;
    - [snapshot_dir] ([--snapshot-dir]): checkpoint configuration [i]
      into [DIR/<P.name>-nN-mM-i.snap] (created if missing), kept after
      the run;
    - [resume] ([--resume]): continue the configuration whose
      fingerprint matches this snapshot; raises {!Check.Snapshot.Error}
      if the file is unreadable or, after the sweep, if no configuration
      matched it;
    - [salvage] ([--salvage]): roll a damaged snapshot tail back;
    - [recover] ([--inject-faults]): retry transient infrastructure
      failures from the newest checkpoint (needs [snapshot_dir]);
    - [on_config]: called after each configuration is judged, with its
      information-only columns computed.
    Interrupted or degraded explorations count as truncated. *)
