(** File-backed visited set for external-memory exploration.

    Classic external BFS with delayed duplicate detection: an in-RAM hot
    table absorbs newly interned keys; at a watermark the explorer spills
    it as one {e sorted immutable run} on disk and starts the hot table
    empty. Membership of a generation's candidates is then resolved in
    one batch — sort the unknown keys once, stream every run once, and
    advance two cursors — so the cost per generation is O(sorted probes +
    run bytes), never a random disk access per candidate.

    The invariant the explorer maintains (and the tests assert): a key
    lives in {e at most one} place — the hot table or exactly one run —
    because a key is only interned after probing proved it absent from
    both, and spilling {e moves} the hot table to a run. Probes may
    therefore stop at the first hit, and spilled sizes sum to the states
    on disk.

    Each run is a single-chunk {!Snapshot} envelope (the payload is the
    raw concatenation of fixed-width {!Codec} keys in ascending order),
    reusing its magic/version/fingerprint/CRC machinery. {!restore}
    re-validates every run in full — CRC, fingerprint, length — so a
    resumed exploration never trusts damaged bytes; per-generation
    {!probe}s skip the CRC (the file was validated when written or
    restored, and re-hashing tens of megabytes per BFS generation would
    dominate the run). *)

type t

type manifest
(** Plain marshalable image of the run set (file names, key counts,
    next run number) — embedded in the explorer's snapshot payload so a
    checkpoint names exactly the runs that existed when it was taken. *)

val create : ?quota_bytes:int -> dir:string -> key_len:int -> unit -> t
(** Fresh store in [dir] (created if missing) for keys of exactly
    [key_len] bytes. Stale run files — and [run-*.tmp] debris a torn
    spill left behind — from an abandoned exploration in the same
    directory are deleted. [quota_bytes] bounds the total payload bytes
    the store may hold across all runs; the explorer consults
    {!would_exceed_quota} before each spill and degrades gracefully
    (stop spilling, flush an exact boundary, report
    [stop_reason = disk_full]) instead of breaching it. Raises
    {!Snapshot.Error} ([Io _]) when the directory cannot be created. *)

val would_exceed_quota : t -> adding:int -> bool
(** Whether spilling [adding] more payload bytes would push the store
    past its byte quota. Always [false] without a quota. *)

val spill :
  t -> fingerprint:Digest.t -> descr:string -> string array -> unit
(** [spill t ~fingerprint ~descr keys] durably writes [keys] — sorted
    ascending, each [key_len] bytes, disjoint from every existing run —
    as the next immutable run. Raises [Invalid_argument], before writing
    anything, when a key is not [key_len] bytes or the keys are not
    strictly ascending by bytes ([String.compare]): {!probe} would
    misread such a run. Raises {!Snapshot.Error} on I/O failure,
    or ([Io _]) if the spill would breach the byte quota (callers are
    expected to check {!would_exceed_quota} first — the raise is a
    last-ditch refusal, never silent breach). *)

val probe : t -> string array -> bool array
(** [probe t keys] resolves membership of [keys] (sorted ascending)
    against every run by streaming sorted merges; [result.(i)] is true
    iff [keys.(i)] is on disk. One call counts as one batched probe in
    {!n_probes}. Raises {!Snapshot.Error} ([Corrupt _]) if a run file
    has been damaged since it was validated. *)

val manifest : t -> manifest

val restore :
  ?quota_bytes:int ->
  dir:string ->
  fingerprint:Digest.t ->
  descr:string ->
  manifest ->
  t
(** Reopen the run set a [manifest] describes, fully re-validating every
    listed run (envelope CRC, fingerprint, byte length against the
    manifest's key count) — raises {!Snapshot.Error} if any check fails,
    so a salvaging caller can fall back to an older checkpoint. Run
    files in [dir] that the manifest does {e not} list are deleted
    (along with any [run-*.tmp] debris): they belong to a future this
    rollback abandons, and probing them would wrongly suppress states
    the restored frontier still has to reach. The byte count behind
    {!would_exceed_quota} is rebuilt from the manifest. *)

val n_runs : t -> int
(** Immutable runs currently on disk. *)

val n_keys : t -> int
(** Total keys across all runs (states resident on disk). *)

val n_probes : t -> int
(** Batched probes served since [create]/[restore]. *)

val n_bytes : t -> int
(** Total payload bytes across all runs (what the quota bounds). *)
