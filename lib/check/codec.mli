(** Compact state encoding for the explorers.

    Register values and local states are interned on the fly into dense
    integer codes, and a global state is packed into a short [string] key
    (3 bytes per slot by default, little-endian): first the [m] register
    codes, then the [n] local-state codes. Keys replace structural states
    in the explorers' hash tables — hashing and equality on a short flat
    string instead of a deep OCaml value.

    Interning is keyed by the protocol's own structural orders
    ([Value.compare], [compare_local]), so two states receive equal keys
    iff they are structurally equal. Codes are discovery-order dependent:
    keys from different [t] values (or different runs) are not
    comparable, and nothing outside one exploration may rely on a
    particular code assignment.

    The explorers' engines never re-encode a successor from scratch: its
    key is the parent's with the changed slots re-packed ({!Make.patch}),
    probed against the packed visited set {!Store}. The string-keyed
    [encode]-per-candidate path survives only in the reference explorer
    ([Explore.Make.explore] without checkpoint options), which the test
    suite runs as the independent oracle of the keyed engines.

    The tables are lock-free (persistent maps behind [Atomic.t] with
    CAS-extension) and safe to share across domains. *)

exception Overflow of { kind : string; code : int; width : int }
(** Raised when an interned code does not fit the context's key width
    (code ≥ 2²⁴ at the default 3-byte width). Packing would otherwise
    silently truncate the id and alias two distinct states — a missed
    violation. Recover by re-running with [create ~wide:true] (4-byte
    slots, max 2³² − 1 codes). [kind] names the overflowing table
    ("value", "local" or "proc"). *)

module Make (P : Anonmem.Protocol.PROTOCOL) : sig
  type t
  (** Mutable interning context for one exploration. *)

  val create : ?wide:bool -> unit -> t
  (** [create ()] packs 3 bytes per slot; [create ~wide:true ()] packs 4,
      for explorations whose intern tables may exceed 2²⁴ entries. Keys
      from contexts of different widths are never comparable. *)

  val width : t -> int
  (** Bytes per packed slot: 3, or 4 under [~wide]. *)

  val encode : t -> P.Value.t array -> P.local array -> string
  (** [encode t mem locals] is the packed key of a global state. Length
      is [width t * (m + n)] bytes.
      @raise Overflow if an interned code exceeds the key width. *)

  val key_of_codes : t -> int array -> int array -> string
  (** [key_of_codes t vcodes lcodes] packs already-interned code vectors
      into a key, byte-identical to what [encode] produces for the state
      they were interned from. Used by the incremental canonizer, which
      works on codes and never re-touches the values.
      @raise Overflow as for [encode]. *)

  val patch : t -> Bytes.t -> m:int -> int -> int -> unit
  (** [patch t key ~m slot code] re-packs slot [slot] of [key] (laid out
      as by [encode] for [m] registers: slots below [m] are registers,
      the rest locals) to hold [code]. The explorers derive a successor's
      key from its parent's by patching the one or two slots a step
      changes; the result is byte-identical to [encode] of the successor.
      @raise Overflow as for [encode], naming the slot's table. *)

  val unpack : t -> Bytes.t -> int array -> int array -> unit
  (** [unpack t key vcodes lcodes] reads [key]'s register codes into
      [vcodes] and its local codes into [lcodes] (their lengths give
      [m] and [n]): the inverse of [key_of_codes]. *)

  val encode_solo : t -> proc:int -> P.local -> P.Value.t array -> string
  (** Key for a (process, local state, memory) triple — the full input of
      a deterministic solo run, used to memoize obstruction-freedom
      checks.
      @raise Overflow as for [encode]. *)

  val value_code : t -> P.Value.t -> int
  (** Dense code of one register value (interning it if new). *)

  val local_code : t -> P.local -> int
  (** Dense code of one local state (interning it if new). *)

  val n_values : t -> int
  (** Number of distinct register values interned so far. *)

  val n_locals : t -> int
  (** Number of distinct local states interned so far. *)

  type dump
  (** Immutable plain-data image of the interning tables (protocol values,
      locals and ints only — safe to [Marshal]). Snapshots carry a dump so
      a resumed exploration re-encodes every state to the {e same} packed
      key bytes as the interrupted run, keeping shard assignment and
      statistics bit-identical across the resume. The dump records the key
      width, so a resume continues at the width of the interrupted run. *)

  val dump : t -> dump

  val of_dump : dump -> t
  (** A fresh context that continues the dumped one: already-interned
      values keep their codes; new values extend from where it left off. *)
end
