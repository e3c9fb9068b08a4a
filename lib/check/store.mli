(** Exact visited set over fixed-width packed keys.

    Keys are {!Codec} keys: [key_len] bytes each. They live back to back
    in one growable [Bytes] arena, and an open-addressing [int array]
    maps them to their ids, hashing and comparing straight over arena
    slices: no key string and no boxed entry per key. Ids are dense and
    assigned in insertion order (the [k]-th key added gets id [k]); they
    never change while the store grows or rehashes.

    Dedup is exact: every probe compares the full key, never a
    fingerprint alone, because a model checker's verdicts must not hinge
    on a hash collision.

    A store is single-threaded; the explorers keep one per shard (or per
    worker) under the same ownership discipline as any other shard
    structure. *)

type t

val create : key_len:int -> unit -> t
(** An empty store for keys of exactly [key_len] (> 0) bytes. It grows by
    doubling. *)

val length : t -> int
(** Number of keys added since [create] or the last {!reset}. *)

val find : t -> Bytes.t -> int -> int
(** [find t buf off] is the id of the key held in
    [buf.[off .. off + key_len - 1]], or [-1] if it was never added. *)

val add : t -> Bytes.t -> int -> int
(** [add t buf off] adds the key at [buf.[off ..]], which must be absent
    (check with {!find}), and returns its id: the previous {!length}. *)

val add_from : t -> src:t -> int -> int
(** [add_from t ~src id] adds [src]'s key [id] to [t] (absent from [t])
    and returns its id in [t]. Both stores must share [key_len]. *)

val blit_key : t -> int -> Bytes.t -> int -> unit
(** [blit_key t id dst off] copies key [id] into [dst] at [off]. *)

val key : t -> int -> string
(** Key [id] as a fresh string. *)

val sorted_ids : t -> int array
(** Every id, ordered by its key's bytes ascending — the order of
    [String.compare] on the keys, which is the byte order
    {!Disk_visited} runs are sorted and probed in. *)

val sorted_keys : t -> string array
(** Every key, ascending by bytes: the input {!Disk_visited.spill}
    takes. *)

val reset : t -> unit
(** Forget every key; ids start over at 0. Capacity is kept, so a store
    that is refilled to the same size (a hot set after a spill, a
    bounded memo) does not grow again. *)
