(** Symmetry reduction: canonical representatives of states under the
    automorphisms of a configuration.

    In the memory-anonymous model a configuration is (ids, inputs,
    namings). A triple (sigma, pi, rho) — a process permutation, the
    induced physical-register permutation and the induced identifier
    relabeling — is an {e automorphism} when relabeling a global state by
    it commutes with every step of the protocol; exploring only the
    lex-least element of each orbit then yields a quotient graph that is
    bisimilar to the full one (soundness argument in DESIGN.md §9).

    The group is computed exactly by filtering all [n!] process
    permutations (guarded to [n <= 7]) against the configuration:
    all-identical namings with identical inputs yield the full symmetric
    group (n! reduction); the rotation tuple of Theorem 3.4 with [n = m]
    yields the cyclic group of order [m]; generic namings yield only the
    identity. Protocols that compare identifiers for more than equality
    declare [symmetric = false] and always get the identity group — the
    reduction soundly degrades to no reduction (see {!Make.degraded}).

    Two canonizers are provided. {!Make.canonize} is the reference
    implementation: it materializes every orbit image and sorts. The
    {!Make.ctx} family is the incremental path the explorers use: the
    lex-min search runs in the interned code space of the exploration's
    {!Codec}, memoizes per-automorphism images of every interned value,
    and rejects most automorphisms at their first differing slot without
    allocating an image. Both choose the same representative — the
    structural lex-min — and report the same orbit size; the test suite
    cross-checks them state by state. *)

module Make (P : Anonmem.Protocol.PROTOCOL) : sig
  type sym = {
    sigma : int array;
        (** process permutation: [q] plays the role of [sigma.(q)] *)
    sigma_inv : int array;  (** inverse of [sigma] *)
    pi : int array;  (** induced physical-register permutation *)
    pi_inv : int array;  (** inverse of [pi] *)
    rho : (int * int) array;
        (** identifier relabeling as (old, new) pairs; ids not listed are
            fixed, in particular the reserved empty value [0] *)
    rho_map : int -> int;
        (** [rho] as a precomputed constant-time function *)
  }

  val identity : n:int -> m:int -> sym

  val is_identity : sym -> bool
  (** Early-exits at the first displaced process. *)

  val max_procs : int
  (** Group enumeration guard: configurations with more processes get the
      identity group (the [n!] filter would be prohibitive). *)

  val degraded : n:int -> bool
  (** [true] iff [group] falls back to the identity group for an
      [n]-process configuration — because [P.symmetric] is [false] or
      [n > max_procs] — i.e. [~reduction:Canon] would silently explore
      the full graph. Callers are expected to surface this
      ({!Checker_stats.t.degraded}, the [coordctl] [--canon] notice)
      rather than let the degradation pass unannounced. *)

  val group :
    ids:int array ->
    inputs:P.input array ->
    namings:Anonmem.Naming.t array ->
    sym list
  (** All automorphisms of the configuration. Always contains the
      identity; is exactly [[identity]] when {!degraded}. *)

  val apply : sym -> P.Value.t array -> P.local array -> P.Value.t array * P.local array
  (** The image of a global state: fresh arrays with
      [mem'.(pi.(k)) = map_value_ids rho mem.(k)] and
      [locals'.(sigma.(q)) = map_local_ids rho locals.(q)]. *)

  val canonize :
    sym list -> P.Value.t array -> P.local array ->
    P.Value.t array * P.local array * int
  (** [canonize syms mem locals] is the lex-least element of the orbit
      under [syms] (by [Value.compare] on memory, then [compare_local] on
      locals) together with the orbit size (number of distinct images).
      With a trivial group the state is returned unchanged with orbit
      size 1. Reference implementation — materializes the whole orbit;
      the explorers use the incremental path below. *)

  (** {2 Incremental canonicalization} *)

  type ctx
  (** Reusable canonicalization context: the group as an array, scratch
      buffers sized to the configuration, and per-automorphism memo
      tables of value/local images indexed by interned code. One ctx per
      worker domain; a ctx must not be shared across domains (the codec
      behind the code closures may be — it is CAS-safe). Reconstructible
      from the configuration at any time and never serialized. *)

  val make_ctx :
    syms:sym list ->
    value_code:(P.Value.t -> int) ->
    local_code:(P.local -> int) ->
    pack:(int array -> int array -> string) ->
    init:(P.Value.t array * P.local array) ->
    ctx
  (** [make_ctx ~syms ~value_code ~local_code ~pack ~init] builds a ctx
      for the group [syms]. [value_code]/[local_code] intern values into
      dense codes that are equality-faithful for [P.Value.compare] /
      [P.compare_local] (codes need not be order-faithful — the search
      only ever compares codes for equality, and decides direction with
      one structural comparison at the first differing slot). [pack]
      turns a (value-code vector, local-code vector) pair into the
      explorer's table key ({!Codec.key_of_codes}). [init] is any state
      of the configuration, used for buffer sizes and witnesses. *)

  val state_key : ctx -> P.Value.t array -> P.local array -> string
  (** Intern the state's codes into the ctx scratch and return the packed
      key of the state {e as is} (pre-canonicalization) — the key the
      explorers' raw-successor cache is indexed by. Must be followed by
      {!canonize_keyed} on the same state before the ctx is reused. *)

  val load_codes : ctx -> (int array -> int array -> unit) -> unit
  (** [load_codes ctx load] loads the ctx scratch like {!state_key} does,
      from a packed key the caller already holds: [load vcodes lcodes]
      must fill the register and local code vectors ({!Codec.Make.unpack}).
      The explorers use it on a raw-successor memo miss, where the
      successor's key was patched from its parent's and interning again
      would be wasted work. Must be followed by {!canonize_into} (or
      {!canonize_keyed}) on the same state. *)

  val canonize_keyed :
    ctx -> raw:string -> P.Value.t array -> P.local array ->
    P.Value.t array * P.local array * string * int
  (** [canonize_keyed ctx ~raw mem locals] is the lex-least orbit element
      of the state whose codes the preceding {!state_key} call loaded,
      together with its packed key and the orbit size. [raw] is the key
      that {!state_key} call returned; it is handed back as the key when
      the state is already canonical, so the common case packs exactly
      once. Agrees with {!canonize} on representative and orbit. Returns
      the input arrays themselves when the state is already canonical,
      fresh copies otherwise. *)

  val canonize_into :
    ctx ->
    repack:(int array -> int array -> unit) ->
    P.Value.t array -> P.local array ->
    P.Value.t array * P.local array * int
  (** {!canonize_keyed} for a caller that keeps its key in a buffer of
      its own: instead of packing a fresh key string, it hands the
      representative's register and local code vectors to [repack] —
      only when the representative is not the state itself, whose key
      the caller already holds. Returns the representative and the orbit
      size, with the same sharing as {!canonize_keyed}. *)

  val pruned : ctx -> int
  (** Automorphisms rejected at their first differing slot without an
      image being materialized, cumulative over the ctx's lifetime (the
      "signature-pruned triples" statistic). *)
end
