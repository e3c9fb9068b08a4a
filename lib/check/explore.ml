open Anonmem

type reduction = Full | Canon

let reduction_tag = function Full -> "full" | Canon -> "canon"

(* Growable array; [dummy] fills spare capacity so cleared slots hold no
   stale references. *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

  let create dummy = { data = [||]; len = 0; dummy }
  let length v = v.len
  let get v i = v.data.(i)

  let push v x =
    if v.len = Array.length v.data then begin
      let data = Array.make (max 16 (2 * v.len)) v.dummy in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let truncate v n =
    if n < v.len then begin
      Array.fill v.data n (v.len - n) v.dummy;
      v.len <- n
    end

  let clear v = truncate v 0
end

module Make (P : Protocol.PROTOCOL) = struct
  module Cd = Codec.Make (P)
  module Cn = Canon.Make (P)

  type config = {
    ids : int array;
    inputs : P.input array;
    namings : Naming.t array;
  }

  let config ?m ~ids ~inputs () =
    let ids = Array.of_list ids in
    let n = Array.length ids in
    let m = match m with Some m -> m | None -> P.default_registers ~n in
    {
      ids;
      inputs = Array.of_list inputs;
      namings = Array.init n (fun _ -> Naming.identity m);
    }

  type state = { mem : P.Value.t array; locals : P.local array }

  type label = { proc : int; enters_cs : bool }

  type transition = { dst : int; label : label }

  type graph = {
    cfg : config;
    states : state array;
    orbits : int array;
    succs : transition list array;
    complete : bool;
  }

  let initial cfg =
    let n = Array.length cfg.ids in
    let m = Naming.size cfg.namings.(0) in
    {
      mem = Array.make m P.Value.init;
      locals =
        Array.init n (fun i -> P.start ~n ~m ~id:cfg.ids.(i) cfg.inputs.(i));
    }

  let statuses st = Array.map P.status st.locals

  let with_local st proc local =
    let locals = Array.copy st.locals in
    locals.(proc) <- local;
    { st with locals }

  let with_write st proc local phys v =
    let mem = Array.copy st.mem in
    mem.(phys) <- v;
    let locals = Array.copy st.locals in
    locals.(proc) <- local;
    { mem; locals }

  (* All states one step of [proc] can lead to (two for a coin flip). *)
  let step_states cfg st proc =
    let n = Array.length st.locals in
    let m = Array.length st.mem in
    let naming = cfg.namings.(proc) in
    match P.step ~n ~m ~id:cfg.ids.(proc) st.locals.(proc) with
    | Protocol.Read (j, k) ->
      let v = st.mem.(Naming.apply naming j) in
      [ with_local st proc (k v) ]
    | Protocol.Write (j, v, l) ->
      [ with_write st proc l (Naming.apply naming j) v ]
    | Protocol.Rmw (j, f) ->
      let phys = Naming.apply naming j in
      let v, l = f st.mem.(phys) in
      [ with_write st proc l phys v ]
    | Protocol.Internal l -> [ with_local st proc l ]
    | Protocol.Coin k -> [ with_local st proc (k true); with_local st proc (k false) ]

  let successors cfg st =
    let acc = ref [] in
    Array.iteri
      (fun proc local ->
        if not (Protocol.is_decided (P.status local)) then begin
          let before_crit = P.status local = Protocol.Critical in
          List.iter
            (fun st' ->
              let enters_cs =
                (not before_crit)
                && P.status st'.locals.(proc) = Protocol.Critical
              in
              acc := ({ proc; enters_cs }, st') :: !acc)
            (step_states cfg st proc)
        end)
      st.locals;
    List.rev !acc

  (* The automorphism group of [cfg], or [] when the reduction is off so
     the hot path can skip orbit enumeration entirely. *)
  let syms_of ~reduction cfg =
    match reduction with
    | Full -> []
    | Canon -> Cn.group ~ids:cfg.ids ~inputs:cfg.inputs ~namings:cfg.namings

  let canon_degraded ~n = Cn.degraded ~n

  (* The incremental canonizer of a non-trivial group, or [None]. *)
  let make_inc codec syms st0 =
    match syms with
    | [] | [ _ ] -> None
    | syms ->
      Some
        (Cn.make_ctx ~syms
           ~value_code:(Cd.value_code codec)
           ~local_code:(Cd.local_code codec)
           ~pack:(Cd.key_of_codes codec)
           ~init:(st0.mem, st0.locals))

  (* The reference explorer's reduction context: the incremental
     canonizer plus a string-keyed memo of raw successors already
     canonized. Reconstructible from the configuration alone — never
     serialized; the engines keep the packed equivalent in [keyed]. *)
  type canon_cache = {
    inc : Cn.ctx option;  (* [Some] iff the group is non-trivial *)
    memo : (string, state * string * int) Hashtbl.t;
    mutable hits : int;
  }

  (* Drop the raw-successor memo rather than grow it without bound; the
     cap is far above every in-tree workload's distinct-raw-state count. *)
  let canon_memo_cap = 1 lsl 20

  let make_canon_cache codec syms st0 =
    let inc = make_inc codec syms st0 in
    {
      inc;
      memo = Hashtbl.create (match inc with None -> 1 | Some _ -> 4096);
      hits = 0;
    }

  (* Canonical representative, its packed key and orbit size — the
     Canon-path replacement for [Cn.canonize] + [Cd.encode]. Memoized on
     the raw successor's own key: in a quotiented BFS each raw state
     recurs through graph diamonds, and those recurrences skip the group
     walk entirely. *)
  let canonize_cached cc codec st =
    match cc.inc with
    | None -> (st, Cd.encode codec st.mem st.locals, 1)
    | Some inc -> (
      let raw = Cn.state_key inc st.mem st.locals in
      match Hashtbl.find_opt cc.memo raw with
      | Some hit ->
        cc.hits <- cc.hits + 1;
        hit
      | None ->
        let mem, locals, key, orbit =
          Cn.canonize_keyed inc ~raw st.mem st.locals
        in
        let rep = if mem == st.mem then st else { mem; locals } in
        if Hashtbl.length cc.memo >= canon_memo_cap then Hashtbl.reset cc.memo;
        Hashtbl.add cc.memo raw (rep, key, orbit);
        (rep, key, orbit))

  (* ---------------------------------------------------------------- *)
  (* keyed successors                                                  *)
  (* ---------------------------------------------------------------- *)

  (* The engines' successor path. A successor differs from its parent in
     one local and at most one register, so its packed key is the
     parent's with those slots re-packed ([Cd.patch]) — byte-identical to
     [Cd.encode] of the successor — and the boxed successor is built only
     when someone asks for it: a fresh state, a canonization, or the
     structural owner hash of a multi-shard run. [successors] above stays
     as it is: [explore_basic] runs it as the independent string-keyed
     oracle these engines are cross-checked against. *)

  (* Raw-successor memo of the keyed path where ids are not known as a
     candidate is produced (the parallel phases, the external engine):
     raw key -> canonical key, representative and orbit size, as a packed
     store with parallel columns. Bounded like [canon_cache]'s memo, and
     as invisible: it only ever short-cuts a canonization. Per domain,
     never serialized; a resumed run starts cold and explores the same
     graph. The sequential single-store generation needs no memo: it
     files raw keys as aliases in its visited store (see [explore_impl]),
     so a repeat costs one probe, like a Full candidate. *)
  type memo = {
    raw : Store.t;
    mutable canon_keys : Bytes.t;  (* entry e's canonical key at e * len *)
    reps : state Vec.t;
    orbs : int Vec.t;
  }

  (* Per-domain successor context. [k_key] holds the key of the current
     successor — canonical when the context has a memo — and the mutable
     delta fields describe the successor against [k_st], enough to build
     it on demand ([keyed_rep]) without a closure. *)
  type keyed = {
    k_codec : Cd.t;
    k_inc : Cn.ctx option;  (* [Some] iff the group is non-trivial *)
    k_memo : memo option;  (* [Some] iff [k_inc] is and [~memo] was set *)
    mutable k_hits : int;  (* memo hits *)
    k_m : int;
    k_len : int;
    k_parent : Bytes.t;  (* packed key of the state being expanded *)
    k_key : Bytes.t;
    k_canon : Bytes.t;  (* canonical key, when not [k_key] itself *)
    k_load : int array -> int array -> unit;  (* [k_key]'s codes *)
    k_repack : int array -> int array -> unit;  (* codes into [k_canon] *)
    k_labels : label array;  (* index [2 * proc + enters_cs] *)
    mutable k_st : state;
    mutable k_proc : int;
    mutable k_local : P.local;
    mutable k_phys : int;  (* written register, or -1 *)
    mutable k_value : P.Value.t;
    mutable k_rep : state;  (* valid iff [k_built] *)
    mutable k_built : bool;
    mutable k_orbit : int;
  }

  (* [~memo]: canonize every successor as it is produced, through a
     memo, for consumers that cannot alias raw keys themselves. *)
  let make_keyed ~memo codec syms st0 =
    let m = Array.length st0.mem and n = Array.length st0.locals in
    let len = Cd.width codec * (m + n) in
    let key = Bytes.create len and canon = Bytes.create len in
    let inc = make_inc codec syms st0 in
    {
      k_codec = codec;
      k_inc = inc;
      k_hits = 0;
      k_memo =
        (if memo && inc <> None then
           Some
             {
               raw = Store.create ~key_len:len ();
               canon_keys = Bytes.create (64 * len);
               reps = Vec.create st0;
               orbs = Vec.create 0;
             }
         else None);
      k_m = m;
      k_len = len;
      k_parent = Bytes.create len;
      k_key = key;
      k_canon = canon;
      k_load = (fun vcodes lcodes -> Cd.unpack codec key vcodes lcodes);
      k_repack =
        (fun vcodes lcodes ->
          for k = 0 to m - 1 do
            Cd.patch codec canon ~m k vcodes.(k)
          done;
          for q = 0 to n - 1 do
            Cd.patch codec canon ~m (m + q) lcodes.(q)
          done);
      k_labels =
        Array.init (2 * n) (fun i -> { proc = i / 2; enters_cs = i land 1 = 1 });
      k_st = st0;
      k_proc = 0;
      k_local = st0.locals.(0);
      k_phys = -1;
      k_value = P.Value.init;
      k_rep = st0;
      k_built = true;
      k_orbit = 1;
    }

  (* [st]'s key into [k_parent]: the one encode per expanded state of the
     paths whose visited set does not hold every parent's key. *)
  let load_parent kx st =
    Bytes.blit_string (Cd.encode kx.k_codec st.mem st.locals) 0 kx.k_parent 0
      kx.k_len

  (* The current successor's state (its representative under Canon),
     built on first demand. *)
  let keyed_rep kx =
    if not kx.k_built then begin
      kx.k_rep <-
        (if kx.k_phys >= 0 then
           with_write kx.k_st kx.k_proc kx.k_local kx.k_phys kx.k_value
         else with_local kx.k_st kx.k_proc kx.k_local);
      kx.k_built <- true
    end;
    kx.k_rep

  (* Canonize the current successor, whose raw key is in [k_key]: sets
     its representative and orbit, and returns whether it is canonical
     itself; if not, its canonical key is left in [k_canon]. The parent
     is canonical, so [k_key] is exactly the raw key [Cn.state_key] would
     build: its codes are loaded from it, never re-interned. *)
  let keyed_canonize kx inc =
    let st = keyed_rep kx in
    Cn.load_codes inc kx.k_load;
    let mem, locals, orbit =
      Cn.canonize_into inc ~repack:kx.k_repack st.mem st.locals
    in
    kx.k_orbit <- orbit;
    mem == st.mem
    ||
    (kx.k_rep <- { mem; locals };
     false)

  (* Canonize the current successor in place, through the memo. *)
  let canon_keyed kx inc memo =
    let len = kx.k_len in
    let e = Store.find memo.raw kx.k_key 0 in
    if e >= 0 then begin
      kx.k_hits <- kx.k_hits + 1;
      Bytes.blit memo.canon_keys (e * len) kx.k_key 0 len;
      kx.k_rep <- Vec.get memo.reps e;
      kx.k_built <- true;
      kx.k_orbit <- Vec.get memo.orbs e
    end
    else begin
      let canonical = keyed_canonize kx inc in
      (* Columns first, raw key last: an exception in between (an
         allocation failure) leaves the columns one entry long, which the
         next insertion trims back, so no raw key is ever found without
         its columns. *)
      if Store.length memo.raw >= canon_memo_cap then Store.reset memo.raw;
      let e = Store.length memo.raw in
      Vec.truncate memo.reps e;
      Vec.truncate memo.orbs e;
      if (e + 1) * len > Bytes.length memo.canon_keys then
        memo.canon_keys <-
          Bytes.extend memo.canon_keys 0 (Bytes.length memo.canon_keys);
      Bytes.blit
        (if canonical then kx.k_key else kx.k_canon)
        0 memo.canon_keys (e * len) len;
      Vec.push memo.reps kx.k_rep;
      Vec.push memo.orbs kx.k_orbit;
      ignore (Store.add memo.raw kx.k_key 0);
      if not canonical then Bytes.blit kx.k_canon 0 kx.k_key 0 len
    end

  let emit kx f proc before_crit l phys v =
    kx.k_proc <- proc;
    kx.k_local <- l;
    kx.k_phys <- phys;
    kx.k_value <- v;
    kx.k_built <- false;
    kx.k_orbit <- 1;
    let key = kx.k_key and codec = kx.k_codec and m = kx.k_m in
    Bytes.blit kx.k_parent 0 key 0 kx.k_len;
    Cd.patch codec key ~m (m + proc) (Cd.local_code codec l);
    if phys >= 0 then Cd.patch codec key ~m phys (Cd.value_code codec v);
    (match (kx.k_inc, kx.k_memo) with
    | Some inc, Some memo -> canon_keyed kx inc memo
    | _ -> ());
    let cs = (not before_crit) && P.status l = Protocol.Critical in
    f kx.k_labels.((2 * proc) + Bool.to_int cs)

  (* The root of an exploration through the same path: [st]'s canonical
     key in [k_key], and its representative and orbit. *)
  let keyed_root kx st =
    load_parent kx st;
    Bytes.blit kx.k_parent 0 kx.k_key 0 kx.k_len;
    kx.k_rep <- st;
    kx.k_built <- true;
    kx.k_orbit <- 1;
    (match kx.k_inc with
    | Some inc ->
      if not (keyed_canonize kx inc) then
        Bytes.blit kx.k_canon 0 kx.k_key 0 kx.k_len
    | None -> ());
    (kx.k_rep, kx.k_orbit)

  let keyed_pruned kx = match kx.k_inc with Some inc -> Cn.pruned inc | None -> 0

  (* [f label] for every successor of [st] (whose key is in [k_parent]),
     in [successors]' order, with [k_key], [k_orbit] and [keyed_rep]
     describing that successor for the duration of the call. [P.step] is
     decoded once per process. *)
  let each_successor kx cfg st f =
    let n = Array.length st.locals and m = kx.k_m in
    kx.k_st <- st;
    for proc = 0 to n - 1 do
      let local = st.locals.(proc) in
      let status = P.status local in
      if not (Protocol.is_decided status) then begin
        let before_crit = status = Protocol.Critical in
        let naming = cfg.namings.(proc) in
        match P.step ~n ~m ~id:cfg.ids.(proc) local with
        | Protocol.Read (j, k) ->
          let l = k st.mem.(Naming.apply naming j) in
          emit kx f proc before_crit l (-1) P.Value.init
        | Protocol.Write (j, v, l) ->
          emit kx f proc before_crit l (Naming.apply naming j) v
        | Protocol.Rmw (j, g) ->
          let phys = Naming.apply naming j in
          let v, l = g st.mem.(phys) in
          emit kx f proc before_crit l phys v
        | Protocol.Internal l -> emit kx f proc before_crit l (-1) P.Value.init
        | Protocol.Coin k ->
          emit kx f proc before_crit (k true) (-1) P.Value.init;
          emit kx f proc before_crit (k false) (-1) P.Value.init
      end
    done

  (* ---------------------------------------------------------------- *)
  (* durable checkpoints                                               *)
  (* ---------------------------------------------------------------- *)

  (* Periodic-snapshot cadence (newly interned states between writes)
     when [~snapshot_to] is given without an explicit [~snapshot_every]. *)
  let default_snapshot_every = 500_000

  let fingerprint ~reduction cfg =
    let descr =
      Printf.sprintf "protocol=%s n=%d m=%d reduction=%s" P.name
        (Array.length cfg.ids)
        (Naming.size cfg.namings.(0))
        (reduction_tag reduction)
    in
    let digest =
      Digest.string
        (Marshal.to_string
           (P.name, cfg.ids, cfg.inputs, cfg.namings, reduction_tag reduction)
           [])
    in
    (digest, descr)

  let describe ~reduction cfg =
    let buf = Buffer.create 128 in
    let ppf = Format.formatter_of_buffer buf in
    Format.fprintf ppf "protocol=%s ids=[" P.name;
    Array.iteri
      (fun i id -> Format.fprintf ppf "%s%d" (if i > 0 then ";" else "") id)
      cfg.ids;
    Format.fprintf ppf "] inputs=[";
    Array.iteri
      (fun i inp ->
        if i > 0 then Format.fprintf ppf ";";
        P.pp_input ppf inp)
      cfg.inputs;
    Format.fprintf ppf "] namings=[";
    Array.iteri
      (fun i nm ->
        if i > 0 then Format.fprintf ppf ";";
        Naming.pp ppf nm)
      cfg.namings;
    Format.fprintf ppf "] reduction=%s" (reduction_tag reduction);
    Format.pp_print_flush ppf ();
    Buffer.contents buf

  (* A resume point, captured only at expansion boundaries where the run
     was still exact (no budget drop, no worker failure): states [0, n)
     are interned, states [0, k) are expanded with their transition lists
     recorded, and the pending frontier is exactly states [k, n) in id
     order — which is precisely the FIFO order the sequential reference
     explorer would expand them in, so continuing from a snapshot is
     indistinguishable from never having stopped. The codec dump keeps
     packed keys byte-identical across the resume, which keeps shard
     assignment (and therefore [shard_load]) bit-identical too. *)
  type snapshot_payload = {
    sp_states : state array;
    sp_orbits : int array;
    sp_succs : transition list array;  (** the expanded prefix *)
    sp_depth : int;  (** BFS depth of the pending generation *)
    sp_depths_rev : Checker_stats.depth_sample list;
    sp_candidates : int;
    sp_dedup : int;
    sp_max_frontier : int;
    sp_orbit_sum : int;
    sp_cutover : int option;
    sp_elapsed : float;
    sp_codec : Cd.dump;
    sp_rng : int64 option;
        (* explorations are deterministic — always [None] today; the slot
           lets randomized drivers checkpoint without a format bump *)
  }

  (* In-memory image of the same boundary. O(1) to capture: the chunk
     lists are persistent, so consing later generations never mutates a
     stashed tail. *)
  type boundary = {
    b_states : state array list;  (* reversed chunks *)
    b_orbits : int array list;
    b_trans : transition list array list;
    b_n_states : int;
    b_n_expanded : int;
    b_depth : int;
    b_depths_rev : Checker_stats.depth_sample list;
    b_cand : int;
    b_dups : int;
    b_max_frontier : int;
    b_orbit_sum : int;
    b_cutover : int option;
  }

  (* The plain FIFO-queue reference explorer (no checkpoint machinery);
     [explore] below dispatches here when no snapshot option is given. *)
  let explore_basic ~max_states ~reduction cfg =
    let codec = Cd.create () in
    let syms = syms_of ~reduction cfg in
    let cc = make_canon_cache codec syms (initial cfg) in
    let table : (string, int) Hashtbl.t = Hashtbl.create 4096 in
    let states_rev = ref [] in
    let orbits_rev = ref [] in
    let n_states = ref 0 in
    let pending = Queue.create () in
    let complete = ref true in
    let intern st =
      let rep, key, orbit = canonize_cached cc codec st in
      match Hashtbl.find_opt table key with
      | Some id -> Some id
      | None ->
        if !n_states >= max_states then begin
          complete := false;
          None
        end
        else begin
          let id = !n_states in
          Hashtbl.add table key id;
          states_rev := rep :: !states_rev;
          orbits_rev := orbit :: !orbits_rev;
          incr n_states;
          Queue.add rep pending;
          Some id
        end
    in
    ignore (intern (initial cfg));
    (* [pending] is FIFO and ids are handed out in discovery order, so the
       queue pops states in id order: consing each expansion's transition
       list and reversing at the end rebuilds the id-indexed array without
       any intermediate id-keyed table. *)
    let succs_rev = ref [] in
    while not (Queue.is_empty pending) do
      let st = Queue.pop pending in
      let trans =
        List.filter_map
          (fun (label, st') ->
            match intern st' with
            | Some dst -> Some { dst; label }
            | None -> None)
          (successors cfg st)
      in
      succs_rev := trans :: !succs_rev
    done;
    {
      cfg;
      states = Array.of_list (List.rev !states_rev);
      orbits = Array.of_list (List.rev !orbits_rev);
      succs = Array.of_list (List.rev !succs_rev);
      complete = !complete;
    }

  (* Frontier-parallel BFS.

     The sequential explorer above pops a FIFO queue, so states are
     discovered generation by generation: every state at depth d gets an id
     below every state at depth d+1, and within one generation ids follow
     (expanded-state id ascending, successor position ascending). The
     parallel explorer reproduces exactly that order.

     Generations start sequential: while the frontier is narrower than
     [par_threshold] the phase choreography costs more than the expansion
     work, so the calling domain expands the whole generation alone
     (before any worker domain is spawned at all, if the warm-up is still
     running). Once the frontier first reaches the threshold, the crew
     spawns — that depth is recorded as the [cutover] stat — and each wide
     generation runs as a sequence of work epochs, every unit of which any
     crew member (the calling domain included) may claim:

       A  expand the frontier in 32-state chunks (successor computation
          plus canonicalization — the work that dominates the run),
          packing every successor's key;
       -  the supervisor flattens the successor lists into one candidate
          array, in the sequential discovery order;
       B  the interning table is sharded by structural hash; each unit
          resolves the candidates one shard owns against that shard's
          table (no locks — ownership is a partition), marking each
          candidate as an existing state, a duplicate of an earlier
          candidate of this generation, or fresh;
       -  the supervisor scans the candidate array once, in order, handing
          out consecutive ids to fresh candidates — exactly the ids the
          sequential explorer would have assigned, including where the
          [max_states] budget cuts off;
       C1 each unit inserts one shard's newly identified states;
       C2 the transition lists, in frontier chunks;
       -  the supervisor appends the generation's states and transitions,
          forms the next frontier and decides the next generation's mode.

     Narrow generations after the cutover (a draining frontier) drop back
     to sequential expansion by the supervisor while the crew idles. The
     result is bit-identical to [explore] on every input and every mode
     schedule, which the test suite cross-checks for every in-tree
     protocol. *)

  (* A work epoch. Published as ONE atomic record so a worker can never
     pair one epoch's unit table with another epoch's work function.
     Unit cells: 0 unclaimed, [slot + 1] claimed by that crew slot, -1
     done. *)
  type epoch = {
    ep_units : int Atomic.t array;
    ep_fn : int -> int -> unit;  (** slot -> unit index *)
  }

  let explore_impl ~max_states ~domains ~par_threshold ~reduction
      ~snapshot_every ~snapshot_to ~resume_from ~mem_soft_limit_mb ~deadline_s
      ~salvage cfg =
    let d = max 1 domains in
    let n_procs = Array.length cfg.ids in
    let n_registers = Naming.size cfg.namings.(0) in
    let fp = lazy (fingerprint ~reduction cfg) in
    let resumed : snapshot_payload option =
      match resume_from with
      | None -> None
      | Some path ->
        let meta, payload =
          if salvage then begin
            let meta, payload, salv = Snapshot.read_salvaged ~path in
            (match salv with
            | Some s ->
              (* the resume is exact from an OLDER boundary; worth a
                 visible note since work after that boundary is redone *)
              Format.eprintf
                "snapshot salvage: %s: %s; rolled back to chunk %d@." path
                s.Snapshot.detail s.Snapshot.kept_chunks
            | None -> ());
            (meta, payload)
          end
          else Snapshot.read ~path
        in
        let digest, descr = Lazy.force fp in
        Snapshot.check_fingerprint ~path meta ~fingerprint:digest ~descr;
        Some (Marshal.from_string payload 0)
    in
    (* The wall-clock deadline is invocation-local: a resumed run gets a
       fresh [deadline_s] from now, while [t0] below is back-dated for the
       cumulative [elapsed_s] stat. *)
    let deadline_at =
      Option.map (fun s -> Checker_stats.now () +. s) deadline_s
    in
    (* Why the run stopped; first truncation cause wins. *)
    let stopped = ref Checker_stats.Completed in
    let set_stop r =
      if !stopped = Checker_stats.Completed then stopped := r
    in
    let restarts_total = ref 0 in
    (* Elapsed time accumulates across resumes: back-date [t0] by the
       snapshot's recorded wall-clock. *)
    let t0 =
      Checker_stats.now ()
      -. (match resumed with Some sp -> sp.sp_elapsed | None -> 0.)
    in
    let codec =
      match resumed with
      | Some sp -> Cd.of_dump sp.sp_codec
      | None -> Cd.create ()
    in
    let syms = syms_of ~reduction cfg in
    let group_order = max 1 (List.length syms) in
    let canon = reduction = Canon in
    let degraded = canon && Cn.degraded ~n:n_procs in
    (* one successor/reduction context per worker domain: ctxs are
       single-threaded, the codec behind them is shared (and CAS-safe) *)
    let kxs =
      Array.init d (fun _ -> make_keyed ~memo:(d > 1) codec syms (initial cfg))
    in
    let key_len = kxs.(0).k_len in
    let sig_pruned () =
      Array.fold_left (fun acc kx -> acc + keyed_pruned kx) 0 kxs
    in
    let canon_hits () = Array.fold_left (fun acc kx -> acc + kx.k_hits) 0 kxs in
    let cutover =
      ref (match resumed with Some sp -> sp.sp_cutover | None -> None)
    in
    let orbit_sum = ref 0 in
    let stats_base ~n_states ~n_transitions ~max_depth ~max_frontier
        ~candidates ~dedup_hits ~shard_load ~complete ~depths =
      {
        Checker_stats.protocol = P.name;
        n_procs;
        n_registers;
        domains = d;
        n_states;
        n_transitions;
        max_depth;
        max_frontier;
        candidates;
        dedup_hits;
        shard_load;
        elapsed_s = Checker_stats.now () -. t0;
        complete;
        stop = (if complete then Checker_stats.Completed else !stopped);
        restarts = !restarts_total;
        recoveries = 0;
        canon;
        degraded;
        group_order;
        orbit_sum = !orbit_sum;
        sig_pruned = sig_pruned ();
        canon_hits = canon_hits ();
        cutover = !cutover;
        steals = 0;
        handoffs = 0;
        spilled_runs = 0;
        disk_probes = 0;
        depths;
      }
    in
    if max_states < 1 then begin
      set_stop Checker_stats.Budget;
      ( { cfg; states = [||]; orbits = [||]; succs = [||]; complete = false },
        stats_base ~n_states:0 ~n_transitions:0 ~max_depth:0 ~max_frontier:0
          ~candidates:0 ~dedup_hits:0 ~shard_load:(Array.make d 0)
          ~complete:false ~depths:[] )
    end
    else begin
      let rep0, orbit0 = keyed_root kxs.(0) (initial cfg) in
      (* Shard s owns every state whose structural hash is s mod d. The
         hash is over the canonical state, NOT the packed codec key:
         codec codes are assigned in racy first-encode order during the
         parallel phases, so key bytes differ run to run, while the
         structural hash is a pure function of the state — shard
         assignment (and the [shard_load] statistic) stays deterministic
         and therefore reproducible across checkpoint/resume. *)
      let state_owner (st : state) = if d = 1 then 0 else Hashtbl.hash st mod d in
      (* One packed visited store per shard. With one shard it holds every
         state, so a parent's key is read back from the arena instead of
         re-encoded. Under a non-trivial group that single store also
         files [aliases]: each raw successor key the sequential generation
         canonized, under the state it resolved to, so a repeat resolves
         in one probe. Store ids are state ids unless [mapped]: then
         [shard_ids] maps store ids to state ids, and (aliasing)
         [state_entry] maps a state id to its own key's store id. *)
      let shard_tbl = Array.init d (fun _ -> Store.create ~key_len ()) in
      let aliasing = d = 1 && kxs.(0).k_inc <> None in
      let mapped = d > 1 || aliasing in
      let shard_ids = Array.init d (fun _ -> Vec.create 0) in
      let state_entry = Vec.create 0 in
      let shard_find s key off =
        let e = Store.find shard_tbl.(s) key off in
        if e < 0 || not mapped then e else Vec.get shard_ids.(s) e
      in
      (* Columns are appended before the key, so a failure in between
         leaves them one entry long — trimmed by the next append — and
         never a key without its id. *)
      let reserve_id s id =
        if mapped then begin
          Vec.truncate shard_ids.(s) (Store.length shard_tbl.(s));
          Vec.push shard_ids.(s) id
        end
      in
      let shard_add s key off id =
        if aliasing then begin
          Vec.truncate state_entry id;
          Vec.push state_entry (Store.length shard_tbl.(s))
        end;
        reserve_id s id;
        let e = Store.add shard_tbl.(s) key off in
        assert (mapped || e = id)
      in
      let n_aliases = ref 0 in
      let alias key id =
        (* bounded like the memos *)
        if !n_aliases < canon_memo_cap then begin
          reserve_id 0 id;
          ignore (Store.add shard_tbl.(0) key 0);
          incr n_aliases
        end
      in
      (* Per-shard scratch: the fresh keys of this generation, each with
         its first candidate index in [scratch_first], so later duplicates
         resolve to it. *)
      let scratch = Array.init d (fun _ -> Store.create ~key_len ()) in
      let scratch_first = Array.init d (fun _ -> Vec.create 0) in
      (* [kmax] bounds successors per state: each of the n processes
         contributes at most two, via a coin. *)
      let kmax = max 1 (2 * n_procs) in
      (* Exploration state: fresh, or rebuilt from the snapshot. In a
         snapshot all expanded states form the prefix [0, n_expanded) of
         the id order and the pending frontier is the rest. *)
      let init_states, init_orbits, init_succs =
        match resumed with
        | None -> ([| rep0 |], [| orbit0 |], [||])
        | Some sp -> (sp.sp_states, sp.sp_orbits, sp.sp_succs)
      in
      (* Shared per-generation structures. Plain refs: a unit's writes are
         published by its atomic completion mark, which the supervisor
         reads before the next step, and the supervisor's writes by the
         atomic publication of the next epoch. *)
      let stop = ref false in
      let n_expanded = ref (Array.length init_succs) in
      let frontier =
        ref
          (Array.sub init_states !n_expanded
             (Array.length init_states - !n_expanded))
      in
      (* per frontier state: (label, rep, orbit) of each successor, and
         their keys back to back *)
      let succ_lists : ((label * state * int) list * Bytes.t) array ref =
        ref [||]
      in
      let offsets = ref [||] in
      let cand_state = ref [||] in
      let cand_keys = ref Bytes.empty in  (* candidate k's key at k * key_len *)
      let cand_orbit = ref [||] in
      let cand_owner = ref [||] in
      (* resolved.(k): id >= 0 existing state; -1 fresh (first occurrence
         in this generation); -2 - k0 duplicate of candidate k0. *)
      let resolved = ref [||] in
      (* cand_id.(k): final state id, or -1 when the budget dropped it. *)
      let cand_id = ref [||] in
      let trans : transition list array ref = ref [||] in
      let n_states = ref (Array.length init_states) in
      let complete = ref true in
      let states_chunks = ref [ init_states ] in
      let orbits_chunks = ref [ init_orbits ] in
      let trans_chunks =
        ref (if Array.length init_succs = 0 then [] else [ init_succs ])
      in
      (* stats accumulators (the supervisor only) *)
      let depth = ref (match resumed with Some sp -> sp.sp_depth | None -> 0) in
      let depths_rev =
        ref (match resumed with Some sp -> sp.sp_depths_rev | None -> [])
      in
      (* The initial state is a candidate too — it is interned exactly like
         any successor — so fresh runs start at 1, keeping the invariant
         [candidates = n_states + dedup_hits] on complete runs. (Snapshots
         carry the running total; the format version gates out pre-fix
         snapshots whose totals were one short.) *)
      let total_cand =
        ref (match resumed with Some sp -> sp.sp_candidates | None -> 1)
      in
      let total_dups =
        ref (match resumed with Some sp -> sp.sp_dedup | None -> 0)
      in
      let max_frontier =
        ref (match resumed with Some sp -> sp.sp_max_frontier | None -> 1)
      in
      (* The exception that ended the run. Only the calling domain records
         one: a crew worker that raises just dies, and the supervisor
         requeues its units. *)
      let failure = ref None in
      let guard f = try f () with e -> failure := Some e in
      orbit_sum :=
        (match resumed with Some sp -> sp.sp_orbit_sum | None -> orbit0);
      (* (Re)build the interning tables. The codec dump keeps re-encoded
         keys consistent with the interrupted run's; shard ownership is
         structural, so each state lands back in the shard it owned.
         States in a snapshot are already canonical — no
         re-canonicalization here. *)
      Array.iteri
        (fun id st ->
          load_parent kxs.(0) st;
          shard_add (state_owner st) kxs.(0).k_parent 0 id)
        init_states;
      (* Setup of a wide (parallel-mode) generation, run by the
         supervisor as it closes the previous one. *)
      let prep_parallel_gen head =
        let nf = Array.length head in
        succ_lists := Array.make nf ([], Bytes.empty);
        trans := Array.make nf []
      in
      (* Mode of the generation about to run; the supervisor decides the
         next one at every generation end. *)
      let seq_gen = ref (d = 1 || Array.length !frontier < par_threshold) in
      if not !seq_gen then prep_parallel_gen !frontier;
      (* Batch-carry: under memory pressure a generation's frontier is
         split into prefix batches of at most [batch_cap] states. Graph
         and id order stay bit-identical (expansion still proceeds in id
         order); only the per-depth sample granularity degrades. *)
      let pending_carry = ref [||] in
      let batch_cap = ref max_int in
      let min_batch = 16 in
      let soft_limit_bytes =
        match mem_soft_limit_mb with
        | Some mb -> Some (mb * 1024 * 1024)
        | None -> None
      in
      let heap_bytes () =
        let s = Gc.quick_stat () in
        s.Gc.heap_words * (Sys.word_size / 8)
      in
      let capture_boundary () =
        {
          b_states = !states_chunks;
          b_orbits = !orbits_chunks;
          b_trans = !trans_chunks;
          b_n_states = !n_states;
          b_n_expanded = !n_expanded;
          b_depth = !depth;
          b_depths_rev = !depths_rev;
          b_cand = !total_cand;
          b_dups = !total_dups;
          b_max_frontier = !max_frontier;
          b_orbit_sum = !orbit_sum;
          b_cutover = !cutover;
        }
      in
      (* The newest boundary at which the run was still exact; when the
         budget truncates or a signal stops us, this is what gets flushed
         to disk so a resumed run can replay the suffix bit-identically. *)
      let last_boundary = ref (capture_boundary ()) in
      let last_snapshot_states = ref !n_states in
      let snapshot_gap =
        match snapshot_every with
        | Some e -> max 1 e
        | None -> default_snapshot_every
      in
      let write_boundary path bd =
        let payload =
          {
            sp_states = Array.concat (List.rev bd.b_states);
            sp_orbits = Array.concat (List.rev bd.b_orbits);
            sp_succs = Array.concat (List.rev bd.b_trans);
            sp_depth = bd.b_depth;
            sp_depths_rev = bd.b_depths_rev;
            sp_candidates = bd.b_cand;
            sp_dedup = bd.b_dups;
            sp_max_frontier = bd.b_max_frontier;
            sp_orbit_sum = bd.b_orbit_sum;
            sp_cutover = bd.b_cutover;
            sp_elapsed = Checker_stats.now () -. t0;
            sp_codec = Cd.dump codec;
            sp_rng = None;
          }
        in
        let digest, descr = Lazy.force fp in
        (* durable O(new data) append; the snapshot layer compacts the
           file back to one chunk every [Snapshot.max_chunks] boundaries *)
        Snapshot.append ~path ~fingerprint:digest ~descr
          (Marshal.to_string payload [])
      in
      (* Close out a generation: record its transitions and stats, append
         the fresh states (already in id order), stash the resume boundary
         and pick the next mode. *)
      let finish_gen ~tr ~fresh ~orbs ~ncand ~dups ~discovered =
        (* fault seam: a matured Alloc_fail raises [Out_of_memory] here,
           before this generation is committed, exercising the same
           degradation path a real allocation failure would *)
        Resilience.boundary_tick ();
        trans_chunks := tr :: !trans_chunks;
        n_expanded := !n_expanded + Array.length tr;
        depths_rev :=
          {
            Checker_stats.depth = !depth;
            frontier = Array.length !frontier;
            candidates = ncand;
            discovered;
            duplicates = dups;
          }
          :: !depths_rev;
        total_cand := !total_cand + ncand;
        total_dups := !total_dups + dups;
        let nf = Array.length fresh in
        if nf > 0 then begin
          states_chunks := fresh :: !states_chunks;
          orbits_chunks := orbs :: !orbits_chunks
        end;
        let next =
          if Array.length !pending_carry = 0 then fresh
          else Array.append !pending_carry fresh
        in
        let nn = Array.length next in
        if nn = 0 then stop := true
        else begin
          if nn > !max_frontier then max_frontier := nn;
          (* graceful degradation: past the soft memory watermark, halve
             the expansion batch (floor [min_batch]) and checkpoint now
             rather than running into [Out_of_memory] with nothing saved *)
          let pressured =
            match soft_limit_bytes with
            | Some limit -> heap_bytes () > limit
            | None -> false
          in
          if pressured then
            batch_cap :=
              if !batch_cap = max_int then max min_batch (nn / 2)
              else max min_batch (!batch_cap / 2);
          let head, carry =
            if nn > !batch_cap then
              ( Array.sub next 0 !batch_cap,
                Array.sub next !batch_cap (nn - !batch_cap) )
            else (next, [||])
          in
          pending_carry := carry;
          frontier := head;
          incr depth;
          seq_gen := d = 1 || Array.length head < par_threshold;
          if not !seq_gen then prep_parallel_gen head;
          (* the run is exact up to this boundary: stash it (O(1)) and
             service periodic durable snapshots *)
          if !complete then begin
            last_boundary := capture_boundary ();
            match snapshot_to with
            | Some path
              when pressured
                   || !n_states - !last_snapshot_states >= snapshot_gap ->
              write_boundary path !last_boundary;
              last_snapshot_states := !n_states
            | _ -> ()
          end;
          if pressured then Gc.compact ();
          (* SIGINT/SIGTERM (or a programmatic stop request): stop at this
             boundary; the final snapshot is flushed on the way out *)
          if Snapshot.stop_requested () then begin
            complete := false;
            set_stop Checker_stats.Interrupted;
            stop := true
          end;
          (* wall-clock deadline: same graceful stop, distinct reason so
             the CLI can map it to its own exit code *)
          (match deadline_at with
          | Some td when Checker_stats.now () >= td ->
            complete := false;
            set_stop Checker_stats.Deadline;
            stop := true
          | _ -> ())
        end
      in
      (* One whole generation, sequentially, on the calling domain (the
         warm-up, or the supervisor). Interns straight into the shard
         tables so later parallel generations find the states in the
         right shard. *)
      let expand_seq () =
        let fr = !frontier in
        let nf = Array.length fr in
        let tr = Array.make nf [] in
        let kx = kxs.(0) in
        let fresh_rev = ref [] in
        let orb_rev = ref [] in
        let ncand = ref 0 and dups = ref 0 and discovered = ref 0 in
        let out = ref [] in
        let known dst label =
          incr dups;
          out := { dst; label } :: !out
        in
        (* intern the current successor under [key] in shard [s]; its id,
           or -1 when the budget drops it *)
        let fresh s key label =
          if !n_states >= max_states then begin
            complete := false;
            set_stop Checker_stats.Budget;
            -1
          end
          else begin
            let id = !n_states in
            incr n_states;
            incr discovered;
            shard_add s key 0 id;
            orbit_sum := !orbit_sum + kx.k_orbit;
            fresh_rev := keyed_rep kx :: !fresh_rev;
            orb_rev := kx.k_orbit :: !orb_rev;
            out := { dst = id; label } :: !out;
            id
          end
        in
        let on_succ label =
          incr ncand;
          if d > 1 then begin
            (* the owner hash is the one reason to box a known successor *)
            let s = state_owner (keyed_rep kx) in
            let dst = shard_find s kx.k_key 0 in
            if dst >= 0 then known dst label else ignore (fresh s kx.k_key label)
          end
          else begin
            let dst = shard_find 0 kx.k_key 0 in
            if dst >= 0 then begin
              (* under aliasing, a raw key seen before: a canonization
                 saved, counted like a memo hit *)
              if aliasing then kx.k_hits <- kx.k_hits + 1;
              known dst label
            end
            else
              match kx.k_inc with
              | Some inc when not (keyed_canonize kx inc) ->
                (* a raw key never seen: alias it to the state its
                   canonical key resolves to *)
                let dst = shard_find 0 kx.k_canon 0 in
                let dst =
                  if dst >= 0 then begin
                    known dst label;
                    dst
                  end
                  else fresh 0 kx.k_canon label
                in
                if dst >= 0 then alias kx.k_key dst
              | _ ->
                (* Full, or a canonical raw key, which the probe above
                   would have found were the state known *)
                ignore (fresh 0 kx.k_key label)
          end
        in
        for i = 0 to nf - 1 do
          (* fault seam: a matured kill/stall for domain 0 fires here *)
          Resilience.worker_tick ~domain:0;
          (if d > 1 then load_parent kx fr.(i)
           else
             let id = !n_expanded + i in
             Store.blit_key shard_tbl.(0)
               (if aliasing then Vec.get state_entry id else id)
               kx.k_parent 0);
          out := [];
          each_successor kx cfg fr.(i) on_succ;
          tr.(i) <- List.rev !out
        done;
        finish_gen ~tr
          ~fresh:(Array.of_list (List.rev !fresh_rev))
          ~orbs:(Array.of_list (List.rev !orb_rev))
          ~ncand:!ncand ~dups:!dups ~discovered:!discovered
      in
      let expand_seq_guarded () =
        guard expand_seq;
        if !failure <> None then stop := true
      in
      (* Phase A's unit: every successor of [st] as (label, rep, orbit),
         plus their keys back to back — one buffer per expanded state,
         not one string per candidate. *)
      let expand_listed kx st =
        load_parent kx st;
        let buf = Bytes.create (kmax * key_len) in
        let acc = ref [] and cnt = ref 0 in
        each_successor kx cfg st (fun label ->
            Bytes.blit kx.k_key 0 buf (!cnt * key_len) key_len;
            incr cnt;
            acc := (label, keyed_rep kx, kx.k_orbit) :: !acc);
        (List.rev !acc, Bytes.sub buf 0 (!cnt * key_len))
      in
      let flatten () =
        let fr = !frontier and sl = !succ_lists in
        let nf = Array.length fr in
        let offs = Array.make nf 0 in
        let ncand = ref 0 in
        for i = 0 to nf - 1 do
          offs.(i) <- !ncand;
          ncand := !ncand + List.length (fst sl.(i))
        done;
        let ncand = !ncand in
        let cs = Array.make ncand rep0 in
        let ck = Bytes.create (ncand * key_len) in
        let co = Array.make ncand 0 in
        let ow = Array.make ncand 0 in
        for i = 0 to nf - 1 do
          let items, keys = sl.(i) in
          Bytes.blit keys 0 ck (offs.(i) * key_len) (Bytes.length keys);
          List.iteri
            (fun j (_, st', orbit) ->
              cs.(offs.(i) + j) <- st';
              co.(offs.(i) + j) <- orbit;
              ow.(offs.(i) + j) <- state_owner st')
            items
        done;
        offsets := offs;
        cand_state := cs;
        cand_keys := ck;
        cand_orbit := co;
        cand_owner := ow;
        resolved := Array.make ncand (-1);
        cand_id := Array.make ncand (-1)
      in
      (* Phase B's unit: resolve shard [s]'s candidates. It starts from a
         clean scratch, so a requeued redo is idempotent. *)
      let phase_b s =
        let ck = !cand_keys and ow = !cand_owner and rs = !resolved in
        let scr = scratch.(s) and first = scratch_first.(s) in
        Store.reset scr;
        Vec.clear first;
        Array.iteri
          (fun k o ->
            if o = s then begin
              let off = k * key_len in
              let id = shard_find s ck off in
              if id >= 0 then rs.(k) <- id
              else
                let e = Store.find scr ck off in
                if e >= 0 then rs.(k) <- -2 - Vec.get first e
                else begin
                  ignore (Store.add scr ck off);
                  Vec.push first k;
                  rs.(k) <- -1
                end
            end)
          ow
      in
      (* Phase C's first unit: intern shard [s]'s fresh candidates. A key
         already present is skipped, so a requeued redo is idempotent. *)
      let insert_fresh s =
        let ck = !cand_keys and ow = !cand_owner and rs = !resolved
        and ci = !cand_id in
        Array.iteri
          (fun k o ->
            if o = s && rs.(k) = -1 && ci.(k) >= 0
               && shard_find s ck (k * key_len) < 0
            then shard_add s ck (k * key_len) ci.(k))
          ow
      in
      (* Phase C's second unit: the transition lists of frontier state [i]. *)
      let transitions_of i =
        let base = !offsets.(i) and ci = !cand_id in
        let j = ref (-1) in
        !trans.(i) <-
          List.filter_map
            (fun (label, _, _) ->
              incr j;
              let dst = ci.(base + !j) in
              if dst >= 0 then Some { dst; label } else None)
            (fst !succ_lists.(i))
      in
      (* The one inherently sequential step: replay the candidate scan the
         sequential explorer would have done, in the same order, so fresh
         states receive identical ids and the budget truncates at the
         identical point. *)
      (* per-generation counters stashed for [collect] *)
      let gen_cand = ref 0 and gen_dups = ref 0 and gen_disc = ref 0 in
      let assign_ids () =
        let rs = !resolved and ci = !cand_id and co = !cand_orbit in
        let ncand = Array.length rs in
        let discovered = ref 0 and dups = ref 0 in
        for k = 0 to ncand - 1 do
          match rs.(k) with
          | -1 ->
            if !n_states < max_states then begin
              ci.(k) <- !n_states;
              incr n_states;
              incr discovered;
              orbit_sum := !orbit_sum + co.(k)
            end
            else begin
              complete := false;
              set_stop Checker_stats.Budget;
              ci.(k) <- -1
            end
          | r when r >= 0 ->
            ci.(k) <- r;
            incr dups
          | r ->
            (* duplicate of candidate [-2 - r], already resolved above *)
            let k0 = -2 - r in
            ci.(k) <- ci.(k0);
            if ci.(k0) >= 0 then incr dups
            else begin
              complete := false;
              set_stop Checker_stats.Budget
            end
        done;
        gen_cand := ncand;
        gen_dups := !dups;
        gen_disc := !discovered
      in
      let collect () =
        let rs = !resolved and ci = !cand_id and cs = !cand_state
        and co = !cand_orbit in
        let fresh_rev = ref [] and orb_rev = ref [] in
        for k = Array.length rs - 1 downto 0 do
          if rs.(k) = -1 && ci.(k) >= 0 then begin
            fresh_rev := cs.(k) :: !fresh_rev;
            orb_rev := co.(k) :: !orb_rev
          end
        done;
        finish_gen ~tr:!trans
          ~fresh:(Array.of_list !fresh_rev)
          ~orbs:(Array.of_list !orb_rev)
          ~ncand:!gen_cand ~dups:!gen_dups ~discovered:!gen_disc
      in
      (* -------- the crew (self-healing choreography) ------------------
         Coordination runs through {e epochs}: work units claimed by
         compare-and-set from a shared table published as one atomic
         record. Every unit is idempotent — phase B resets its scratch
         before resolving, phase C1 skips keys already interned, phases
         A/C2 write disjoint array slots — so when a worker domain dies
         the units it had claimed are simply requeued for the survivors
         and the domain is respawned with bounded, jittered backoff. The
         supervisor is slot 0 of the crew and claims units too, so an
         epoch drains even after a slot has exhausted its restarts.

         A domain that is still alive but stops heartbeating while holding
         a unit can NOT be requeued safely (it may yet write its slots),
         so after an escalating patience budget the whole attempt is
         abandoned with {!Resilience.Stalled}; {!with_recovery} then
         resumes from the last durable snapshot. *)
      let supervised_drive () =
        let chunk = 32 in
        let cur = Atomic.make { ep_units = [||]; ep_fn = (fun _ _ -> ()) } in
        let quit = Atomic.make false in
        let alive = Array.init d (fun _ -> Atomic.make false) in
        let hb = Array.init d (fun _ -> Atomic.make 0) in
        let abandoned = Array.make d false in
        let doms : unit Domain.t option array = Array.make d None in
        let restart_count = Array.make d 0 in
        let respawn_at = Array.make d infinity in
        (* jitter desynchronizes respawns; the values never influence the
           explored graph, so a fixed seed keeps campaigns replayable *)
        let jrng = Rng.create 0x7E57 in
        let max_domain_restarts = 3 in
        let patience_base = 0.1 in
        let max_patience_levels = 3 in
        (* Run every unit of [ep] that [slot] can claim; whether it
           claimed any. *)
        let work ep slot =
          let us = ep.ep_units in
          let did = ref false in
          for u = 0 to Array.length us - 1 do
            if
              Atomic.get us.(u) = 0
              && Atomic.compare_and_set us.(u) 0 (slot + 1)
            then begin
              did := true;
              Atomic.incr hb.(slot);
              Resilience.worker_tick ~domain:slot;
              ep.ep_fn slot u;
              Atomic.set us.(u) (-1)
            end
          done;
          !did
        in
        let worker slot () =
          (try
             let idle = ref 0 in
             while not (Atomic.get quit) do
               if work (Atomic.get cur) slot then idle := 0
               else begin
                 incr idle;
                 (* heartbeat + fault poll while idle, so a kill aimed at
                    a domain between epochs still fires *)
                 if !idle land 1023 = 0 then begin
                   Atomic.incr hb.(slot);
                   Resilience.worker_tick ~domain:slot
                 end;
                 (* between epochs and through sequential generations an
                    idle worker must really yield, or on an oversubscribed
                    host it competes with the supervisor for a core *)
                 if !idle land 63 = 0 then Unix.sleepf 0.0001
                 else Domain.cpu_relax ()
               end
             done
           with _ -> ());
          Atomic.set alive.(slot) false
        in
        let spawn slot =
          (match doms.(slot) with
          | Some dh -> Domain.join dh (* already exited: reap promptly *)
          | None -> ());
          Atomic.set alive.(slot) true;
          doms.(slot) <- Some (Domain.spawn (worker slot))
        in
        let shutdown () =
          Atomic.set quit true;
          Array.iteri
            (fun w dh ->
              match dh with
              | Some dh when not abandoned.(w) ->
                Domain.join dh;
                doms.(w) <- None
              | _ ->
                (* an abandoned (wedged) domain is leaked on purpose:
                   joining it would wedge the supervisor too; if it ever
                   wakes it sees [quit] and exits on its own *)
                ())
            doms
        in
        (* One supervision pass over the crew. [us] is the epoch's unit
           table — a cell at [w + 1] means slot [w] holds that unit. A dead
           slot's units are requeued and the domain respawns under
           bounded, jittered backoff; a live-but-silent holder gets the
           escalating patience treatment and finally abandonment. *)
        let monitor ~us ~last_hb ~t_mark ~level =
          let t = Checker_stats.now () in
          for w = 1 to d - 1 do
            if doms.(w) <> None && not abandoned.(w) then
              if not (Atomic.get alive.(w)) then begin
                Array.iter
                  (fun u -> ignore (Atomic.compare_and_set u (w + 1) 0))
                  us;
                if respawn_at.(w) = infinity then begin
                  if restart_count.(w) < max_domain_restarts then begin
                    let backoff =
                      0.001
                      *. float_of_int (1 lsl restart_count.(w))
                      *. (1. +. Rng.float jrng)
                    in
                    restart_count.(w) <- restart_count.(w) + 1;
                    incr restarts_total;
                    respawn_at.(w) <- t +. backoff
                  end
                  else begin
                    (* restart budget exhausted: reap the corpse and
                       carry on with a smaller crew *)
                    (match doms.(w) with
                    | Some dh -> Domain.join dh
                    | None -> ());
                    doms.(w) <- None
                  end
                end
                else if t >= respawn_at.(w) then begin
                  respawn_at.(w) <- infinity;
                  spawn w;
                  (* a fresh worker starts with a fresh stall clock *)
                  last_hb.(w) <- Atomic.get hb.(w);
                  t_mark.(w) <- t;
                  level.(w) <- 0
                end
              end
              else begin
                let beat = Atomic.get hb.(w) in
                if beat <> last_hb.(w) then begin
                  last_hb.(w) <- beat;
                  t_mark.(w) <- t;
                  level.(w) <- 0
                end
                else if Array.exists (fun u -> Atomic.get u = w + 1) us
                then begin
                  let threshold =
                    patience_base *. float_of_int (1 lsl level.(w))
                  in
                  if t -. t_mark.(w) > threshold then
                    if level.(w) < max_patience_levels then begin
                      level.(w) <- level.(w) + 1;
                      t_mark.(w) <- t
                    end
                    else begin
                      abandoned.(w) <- true;
                      raise
                        (Resilience.Stalled
                           {
                             domain = w;
                             waited_s =
                               patience_base
                               *. float_of_int
                                    ((1 lsl (max_patience_levels + 1)) - 1);
                           })
                    end
                end
              end
          done
        in
        let run_epoch ~n_units fn =
          let ep =
            {
              ep_units = Array.init n_units (fun _ -> Atomic.make 0);
              ep_fn = fn;
            }
          in
          Atomic.set cur ep;
          let us = ep.ep_units in
          let all_done () = Array.for_all (fun u -> Atomic.get u = -1) us in
          let last_hb = Array.map Atomic.get hb in
          let t_mark = Array.make d (Checker_stats.now ()) in
          let level = Array.make d 0 in
          let spins = ref 0 in
          (* the supervisor takes units too; requeued units are claimable
             again, so it keeps taking what is left *)
          while (ignore (work ep 0); not (all_done ())) do
            incr spins;
            if !spins land 255 = 0 then Unix.sleepf 0.0002
            else Domain.cpu_relax ();
            monitor ~us ~last_hb ~t_mark ~level
          done
        in
        let run_parallel_gen () =
          let nf = Array.length !frontier in
          let nc = (nf + chunk - 1) / chunk in
          (* A: expand + canonize, in frontier chunks *)
          run_epoch ~n_units:nc (fun slot u ->
              let fr = !frontier and sl = !succ_lists in
              let lo = u * chunk in
              let hi = min nf (lo + chunk) in
              for i = lo to hi - 1 do
                sl.(i) <- expand_listed kxs.(slot) fr.(i)
              done);
          flatten ();
          (* B: per-shard resolve *)
          run_epoch ~n_units:d (fun _ s -> phase_b s);
          assign_ids ();
          (* C1: per-shard insert *)
          run_epoch ~n_units:d (fun _ s -> insert_fresh s);
          (* C2: transition lists, in frontier chunks (disjoint slots) *)
          run_epoch ~n_units:nc (fun _ u ->
              let lo = u * chunk in
              for i = lo to min nf (lo + chunk) - 1 do
                transitions_of i
              done);
          collect ()
        in
        (* warm-up: no worker domain until the frontier is wide enough
           — or exploration finishes first. Exceptions (a kill aimed at
           domain 0, an injected allocation failure) propagate to the
           outer guard. *)
        while (not !stop) && !seq_gen do
          expand_seq ()
        done;
        if not !stop then begin
          (* a resumed run keeps the original run's recorded cutover *)
          if !cutover = None then cutover := Some !depth;
          for w = 1 to d - 1 do
            spawn w
          done;
          Fun.protect ~finally:shutdown (fun () ->
              while not !stop do
                if !seq_gen then expand_seq () else run_parallel_gen ()
              done)
        end
      in
      (* A snapshot of a finished exploration resumes to an empty
         frontier: nothing to do, return the restored graph as-is. *)
      if Array.length !frontier = 0 then stop := true;
      if d = 1 then
        while not !stop do
          expand_seq_guarded ()
        done
      else guard supervised_drive;
      (* Build the result from a boundary image. When the boundary has
         unexpanded frontier states (stopped by a signal, or degraded out
         of an [Out_of_memory]), their transition lists are empty in the
         returned graph — the snapshot, not this graph, is the resume
         artifact. *)
      let result_of bd ~complete =
        let states = Array.concat (List.rev bd.b_states) in
        let orbits = Array.concat (List.rev bd.b_orbits) in
        let expanded = Array.concat (List.rev bd.b_trans) in
        assert (Array.length states = bd.b_n_states);
        assert (Array.length orbits = bd.b_n_states);
        assert (Array.length expanded = bd.b_n_expanded);
        let succs =
          if bd.b_n_expanded = bd.b_n_states then expanded
          else begin
            assert (not complete);
            Array.init bd.b_n_states (fun i ->
                if i < bd.b_n_expanded then expanded.(i) else [])
          end
        in
        let n_transitions =
          Array.fold_left (fun acc ts -> acc + List.length ts) 0 succs
        in
        orbit_sum := bd.b_orbit_sum;
        cutover := bd.b_cutover;
        let g = { cfg; states; orbits; succs; complete } in
        let stats =
          stats_base ~n_states:bd.b_n_states ~n_transitions
            ~max_depth:bd.b_depth ~max_frontier:bd.b_max_frontier
            ~candidates:bd.b_cand ~dedup_hits:bd.b_dups
            ~shard_load:
              (if d = 1 then [| !n_states |]
               else Array.map Store.length shard_tbl)
            ~complete ~depths:(List.rev bd.b_depths_rev)
        in
        (g, stats)
      in
      match !failure with
      | Some ((Out_of_memory | Resilience.Stalled _) as e)
        when snapshot_to <> None ->
        (* last-ditch degradation: flush the newest exact boundary and
           hand back a truncated result instead of dying with nothing *)
        set_stop
          (match e with
          | Out_of_memory -> Checker_stats.Oom
          | _ -> Checker_stats.Fault);
        (match snapshot_to with
        | Some path -> (
          try write_boundary path !last_boundary with Snapshot.Error _ -> ())
        | None -> ());
        result_of !last_boundary ~complete:false
      | Some e -> raise e
      | None ->
        (* a truncated (budget or signal) run leaves its newest exact
           boundary on disk so it can be resumed later *)
        (match snapshot_to with
        | Some path when not !complete -> write_boundary path !last_boundary
        | _ -> ());
        result_of (capture_boundary ()) ~complete:!complete
    end

  let explore_with_stats ?(max_states = 2_000_000) ?(reduction = Full)
      ?snapshot_every ?snapshot_to ?resume_from ?mem_soft_limit_mb ?deadline_s
      ?(salvage = false) cfg =
    explore_impl ~max_states ~domains:1 ~par_threshold:0 ~reduction
      ~snapshot_every ~snapshot_to ~resume_from ~mem_soft_limit_mb ~deadline_s
      ~salvage cfg

  let default_par_threshold ~domains = 1024 * (domains - 1)

  let explore_par ?(max_states = 2_000_000) ?domains ?par_threshold
      ?(reduction = Full) ?snapshot_every ?snapshot_to ?resume_from
      ?mem_soft_limit_mb ?deadline_s ?(salvage = false) cfg =
    let domains =
      match domains with
      | Some d -> max 1 d (* explicit override, even past the host count *)
      | None -> Domain.recommended_domain_count ()
    in
    let par_threshold =
      match par_threshold with
      | Some t -> max 0 t
      | None -> default_par_threshold ~domains
    in
    explore_impl ~max_states ~domains ~par_threshold ~reduction ~snapshot_every
      ~snapshot_to ~resume_from ~mem_soft_limit_mb ~deadline_s ~salvage cfg

  let explore ?(max_states = 2_000_000) ?(reduction = Full) ?snapshot_every
      ?snapshot_to ?resume_from ?deadline_s ?(salvage = false) cfg =
    match (snapshot_every, snapshot_to, resume_from, deadline_s) with
    | None, None, None, None -> explore_basic ~max_states ~reduction cfg
    | _ ->
      (* Checkpointing lives in the generation-boundary machinery; its
         single-domain graph is bit-identical to the plain loop (the test
         suite cross-checks this on every in-tree protocol). *)
      fst
        (explore_impl ~max_states ~domains:1 ~par_threshold:0 ~reduction
           ~snapshot_every ~snapshot_to ~resume_from ~mem_soft_limit_mb:None
           ~deadline_s ~salvage cfg)

  (* ---------------------------------------------------------------- *)
  (* external-memory exploration (disk-backed visited set)             *)
  (* ---------------------------------------------------------------- *)

  (* Checkpoint payload of the external-memory explorer. Stats-only — no
     transition lists: the resume point is the pending frontier plus the
     visited set, which lives partly here ([xp_hot]) and partly in the
     immutable run files the manifest names. *)
  type external_payload = {
    xp_frontier : state array;
    xp_depth : int;
    xp_depths_rev : Checker_stats.depth_sample list;
    xp_n_states : int;
    xp_n_transitions : int;
    xp_candidates : int;
    xp_dedup : int;
    xp_max_frontier : int;
    xp_orbit_sum : int;
    xp_elapsed : float;
    xp_codec : Cd.dump;
    xp_hot : string array;
    xp_manifest : Disk_visited.manifest;
  }

  (* Distinct from the in-RAM fingerprint: an external checkpoint holds no
     transition lists and references run files, so the two snapshot kinds
     must never accept each other. *)
  let external_fingerprint ~reduction cfg =
    let digest, descr = fingerprint ~reduction cfg in
    ( Digest.string (Marshal.to_string (digest, "external") []),
      descr ^ " engine=external" )

  let explore_external ?(max_states = 2_000_000) ?(reduction = Full)
      ?snapshot_every ?snapshot_to ?resume_from ?mem_soft_limit_mb
      ?(hot_cap = 1 lsl 20) ?disk_quota_bytes ?deadline_s ?(salvage = false)
      ?(wide = false) ~dir cfg =
    let n_procs = Array.length cfg.ids in
    let n_registers = Naming.size cfg.namings.(0) in
    let digest, descr = external_fingerprint ~reduction cfg in
    (* A checkpoint is only usable if every run file its manifest lists
       still validates in full; under [~salvage] walk the intact chunks
       newest first until one's manifest checks out. *)
    let restore_checkpoint path =
      if salvage then begin
        let meta, chunks, salv = Snapshot.read_chunks ~path in
        Snapshot.check_fingerprint ~path meta ~fingerprint:digest ~descr;
        (match salv with
        | Some s ->
          Format.eprintf "snapshot salvage: %s: %s; rolled back to chunk %d@."
            path s.Snapshot.detail s.Snapshot.kept_chunks
        | None -> ());
        let rec pick = function
          | [] ->
            (* every intact chunk names a run set that no longer
               validates (e.g. a short write silently damaged a spilled
               run every surviving manifest lists). Starting over is
               slower but never wrong — and [Disk_visited.create] below
               sweeps the damaged runs away. *)
            Format.eprintf
              "snapshot salvage: no checkpoint of %s has a valid run \
               set; restarting from scratch@."
              path;
            None
          | payload :: older -> (
            let sp : external_payload = Marshal.from_string payload 0 in
            match
              Disk_visited.restore ?quota_bytes:disk_quota_bytes ~dir
                ~fingerprint:digest ~descr sp.xp_manifest
            with
            | dv -> Some (sp, dv)
            | exception Snapshot.Error e ->
              Format.eprintf
                "snapshot salvage: %s; falling back to an older checkpoint@."
                (Snapshot.error_message e);
              pick older)
        in
        pick chunks
      end
      else begin
        let meta, payload = Snapshot.read ~path in
        Snapshot.check_fingerprint ~path meta ~fingerprint:digest ~descr;
        let sp : external_payload = Marshal.from_string payload 0 in
        Some
          ( sp,
            Disk_visited.restore ?quota_bytes:disk_quota_bytes ~dir
              ~fingerprint:digest ~descr sp.xp_manifest )
      end
    in
    let resumed = Option.bind resume_from restore_checkpoint in
    let stopped = ref Checker_stats.Completed in
    let set_stop r =
      if !stopped = Checker_stats.Completed then stopped := r
    in
    let t0 =
      Checker_stats.now ()
      -. (match resumed with Some (sp, _) -> sp.xp_elapsed | None -> 0.)
    in
    let deadline_at =
      Option.map (fun s -> Checker_stats.now () +. s) deadline_s
    in
    let codec =
      match resumed with
      | Some (sp, _) -> Cd.of_dump sp.xp_codec
      | None -> Cd.create ~wide ()
    in
    let key_len = Cd.width codec * (n_registers + n_procs) in
    let dv =
      match resumed with
      | Some (_, dv) -> dv
      | None -> Disk_visited.create ?quota_bytes:disk_quota_bytes ~dir ~key_len ()
    in
    let syms = syms_of ~reduction cfg in
    let group_order = max 1 (List.length syms) in
    let canon = reduction = Canon in
    let degraded = canon && Cn.degraded ~n:n_procs in
    let kx = make_keyed ~memo:true codec syms (initial cfg) in
    (* Visited = hot ∪ runs, disjoint: a key is interned only after both
       proved it absent, and a spill MOVES hot to a run. *)
    let hot = Store.create ~key_len () in
    let n_states = ref 0 in
    let n_transitions = ref 0 in
    let depth = ref 0 in
    let depths_rev : Checker_stats.depth_sample list ref = ref [] in
    let total_cand = ref 1 in
    let total_dups = ref 0 in
    let max_frontier = ref 1 in
    let orbit_sum = ref 0 in
    let frontier = ref ([||] : state array) in
    let complete = ref true in
    (match resumed with
    | Some (sp, _) ->
      (* snapshot keys are immutable strings; the store only reads them *)
      Array.iter (fun k -> ignore (Store.add hot (Bytes.unsafe_of_string k) 0)) sp.xp_hot;
      n_states := sp.xp_n_states;
      n_transitions := sp.xp_n_transitions;
      depth := sp.xp_depth;
      depths_rev := sp.xp_depths_rev;
      total_cand := sp.xp_candidates;
      total_dups := sp.xp_dedup;
      max_frontier := sp.xp_max_frontier;
      orbit_sum := sp.xp_orbit_sum;
      frontier := sp.xp_frontier
    | None ->
      if max_states >= 1 then begin
        let rep0, orbit0 = keyed_root kx (initial cfg) in
        ignore (Store.add hot kx.k_key 0);
        n_states := 1;
        orbit_sum := orbit0;
        frontier := [| rep0 |]
      end
      else begin
        complete := false;
        set_stop Checker_stats.Budget;
        total_cand := 0;
        max_frontier := 0
      end);
    let capture ~complete =
      {
        Checker_stats.protocol = P.name;
        n_procs;
        n_registers;
        domains = 1;
        n_states = !n_states;
        n_transitions = !n_transitions;
        max_depth = !depth;
        max_frontier = !max_frontier;
        candidates = !total_cand;
        dedup_hits = !total_dups;
        shard_load = [| !n_states |];
        elapsed_s = Checker_stats.now () -. t0;
        complete;
        stop = (if complete then Checker_stats.Completed else !stopped);
        restarts = 0;
        recoveries = 0;
        canon;
        degraded;
        group_order;
        orbit_sum = !orbit_sum;
        sig_pruned = keyed_pruned kx;
        canon_hits = kx.k_hits;
        cutover = None;
        steals = 0;
        handoffs = 0;
        spilled_runs = Disk_visited.n_runs dv;
        disk_probes = Disk_visited.n_probes dv;
        depths = List.rev !depths_rev;
      }
    in
    let last_snapshot_states = ref !n_states in
    let snapshot_gap =
      match snapshot_every with
      | Some e -> max 1 e
      | None -> default_snapshot_every
    in
    let write_checkpoint path =
      let payload =
        {
          xp_frontier = !frontier;
          xp_depth = !depth;
          xp_depths_rev = !depths_rev;
          xp_n_states = !n_states;
          xp_n_transitions = !n_transitions;
          xp_candidates = !total_cand;
          xp_dedup = !total_dups;
          xp_max_frontier = !max_frontier;
          xp_orbit_sum = !orbit_sum;
          xp_elapsed = Checker_stats.now () -. t0;
          xp_codec = Cd.dump codec;
          xp_hot = Array.init (Store.length hot) (Store.key hot);
          xp_manifest = Disk_visited.manifest dv;
        }
      in
      Snapshot.append ~path ~fingerprint:digest ~descr
        (Marshal.to_string payload []);
      last_snapshot_states := !n_states
    in
    let soft_limit_bytes =
      Option.map (fun mb -> mb * 1024 * 1024) mem_soft_limit_mb
    in
    let heap_bytes () =
      let s = Gc.quick_stat () in
      s.Gc.heap_words * (Sys.word_size / 8)
    in
    let hot_cap = max 1 hot_cap in
    (* At the watermark, MOVE the hot table to disk as one sorted
       immutable run; spill-then-checkpoint ordering keeps every snapshot
       chunk's manifest/hot/frontier mutually consistent. A spill that
       would breach the byte quota is refused BEFORE any byte is written
       ([`Quota_hit]): the caller cuts the run at this exact boundary
       instead of corrupting or over-filling the run set. *)
    let maybe_spill () =
      let pressured =
        match soft_limit_bytes with
        | Some limit -> heap_bytes () > limit
        | None -> false
      in
      let nh = Store.length hot in
      if nh > 0 && (nh >= hot_cap || pressured) then
        if Disk_visited.would_exceed_quota dv ~adding:(nh * key_len) then
          `Quota_hit
        else begin
          Disk_visited.spill dv ~fingerprint:digest ~descr
            (Store.sorted_keys hot);
          Store.reset hot;
          if pressured then Gc.compact ();
          `Spilled
        end
      else `No_spill
    in
    let stop = ref false in
    (* Scalars of the newest exact boundary, for the Out_of_memory
       degradation path (mid-generation state is not exact). *)
    let last_exact = ref (capture ~complete:!complete) in
    if Array.length !frontier = 0 then stop := true;
    (* Per-generation classification of the candidates: [cls] holds, per
       candidate, -1 when hot already knows its key, else the id of its
       key in [unknown] — a store of the generation's distinct keys
       absent from hot, with each one's first candidate index, state and
       orbit alongside. *)
    let unknown = Store.create ~key_len () in
    let cls = Vec.create 0 in
    let first = Vec.create 0 in
    let u_reps = Vec.create (initial cfg) in
    let u_orbs = Vec.create 0 in
    let classify _label =
      if Store.find hot kx.k_key 0 >= 0 then Vec.push cls (-1)
      else begin
        let e = Store.find unknown kx.k_key 0 in
        if e >= 0 then Vec.push cls e
        else begin
          Vec.push cls (Store.add unknown kx.k_key 0);
          Vec.push first (Vec.length cls - 1);
          Vec.push u_reps (keyed_rep kx);
          Vec.push u_orbs kx.k_orbit
        end
      end
    in
    let run_generation () =
      let fr = !frontier in
      let nf = Array.length fr in
      Store.reset unknown;
      List.iter Vec.clear [ cls; first; u_orbs ];
      Vec.clear u_reps;
      (* expand + canonize every candidate, in frontier order *)
      for i = 0 to nf - 1 do
        (* fault seam, as in the in-RAM engines *)
        Resilience.worker_tick ~domain:0;
        load_parent kx fr.(i);
        each_successor kx cfg fr.(i) classify
      done;
      let ncand = Vec.length cls in
      (* the budget may trip inside this generation: flush the (still
         exact) pre-generation boundary first, so a budget-truncated run
         resumes bit-identically from here *)
      (match snapshot_to with
      | Some path when !complete && !n_states + ncand > max_states ->
        write_checkpoint path
      | _ -> ());
      (* delayed duplicate detection: sort the unknowns once, stream every
         run once *)
      let on_disk = Array.make (Store.length unknown) false in
      if Store.length unknown > 0 then begin
        let order = Store.sorted_ids unknown in
        let found = Disk_visited.probe dv (Array.map (Store.key unknown) order) in
        Array.iteri (fun i e -> on_disk.(e) <- found.(i)) order
      end;
      (* the id scan, in candidate order — identical budget semantics to
         the in-RAM engines. fate of an unknown key: 1 kept (known on
         disk, or interned), 0 dropped by the budget. *)
      let fresh_rev = ref [] in
      let discovered = ref 0 and dups = ref 0 and kept = ref 0 in
      let fate = Array.make (Store.length unknown) (-1) in
      for k = 0 to ncand - 1 do
        let e = Vec.get cls k in
        if e = -1 then begin
          incr dups;
          incr kept
        end
        else if Vec.get first e = k then begin
          if on_disk.(e) then begin
            (* a known state; deliberately NOT cached back into hot —
               that would break hot/runs disjointness. Recurring keys
               are re-probed, the classic DDD trade. *)
            incr dups;
            incr kept;
            fate.(e) <- 1
          end
          else if !n_states < max_states then begin
            incr n_states;
            incr discovered;
            incr kept;
            ignore (Store.add_from hot ~src:unknown e);
            orbit_sum := !orbit_sum + Vec.get u_orbs e;
            fresh_rev := Vec.get u_reps e :: !fresh_rev;
            fate.(e) <- 1
          end
          else begin
            complete := false;
            set_stop Checker_stats.Budget;
            fate.(e) <- 0
          end
        end
        else if fate.(e) = 1 then begin
          incr dups;
          incr kept
        end
        else begin
          (* duplicate of a budget-dropped candidate *)
          complete := false;
          set_stop Checker_stats.Budget
        end
      done;
      (* fault seam: an injected allocation failure fires here, before the
         generation is committed *)
      Resilience.boundary_tick ();
      depths_rev :=
        {
          Checker_stats.depth = !depth;
          frontier = nf;
          candidates = ncand;
          discovered = !discovered;
          duplicates = !dups;
        }
        :: !depths_rev;
      total_cand := !total_cand + ncand;
      total_dups := !total_dups + !dups;
      n_transitions := !n_transitions + !kept;
      let next = Array.of_list (List.rev !fresh_rev) in
      let nn = Array.length next in
      if nn = 0 then stop := true
      else begin
        if nn > !max_frontier then max_frontier := nn;
        frontier := next;
        incr depth;
        let outcome = maybe_spill () in
        (match outcome with
        | `Quota_hit ->
          (* graceful disk-full degradation: this boundary is still
             exact (the hot table simply was not moved to disk), so
             flush it and stop with an honest reason — the run resumes
             under a raised quota from exactly here *)
          complete := false;
          set_stop Checker_stats.Disk_full;
          stop := true;
          (match snapshot_to with
          | Some path -> write_checkpoint path
          | None -> ())
        | `Spilled | `No_spill -> ());
        if !complete then begin
          last_exact := capture ~complete:true;
          match snapshot_to with
          | Some path
            when outcome = `Spilled
                 || !n_states - !last_snapshot_states >= snapshot_gap ->
            write_checkpoint path
          | _ -> ()
        end;
        if Snapshot.stop_requested () then begin
          complete := false;
          set_stop Checker_stats.Interrupted;
          stop := true
        end;
        match deadline_at with
        | Some td when Checker_stats.now () >= td ->
          complete := false;
          set_stop Checker_stats.Deadline;
          stop := true
        | _ -> ()
      end
    in
    try
      while not !stop do
        run_generation ()
      done;
      (* a signal- or deadline-stopped run ends at an exact boundary:
         flush it so the run can be picked up later. (A budget-truncated
         run already flushed its pre-trip boundary above.) *)
      (match snapshot_to with
      | Some path
        when (not !complete)
             && (!stopped = Checker_stats.Interrupted
                || !stopped = Checker_stats.Deadline) ->
        write_checkpoint path
      | _ -> ());
      capture ~complete:!complete
    with Out_of_memory when snapshot_to <> None ->
      (* disk-bounded degradation: the last periodic checkpoint is the
         resume point — writing a new one here would both marshal a large
         payload under memory pressure and capture inexact mid-generation
         state *)
      set_stop Checker_stats.Oom;
      {
        !last_exact with
        Checker_stats.elapsed_s = Checker_stats.now () -. t0;
        complete = false;
        stop = Checker_stats.Oom;
        spilled_runs = Disk_visited.n_runs dv;
        disk_probes = Disk_visited.n_probes dv;
      }

  (* ---------------------------------------------------------------- *)
  (* self-healing driver                                               *)
  (* ---------------------------------------------------------------- *)

  let with_recovery ?(max_retries = 3) ?resume_from ~snapshot_to run =
    let transient = function
      | Out_of_memory | Resilience.Killed _ | Resilience.Stalled _ -> true
      (* injected disk faults fire at most once, so retrying through an
         EIO/ENOSPC/failed-fsync converges just like a kill does *)
      | Resilience.Io_fault _ -> true
      | Snapshot.Error (Snapshot.Corrupt _) -> true
      | _ -> false
    in
    (* Only hand the next attempt a resume point that will actually load;
       with no usable snapshot on disk the retry restarts from scratch —
       slower, never wrong. *)
    let usable_snapshot () =
      match Snapshot.read_salvaged ~path:snapshot_to with
      | _ -> Some snapshot_to
      | exception _ -> None
    in
    (* [attempt] is ONE counter over every retry, whatever mix of fault
       kinds forced them — an alternating kill/stall/EIO plan spends the
       same bounded budget a single repeated fault would. The count is
       stamped into the returned statistics as [recoveries]. *)
    let rec go attempt resume =
      match run ~resume_from:resume ~snapshot_to with
      | (g, stats)
        when (not g.complete)
             && (stats.Checker_stats.stop = Checker_stats.Oom
                || stats.Checker_stats.stop = Checker_stats.Fault)
             && attempt < max_retries ->
        (* the engine degraded out of an infrastructure failure after
           flushing its newest boundary: pick it up and push on *)
        go (attempt + 1) (usable_snapshot ())
      | g, stats ->
        (g, { stats with Checker_stats.recoveries = attempt })
      | exception e when transient e && attempt < max_retries ->
        go (attempt + 1) (usable_snapshot ())
    in
    go 0 resume_from

  let solo_run cfg st ~proc ~max_steps =
    let rec go st steps =
      match P.status st.locals.(proc) with
      | Protocol.Decided v -> `Decided v
      | _ ->
        if steps >= max_steps then `Out_of_steps
        else
          let n = Array.length st.locals in
          let m = Array.length st.mem in
          match P.step ~n ~m ~id:cfg.ids.(proc) st.locals.(proc) with
          | Protocol.Coin _ -> `Coin
          | _ ->
            (match step_states cfg st proc with
            | [ st' ] -> go st' (steps + 1)
            | _ -> assert false)
    in
    go st 0

  (* Memo entries record EXACT distances along a solo run, so a hit
     reproduces precisely what the unmemoized walk would have returned
     at any starting depth:
       MDec (s, v)   the run decides v after exactly s further steps
       MCoin s       the first coin flip is exactly s further steps away
       MNoDec s      s further steps were once walked with no decision
                     and no coin (a bound cut the witness off there)
     MDec/MCoin are total information and never change; MNoDec is a lower
     bound and only ever grows. *)
  type solo_memo = MDec of int * P.output | MCoin of int | MNoDec of int

  let check_obstruction_freedom ?bound ?(memo = true) g =
    let n = Array.length g.cfg.ids in
    let m = Naming.size g.cfg.namings.(0) in
    let bound =
      match bound with Some b -> b | None -> 4 * m * (n + 2) * (n + 2)
    in
    let solo =
      if not memo then fun st proc -> solo_run g.cfg st ~proc ~max_steps:bound
      else begin
        let codec = Cd.create () in
        let tbl : (string, solo_memo) Hashtbl.t = Hashtbl.create 4096 in
        let store key e =
          match (Hashtbl.find_opt tbl key, e) with
          | Some (MDec _ | MCoin _), _ -> ()
          | Some (MNoDec s), MNoDec s' when s' <= s -> ()
          | _ -> Hashtbl.replace tbl key e
        in
        let record visited mk = List.iter (fun (key, i) -> store key (mk i)) visited in
        fun st0 proc ->
          let rec go st k visited =
            match P.status st.locals.(proc) with
            | Protocol.Decided v ->
              record visited (fun i -> MDec (k - i, v));
              `Decided v
            | _ -> (
              let key = Cd.encode_solo codec ~proc st.locals.(proc) st.mem in
              match Hashtbl.find_opt tbl key with
              | Some (MDec (s, v)) ->
                record ((key, k) :: visited) (fun i -> MDec (k - i + s, v));
                if k + s <= bound then `Decided v else `Out_of_steps
              | Some (MCoin s) ->
                record ((key, k) :: visited) (fun i -> MCoin (k - i + s));
                if k + s < bound then `Coin else `Out_of_steps
              | Some (MNoDec s) when k + s >= bound ->
                record ((key, k) :: visited) (fun i -> MNoDec (k - i + s));
                `Out_of_steps
              | Some (MNoDec _) | None ->
                let visited = (key, k) :: visited in
                if k >= bound then begin
                  record visited (fun i -> MNoDec (bound - i));
                  `Out_of_steps
                end
                else (
                  match P.step ~n ~m ~id:g.cfg.ids.(proc) st.locals.(proc) with
                  | Protocol.Coin _ ->
                    record visited (fun i -> MCoin (k - i));
                    `Coin
                  | _ -> (
                    match step_states g.cfg st proc with
                    | [ st' ] -> go st' (k + 1) visited
                    | _ -> assert false)))
          in
          go st0 0 []
      end
    in
    let exception Found of int * int in
    try
      Array.iteri
        (fun sid st ->
          Array.iteri
            (fun proc local ->
              if not (Protocol.is_decided (P.status local)) then
                match solo st proc with
                | `Decided _ -> ()
                | `Out_of_steps | `Coin -> raise (Found (sid, proc)))
            st.locals)
        g.states;
      None
    with Found (sid, proc) -> Some (sid, proc)

  let to_flat g =
    {
      Flatgraph.n_procs = Array.length g.cfg.ids;
      statuses =
        Array.map
          (fun st -> Array.map (fun l -> Flatgraph.of_status (P.status l)) st.locals)
          g.states;
      succs =
        Array.map
          (fun ts ->
            List.map
              (fun { dst; label } ->
                {
                  Flatgraph.dst;
                  proc = label.proc;
                  enters_cs = label.enters_cs;
                })
              ts)
          g.succs;
      complete = g.complete;
    }
end
