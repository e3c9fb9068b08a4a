open Anonmem

(* Typed intern-table overflow. Raised instead of packing a code the key
   width cannot hold — a truncated id would silently alias two distinct
   states, which for a model checker is the worst possible failure mode
   (a missed violation). [kind] names the overflowing table. *)
exception Overflow of { kind : string; code : int; width : int }

let () =
  Printexc.register_printer (function
    | Overflow { kind; code; width } ->
      Some
        (Printf.sprintf
           "Codec.Overflow: %s code %d does not fit %d-byte keys (max %d); \
            re-run with wide keys"
           kind code width
           ((1 lsl (8 * width)) - 1))
    | _ -> None)

module Make (P : Protocol.PROTOCOL) = struct
  module VMap = Map.Make (struct
    type t = P.Value.t

    let compare = P.Value.compare
  end)

  module LMap = Map.Make (struct
    type t = P.local

    let compare = P.compare_local
  end)

  (* Interning table: a persistent map behind an [Atomic], extended by
     compare-and-set. Lookups are wait-free; a miss retries its CAS until
     it wins or someone else interned the same key. [next] rides in the
     same atomic cell so code assignment and map extension are one
     linearization point (Map.cardinal is O(n), far too slow to recompute
     per miss). *)
  type 'm slot = { map : 'm; next : int }

  type t = {
    vcodes : int VMap.t slot Atomic.t;
    locals : int LMap.t slot Atomic.t;
    width : int;  (* bytes per packed slot: 3 (default) or 4 (wide) *)
  }

  (* Two concrete copies of the interning loop: first-class functors over
     two different Map instantiations buy nothing here. *)
  let rec value_code t v =
    let s = Atomic.get t.vcodes in
    match VMap.find_opt v s.map with
    | Some c -> c
    | None ->
      if
        Atomic.compare_and_set t.vcodes s
          { map = VMap.add v s.next s.map; next = s.next + 1 }
      then s.next
      else value_code t v

  let rec local_code t l =
    let s = Atomic.get t.locals in
    match LMap.find_opt l s.map with
    | Some c -> c
    | None ->
      if
        Atomic.compare_and_set t.locals s
          { map = LMap.add l s.next s.map; next = s.next + 1 }
      then s.next
      else local_code t l

  (* Three bytes per slot by default: 16.7M distinct codes dwarfs any
     state budget the in-RAM explorer accepts, and fixed width keeps
     every encoding of one state identical regardless of when its codes
     were interned. [~wide] widens to four bytes per slot for runs whose
     intern tables may pass 2^24 entries (disk-bounded explorations);
     the two widths produce incomparable keys, so the width is part of
     the snapshot payload (format v4) and a resumed run always re-packs
     at the width of the interrupted one. *)
  let create ?(wide = false) () =
    {
      vcodes = Atomic.make { map = VMap.empty; next = 0 };
      locals = Atomic.make { map = LMap.empty; next = 0 };
      width = (if wide then 4 else 3);
    }

  let width t = t.width
  let n_values t = (Atomic.get t.vcodes).next
  let n_locals t = (Atomic.get t.locals).next

  (* Plain-data image of the interning tables, for durable snapshots. The
     persistent maps hold only protocol values/locals and ints, so the
     dump marshals cleanly; [of_dump] rebuilds a live context whose
     encodings are byte-identical to the dumped one's. *)
  type dump = {
    d_values : int VMap.t;
    d_nvalues : int;
    d_locals : int LMap.t;
    d_nlocals : int;
    d_width : int;
  }

  let dump t =
    let v = Atomic.get t.vcodes and l = Atomic.get t.locals in
    { d_values = v.map; d_nvalues = v.next; d_locals = l.map;
      d_nlocals = l.next; d_width = t.width }

  let of_dump d =
    {
      vcodes = Atomic.make { map = d.d_values; next = d.d_nvalues };
      locals = Atomic.make { map = d.d_locals; next = d.d_nlocals };
      width = d.d_width;
    }

  let put ~kind ~width b i c =
    if c lsr (8 * width) <> 0 || c < 0 then
      raise (Overflow { kind; code = c; width });
    let o = width * i in
    Bytes.unsafe_set b o (Char.unsafe_chr (c land 0xff));
    Bytes.unsafe_set b (o + 1) (Char.unsafe_chr ((c lsr 8) land 0xff));
    Bytes.unsafe_set b (o + 2) (Char.unsafe_chr ((c lsr 16) land 0xff));
    if width = 4 then
      Bytes.unsafe_set b (o + 3) (Char.unsafe_chr ((c lsr 24) land 0xff))

  let encode t mem locals =
    let width = t.width in
    let m = Array.length mem and n = Array.length locals in
    let b = Bytes.create (width * (m + n)) in
    for k = 0 to m - 1 do
      put ~kind:"value" ~width b k (value_code t mem.(k))
    done;
    for q = 0 to n - 1 do
      put ~kind:"local" ~width b (m + q) (local_code t locals.(q))
    done;
    Bytes.unsafe_to_string b

  (* Same layout as [encode], from code vectors someone already interned —
     the incremental canonizer holds codes, not values, and must produce
     keys byte-identical to [encode]'s for the same state. *)
  let key_of_codes t vcodes lcodes =
    let width = t.width in
    let m = Array.length vcodes and n = Array.length lcodes in
    let b = Bytes.create (width * (m + n)) in
    for k = 0 to m - 1 do
      put ~kind:"value" ~width b k vcodes.(k)
    done;
    for q = 0 to n - 1 do
      put ~kind:"local" ~width b (m + q) lcodes.(q)
    done;
    Bytes.unsafe_to_string b

  (* In-place re-pack of one slot of a key [encode] laid out for [m]
     registers: a successor differs from its parent in one local and at
     most one register, so its key is the parent's with one or two slots
     patched — byte-identical to [encode] of the successor, because
     interning is by structural order. Slots below [m] are registers. *)
  let patch t key ~m slot code =
    put ~kind:(if slot < m then "value" else "local") ~width:t.width key slot
      code

  let unpack t key vcodes lcodes =
    let width = t.width and m = Array.length vcodes in
    let n = Array.length lcodes in
    if Bytes.length key < width * (m + n) then
      invalid_arg "Codec.unpack: key too short";
    for i = 0 to m + n - 1 do
      let o = width * i in
      let c =
        Char.code (Bytes.unsafe_get key o)
        lor (Char.code (Bytes.unsafe_get key (o + 1)) lsl 8)
        lor (Char.code (Bytes.unsafe_get key (o + 2)) lsl 16)
      in
      let c =
        if width = 4 then c lor (Char.code (Bytes.unsafe_get key (o + 3)) lsl 24)
        else c
      in
      if i < m then vcodes.(i) <- c else lcodes.(i - m) <- c
    done

  let encode_solo t ~proc local mem =
    let width = t.width in
    let m = Array.length mem in
    let b = Bytes.create (width * (m + 2)) in
    put ~kind:"proc" ~width b 0 proc;
    put ~kind:"local" ~width b 1 (local_code t local);
    for k = 0 to m - 1 do
      put ~kind:"value" ~width b (k + 2) (value_code t mem.(k))
    done;
    Bytes.unsafe_to_string b
end
