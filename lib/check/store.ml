(* Packed visited set: keys back to back in one [Bytes] arena, ids in an
   open-addressing table with linear probing. A table slot holds the
   key's id in its low 32 bits and a 30-bit hash of the key above them
   ([-1] marks an empty slot), so a probe skips most non-matching slots
   without touching the arena, and a rehash never re-reads a key: the
   table index is that hash masked to the table size. *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

type t = {
  key_len : int;
  mutable arena : Bytes.t;
  mutable count : int;
  mutable slots : int array;
}

let id_bits = 32
let id_mask = (1 lsl id_bits) - 1
let hash_mask = 0x3FFF_FFFF

(* Room for 64 keys before the first growth: small enough that the many
   short-lived stores of a small exploration stay in the minor heap. *)
let initial_keys = 64

let create ~key_len () =
  if key_len <= 0 then invalid_arg "Store.create: key_len must be positive";
  {
    key_len;
    arena = Bytes.create (initial_keys * key_len);
    count = 0;
    slots = Array.make (2 * initial_keys) (-1);
  }

let length t = t.count

(* Word-at-a-time multiply-xorshift over the key, then a final avalanche
   so the low bits (the table index) depend on every byte. *)
let hash_at b off len =
  let k = 0x2545_F491_4F6C_DD1D in
  let h = ref len in
  let i = ref 0 in
  while !i + 8 <= len do
    let w = Int64.to_int (get64u b (off + !i)) in
    let x = (!h lxor w) * k in
    h := x lxor (x lsr 29);
    i := !i + 8
  done;
  if !i < len then begin
    let w = ref 0 in
    for j = len - 1 downto !i do
      w := (!w lsl 8) lor Char.code (Bytes.unsafe_get b (off + j))
    done;
    let x = (!h lxor !w) * k in
    h := x lxor (x lsr 29)
  end;
  let x = !h * 0x1CE4_E5B9 in
  (x lxor (x lsr 32)) land hash_mask

let equal_at t b off id =
  let a = t.arena and len = t.key_len in
  let o = id * len in
  let rec words i =
    if i + 8 > len then bytes i
    else
      let x : int64 = get64u a (o + i) and y : int64 = get64u b (off + i) in
      x = y && words (i + 8)
  and bytes i =
    i >= len
    || Bytes.unsafe_get a (o + i) = Bytes.unsafe_get b (off + i)
       && bytes (i + 1)
  in
  words 0

let check_span t b off =
  if off < 0 || off + t.key_len > Bytes.length b then
    invalid_arg "Store: key span out of bounds"

let find t b off =
  check_span t b off;
  let h = hash_at b off t.key_len in
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let rec go i =
    let s = Array.unsafe_get slots i in
    if s < 0 then -1
    else if s lsr id_bits = h && equal_at t b off (s land id_mask) then
      s land id_mask
    else go ((i + 1) land mask)
  in
  go (h land mask)

let place slots s =
  let mask = Array.length slots - 1 in
  let rec go i =
    if Array.unsafe_get slots i < 0 then Array.unsafe_set slots i s
    else go ((i + 1) land mask)
  in
  go ((s lsr id_bits) land mask)

let grow t =
  let len = t.key_len in
  if (t.count + 1) * len > Bytes.length t.arena then begin
    let arena = Bytes.create (2 * Bytes.length t.arena) in
    Bytes.blit t.arena 0 arena 0 (t.count * len);
    t.arena <- arena
  end;
  if 2 * (t.count + 1) > Array.length t.slots then begin
    let slots = Array.make (2 * Array.length t.slots) (-1) in
    Array.iter (fun s -> if s >= 0 then place slots s) t.slots;
    t.slots <- slots
  end

let add t b off =
  let id = t.count in
  check_span t b off;
  if id > id_mask then invalid_arg "Store.add: more than 2^32 keys";
  grow t;
  let h = hash_at b off t.key_len in
  Bytes.blit b off t.arena (id * t.key_len) t.key_len;
  place t.slots ((h lsl id_bits) lor id);
  t.count <- id + 1;
  id

let add_from t ~src id =
  if src.key_len <> t.key_len then invalid_arg "Store.add_from: key widths differ";
  add t src.arena (id * src.key_len)

let blit_key t id dst off = Bytes.blit t.arena (id * t.key_len) dst off t.key_len
let key t id = Bytes.sub_string t.arena (id * t.key_len) t.key_len

let compare_ids t a b =
  let ar = t.arena and len = t.key_len in
  let oa = a * len and ob = b * len in
  let rec go i =
    if i = len then 0
    else
      let c =
        Char.compare (Bytes.unsafe_get ar (oa + i)) (Bytes.unsafe_get ar (ob + i))
      in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let sorted_ids t =
  let ids = Array.init t.count Fun.id in
  Array.sort (compare_ids t) ids;
  ids

let sorted_keys t = Array.map (key t) (sorted_ids t)

let reset t =
  t.count <- 0;
  Array.fill t.slots 0 (Array.length t.slots) (-1)
