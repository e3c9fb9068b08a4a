open Check

(* The packed visited set: an exact map from fixed-width keys to dense
   insertion-order ids. Checked against Stdlib's Hashtbl as the model, on
   key widths the explorers use (3- and 4-byte codec slots), across
   growth, rehash and reset. *)

(* Random keys of [len] bytes over a small alphabet, so keys collide in
   most bytes, plus for each one a sibling that differs only in its last
   byte. *)
let keys ~seed ~len n =
  let rng = Random.State.make [| seed |] in
  let ks = Array.make n Bytes.empty in
  for i = 0 to n - 1 do
    ks.(i) <-
      (if i mod 2 = 0 then
         Bytes.init len (fun _ -> Char.chr (Random.State.int rng 4))
       else begin
         let sib = Bytes.copy ks.(i - 1) in
         Bytes.set sib (len - 1)
           (Char.chr (Char.code (Bytes.get sib (len - 1)) lxor 0x80));
         sib
       end)
  done;
  ks

(* Codec keys of 3- and 4-byte slots (one slot, five, six): lengths
   below, at and across the 8-byte words the store hashes and compares
   by. *)
let key_lens = [ 3; 4; 3 * 6; 4 * 6; 3 * 5; 4 * 5 ]

let test_model () =
  List.iter
    (fun len ->
      let ks = keys ~seed:len ~len 100_000 in
      let st = Store.create ~key_len:len () in
      let model : (string, int) Hashtbl.t = Hashtbl.create 16 in
      (* buffer offsets vary, as they do when keys sit in an arena *)
      let buf = Bytes.create (len + 7) in
      Array.iteri
        (fun i k ->
          let off = i mod 8 in
          Bytes.blit k 0 buf off len;
          let s = Bytes.to_string k in
          let got = Store.find st buf off in
          (match Hashtbl.find_opt model s with
          | Some id ->
            if got <> id then Alcotest.failf "len %d: key %d found as %d, not %d" len i got id
          | None ->
            if got <> -1 then Alcotest.failf "len %d: absent key %d found as %d" len i got;
            let id = Store.add st buf off in
            if id <> Hashtbl.length model then
              Alcotest.failf "len %d: id %d is not the insertion index" len id;
            Hashtbl.add model s id))
        ks;
      Alcotest.(check int)
        (Printf.sprintf "len %d: same size as the model" len)
        (Hashtbl.length model) (Store.length st);
      Hashtbl.iter
        (fun s id ->
          if Store.key st id <> s then
            Alcotest.failf "len %d: id %d holds the wrong key" len id;
          if Store.find st (Bytes.of_string s) 0 <> id then
            Alcotest.failf "len %d: key of id %d not found back" len id)
        model)
    key_lens

let test_ids_stable_across_growth () =
  let len = 3 * 6 in
  let ks = keys ~seed:7 ~len 20_000 in
  let st = Store.create ~key_len:len () in
  let first = Array.map (fun k -> Store.add st k 0) (Array.sub ks 0 100) in
  (* grows the arena and rehashes the table many times over *)
  Array.iteri (fun i k -> if i >= 100 then ignore (Store.add st k 0)) ks;
  Array.iteri
    (fun i id ->
      Alcotest.(check int) "early id unchanged" i id;
      Alcotest.(check int) "early key found at its id" id
        (Store.find st ks.(i) 0);
      let b = Bytes.create len in
      Store.blit_key st id b 0;
      Alcotest.(check bool) "early key bytes intact" true (Bytes.equal b ks.(i)))
    first;
  let other = Store.create ~key_len:len () in
  let id = Store.add_from other ~src:st 12_345 in
  Alcotest.(check int) "add_from: first id" 0 id;
  Alcotest.(check string) "add_from copies the key" (Store.key st 12_345)
    (Store.key other 0)

let test_sorted_byte_order () =
  List.iter
    (fun len ->
      let ks = keys ~seed:(len + 1) ~len 2_000 in
      let st = Store.create ~key_len:len () in
      Array.iter (fun k -> if Store.find st k 0 < 0 then ignore (Store.add st k 0)) ks;
      let sorted = Store.sorted_keys st in
      let model = Array.init (Store.length st) (Store.key st) in
      Array.sort String.compare model;
      Alcotest.(check (array string))
        (Printf.sprintf "len %d: sorted_keys = String.compare order" len)
        model sorted;
      Alcotest.(check (array string))
        "sorted_ids agree with sorted_keys" sorted
        (Array.map (Store.key st) (Store.sorted_ids st)))
    [ 4; 3 * 6 ]

(* The external explorer's hot set: filled, spilled as one sorted run,
   reset, refilled. After the reset the store must be empty and give out
   ids from 0 again, while the spilled run answers for the old keys. *)
let test_reset_after_spill () =
  let len = 4 * 5 in
  let ks = keys ~seed:3 ~len 4_000 in
  let half = Array.length ks / 2 in
  let st = Store.create ~key_len:len () in
  for i = 0 to half - 1 do
    ignore (Store.add st ks.(i) 0)
  done;
  let dir = Filename.temp_file "coordstore" ".d" in
  Sys.remove dir;
  let dv = Disk_visited.create ~dir ~key_len:len () in
  let fp = Digest.string "store-unit" in
  Disk_visited.spill dv ~fingerprint:fp ~descr:"store unit" (Store.sorted_keys st);
  Store.reset st;
  Alcotest.(check int) "empty after reset" 0 (Store.length st);
  Alcotest.(check int) "old key gone" (-1) (Store.find st ks.(0) 0);
  for i = half to Array.length ks - 1 do
    Alcotest.(check int) "ids restart at 0" (i - half) (Store.add st ks.(i) 0)
  done;
  for i = half to Array.length ks - 1 do
    Alcotest.(check int) "refilled key found" (i - half) (Store.find st ks.(i) 0)
  done;
  let probe = Array.map Bytes.to_string ks in
  Array.sort String.compare probe;
  let on_disk = Disk_visited.probe dv probe in
  let spilled = Hashtbl.create half in
  for i = 0 to half - 1 do
    Hashtbl.replace spilled (Bytes.to_string ks.(i)) ()
  done;
  Array.iteri
    (fun i k ->
      Alcotest.(check bool) "run answers for the spilled half" (Hashtbl.mem spilled k)
        on_disk.(i))
    probe

let test_rejects_bad_spans () =
  let st = Store.create ~key_len:4 () in
  (match Store.find st (Bytes.create 3) 0 with
  | _ -> Alcotest.fail "find read past the buffer"
  | exception Invalid_argument _ -> ());
  match Store.add st (Bytes.create 6) 3 with
  | _ -> Alcotest.fail "add read past the buffer"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "model: Hashtbl on 10^5 random keys" `Quick test_model;
    Alcotest.test_case "ids stable across growth and rehash" `Quick
      test_ids_stable_across_growth;
    Alcotest.test_case "sorted keys in byte order" `Quick test_sorted_byte_order;
    Alcotest.test_case "reset after a spill" `Quick test_reset_after_spill;
    Alcotest.test_case "key spans are bounds-checked" `Quick test_rejects_bad_spans;
  ]
