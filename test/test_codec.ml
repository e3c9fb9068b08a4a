(* Codec interning: dump/of_dump must restore codes exactly, so a resumed
   exploration re-encodes every state to the same key bytes. Exercised on
   adversarial interleavings of value and local interning. *)

module C = Check.Codec.Make (Test_runtime.Toy)

let test_encode_length () =
  let c = C.create () in
  let mem = [| 0; 7; 3 |] in
  let locals = Test_runtime.Toy.[| Rem; Put |] in
  Alcotest.(check int) "3 bytes per slot"
    (3 * (3 + 2))
    (String.length (C.encode c mem locals))

let test_interning_is_stable () =
  let c = C.create () in
  let a = C.value_code c 41 in
  let b = C.value_code c 17 in
  Alcotest.(check bool) "distinct values, distinct codes" true (a <> b);
  Alcotest.(check int) "re-interning 41 returns same code" a
    (C.value_code c 41);
  Alcotest.(check int) "re-interning 17 returns same code" b
    (C.value_code c 17);
  Alcotest.(check int) "two values interned" 2 (C.n_values c)

let test_equal_states_equal_keys () =
  let c = C.create () in
  let k1 = C.encode c [| 1; 2 |] Test_runtime.Toy.[| Put; Get |] in
  (* intern unrelated junk in between *)
  ignore (C.value_code c 99);
  ignore (C.local_code c (Test_runtime.Toy.Fin 5));
  let k2 = C.encode c [| 1; 2 |] Test_runtime.Toy.[| Put; Get |] in
  let k3 = C.encode c [| 2; 1 |] Test_runtime.Toy.[| Put; Get |] in
  Alcotest.(check string) "same state, same key" k1 k2;
  Alcotest.(check bool) "different state, different key" true (k1 <> k3)

let test_dump_restores_codes () =
  let c = C.create () in
  (* adversarial interleaving: values and locals interned alternately,
     including a re-intern that must not bump counters *)
  let vals = [ 13; 0; -5; 13; 1000; 7 ] in
  let locs =
    Test_runtime.Toy.[ Get; Fin 0; Rem; Fin (-3); Get; Put ]
  in
  List.iter2
    (fun v l ->
      ignore (C.value_code c v);
      ignore (C.local_code c l))
    vals locs;
  let key_before =
    C.encode c [| 13; -5; 1000 |] Test_runtime.Toy.[| Fin 0; Put |]
  in
  let c' = C.of_dump (C.dump c) in
  Alcotest.(check int) "values restored" (C.n_values c) (C.n_values c');
  Alcotest.(check int) "locals restored" (C.n_locals c) (C.n_locals c');
  List.iter
    (fun v ->
      Alcotest.(check int)
        (Printf.sprintf "code of value %d preserved" v)
        (C.value_code c v) (C.value_code c' v))
    vals;
  List.iter
    (fun l ->
      Alcotest.(check int) "code of local preserved" (C.local_code c l)
        (C.local_code c' l))
    locs;
  Alcotest.(check string) "state key byte-identical after restore" key_before
    (C.encode c' [| 13; -5; 1000 |] Test_runtime.Toy.[| Fin 0; Put |])

let test_dump_of_empty () =
  let c' = C.of_dump (C.dump (C.create ())) in
  Alcotest.(check int) "no values" 0 (C.n_values c');
  Alcotest.(check int) "no locals" 0 (C.n_locals c');
  ignore (C.encode c' [| 4 |] [| Test_runtime.Toy.Rem |]);
  Alcotest.(check int) "fresh interning works" 2 (C.n_values c' + C.n_locals c')

let test_extension_after_restore () =
  let c = C.create () in
  ignore (C.value_code c 1);
  ignore (C.value_code c 2);
  let c' = C.of_dump (C.dump c) in
  let fresh = C.value_code c' 3 in
  Alcotest.(check bool) "fresh code extends old range" true
    (fresh <> C.value_code c' 1 && fresh <> C.value_code c' 2);
  Alcotest.(check int) "count extends" 3 (C.n_values c');
  (* the donor context is untouched *)
  Alcotest.(check int) "donor unchanged" 2 (C.n_values c)

let test_encode_solo_distinguishes_proc () =
  let c = C.create () in
  let mem = [| 0; 0 |] in
  let k0 = C.encode_solo c ~proc:0 Test_runtime.Toy.Put mem in
  let k1 = C.encode_solo c ~proc:1 Test_runtime.Toy.Put mem in
  Alcotest.(check bool) "same local+mem, different proc, different key" true
    (k0 <> k1);
  Alcotest.(check string) "solo key deterministic" k0
    (C.encode_solo c ~proc:0 Test_runtime.Toy.Put mem)

(* --- key-width overflow: typed error, 4-byte widening ------------------
   A code that does not fit the key width must raise the typed
   [Codec.Overflow] instead of silently truncating (which would alias two
   distinct states — a missed violation). [key_of_codes] and [patch] pack
   already-interned codes, so they can exercise the boundary directly
   without interning 2^24 values. Both packers are checked at every
   boundary: [pack c vcodes lcodes] through each. *)

let packers =
  [
    ("key_of_codes", C.key_of_codes);
    ( "patch",
      fun c vcodes lcodes ->
        (* patch every slot of a zero key, one at a time *)
        let m = Array.length vcodes in
        let key = Bytes.make (C.width c * (m + Array.length lcodes)) '\000' in
        Array.iteri (fun k code -> C.patch c key ~m k code) vcodes;
        Array.iteri (fun q code -> C.patch c key ~m (m + q) code) lcodes;
        Bytes.to_string key );
  ]

let expect_overflow ~what ~kind ~width f =
  match f () with
  | exception Check.Codec.Overflow o ->
    Alcotest.(check string) (what ^ ": table named") kind o.kind;
    Alcotest.(check int) (what ^ ": width named") width o.width
  | exception e ->
    Alcotest.failf "%s: expected typed Overflow, got %s" what
      (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: overflow not detected" what

let test_overflow_typed () =
  let c = C.create () in
  Alcotest.(check int) "default width" 3 (C.width c);
  List.iter
    (fun (name, pack) ->
      (* largest representable code packs fine *)
      ignore (pack c [| (1 lsl 24) - 1 |] [| (1 lsl 24) - 1 |]);
      (match pack c [| 1 lsl 24 |] [| 0 |] with
      | exception Check.Codec.Overflow { kind = "value"; code; width = 3 } ->
        Alcotest.(check int) (name ^ ": overflowing code reported") (1 lsl 24)
          code
      | exception e ->
        Alcotest.failf "%s: expected typed Overflow, got %s" name
          (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: 24-bit overflow not detected" name);
      expect_overflow ~what:(name ^ " local slot") ~kind:"local" ~width:3
        (fun () -> pack c [| 0 |] [| 1 lsl 24 |]);
      expect_overflow ~what:(name ^ " negative code") ~kind:"value" ~width:3
        (fun () -> pack c [| -1 |] [| 0 |]))
    packers;
  (* the registered printer names the recovery *)
  let msg =
    Printexc.to_string
      (Check.Codec.Overflow { kind = "value"; code = 1 lsl 24; width = 3 })
  in
  let contains needle =
    let nl = String.length needle and sl = String.length msg in
    let rec go i = i + nl <= sl && (String.sub msg i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "printer suggests wide keys" true
    (contains "wide keys")

let test_wide_widening () =
  let c = C.create ~wide:true () in
  Alcotest.(check int) "wide width" 4 (C.width c);
  Alcotest.(check int) "4 bytes per slot"
    (4 * (3 + 2))
    (String.length (C.encode c [| 0; 7; 3 |] Test_runtime.Toy.[| Rem; Put |]));
  List.iter
    (fun (name, pack) ->
      (* the code that overflowed 3-byte keys fits wide ones *)
      ignore (pack c [| 1 lsl 24 |] [| (1 lsl 32) - 1 |]);
      (* ... and wide keys still have a boundary of their own *)
      expect_overflow ~what:(name ^ " wide value slot") ~kind:"value" ~width:4
        (fun () -> pack c [| 1 lsl 32 |] [| 0 |]);
      expect_overflow ~what:(name ^ " wide local slot") ~kind:"local" ~width:4
        (fun () -> pack c [| 0 |] [| 1 lsl 32 |]))
    packers;
  (* a patched key unpacks to its codes *)
  let key = Bytes.of_string (C.key_of_codes c [| 5; 6 |] [| 7 |]) in
  C.patch c key ~m:2 2 ((1 lsl 32) - 1);
  let vcodes = Array.make 2 0 and lcodes = Array.make 1 0 in
  C.unpack c key vcodes lcodes;
  Alcotest.(check (list int)) "unpack reads every slot"
    [ 5; 6; (1 lsl 32) - 1 ]
    (Array.to_list vcodes @ Array.to_list lcodes);
  (* width survives dump/of_dump, so a resumed run re-packs identically *)
  ignore (C.value_code c 42);
  let c' = C.of_dump (C.dump c) in
  Alcotest.(check int) "width restored from dump" 4 (C.width c');
  Alcotest.(check string) "wide key byte-identical after restore"
    (C.encode c [| 42 |] [| Test_runtime.Toy.Rem |])
    (C.encode c' [| 42 |] [| Test_runtime.Toy.Rem |])

(* --- delta keys: a successor's key is its parent's, patched ----------
   A step changes the stepping process's local and at most one register,
   so patching those slots of the parent's key must give exactly
   [encode] of the successor — the invariant the explorer's keyed
   successor path rests on. Checked over random reachable states
   (random walks from the initial state) of the toy protocol, the
   anonymous mutex under non-identity namings, and ccp (coins and RMW). *)

module Delta (P : Anonmem.Protocol.PROTOCOL) = struct
  module E = Check.Explore.Make (P)
  module Cd = Check.Codec.Make (P)

  let walk cfg choices =
    List.fold_left
      (fun st c ->
        match E.successors cfg st with
        | [] -> st
        | succ -> snd (List.nth succ (c mod List.length succ)))
      (E.initial cfg) choices

  (* Every successor of the state [choices] walks to: its key patched
     from the parent's equals its encoding, at both widths. *)
  let holds cfg ~wide choices =
    let c = Cd.create ~wide () in
    let st = walk cfg choices in
    let m = Array.length st.E.mem in
    let parent = Cd.encode c st.E.mem st.E.locals in
    List.for_all
      (fun ({ E.proc; _ }, (st' : E.state)) ->
        let key = Bytes.of_string parent in
        Cd.patch c key ~m (m + proc) (Cd.local_code c st'.locals.(proc));
        let changed = ref 0 in
        Array.iteri
          (fun k v ->
            if P.Value.compare v st.E.mem.(k) <> 0 then begin
              incr changed;
              Cd.patch c key ~m k (Cd.value_code c v)
            end)
          st'.mem;
        let others_same =
          let ok = ref true in
          Array.iteri
            (fun q l ->
              if q <> proc && P.compare_local l st.E.locals.(q) <> 0 then
                ok := false)
            st'.locals;
          !ok
        in
        !changed <= 1 && others_same
        && Bytes.to_string key = Cd.encode c st'.mem st'.locals)
      (E.successors cfg st)

  let test name cfg =
    QCheck.Test.make ~count:200
      ~name:(Printf.sprintf "%s: patched parent key = encode of successor" name)
      QCheck.(pair bool (list_of_size Gen.(int_range 0 60) (int_bound 1000)))
      (fun (wide, choices) -> holds cfg ~wide choices)
end

module DToy = Delta (Test_runtime.Toy)
module DMutex = Delta (Coord.Amutex.P)
module DCcp = Delta (Coord.Ccp.P)

let delta_tests =
  let open Anonmem in
  [
    DToy.test "toy" (DToy.E.config ~ids:[ 5; 9 ] ~inputs:[ (); () ] ());
    DMutex.test "amutex"
      {
        DMutex.E.ids = [| 7; 13; 21 |];
        inputs = [| (); (); () |];
        namings =
          [| Naming.identity 3; Naming.rotation 3 1; Naming.rotation 3 2 |];
      };
    DCcp.test "ccp"
      {
        DCcp.E.ids = [| 7; 13 |];
        inputs = [| (); () |];
        namings = [| Naming.identity 2; Naming.rotation 2 1 |];
      };
  ]

let suite =
  List.map QCheck_alcotest.to_alcotest delta_tests
  @ [
    Alcotest.test_case "encode length" `Quick test_encode_length;
    Alcotest.test_case "overflow is a typed error" `Quick test_overflow_typed;
    Alcotest.test_case "wide keys widen the boundary" `Quick
      test_wide_widening;
    Alcotest.test_case "interning stable" `Quick test_interning_is_stable;
    Alcotest.test_case "equal states, equal keys" `Quick
      test_equal_states_equal_keys;
    Alcotest.test_case "dump/of_dump preserves codes" `Quick
      test_dump_restores_codes;
    Alcotest.test_case "dump of empty context" `Quick test_dump_of_empty;
    Alcotest.test_case "interning extends after restore" `Quick
      test_extension_after_restore;
    Alcotest.test_case "encode_solo keyed by process" `Quick
      test_encode_solo_distinguishes_proc;
  ]
