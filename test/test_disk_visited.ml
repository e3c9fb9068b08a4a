open Check

(* External-memory exploration: the disk-backed visited set must be an
   invisible implementation detail. Whatever mix of hot table and sorted
   runs the watermark produced, the statistics are bit-identical (mod
   clock and infrastructure weather) to the in-RAM reference explorer —
   complete, budget-truncated, interrupted, resumed, or salvaged. *)

module P = Coord.Amutex.P
module E = Explore.Make (P)

let cfg () = E.config ~m:3 ~ids:[ 7; 13 ] ~inputs:[ (); () ] ()

let tmp_dir name =
  let f = Filename.temp_file ("coorddv-" ^ name) ".d" in
  Sys.remove f;
  f

let tmp_snap name = Filename.temp_file ("coorddv-" ^ name) ".snap"

let check_stats tag a b =
  Alcotest.(check bool)
    (tag ^ ": stats bit-identical (mod clock)")
    true
    (Checker_stats.equal_ignoring_time a b)

(* in-RAM oracle of the standard configuration, computed once *)
let oracle = lazy (snd (E.explore_with_stats (cfg ())))

(* ------------------- Disk_visited, in isolation ---------------------- *)

let fp = Digest.string "disk-visited-unit"
let descr = "unit test"

let test_store_roundtrip () =
  let dir = tmp_dir "unit" in
  let dv = Disk_visited.create ~dir ~key_len:3 () in
  Disk_visited.spill dv ~fingerprint:fp ~descr [| "aaa"; "bbb"; "ccc" |];
  Disk_visited.spill dv ~fingerprint:fp ~descr [| "abc"; "zzz" |];
  Alcotest.(check int) "two runs" 2 (Disk_visited.n_runs dv);
  Alcotest.(check int) "five keys" 5 (Disk_visited.n_keys dv);
  Alcotest.(check (array bool))
    "batched membership"
    [| true; true; false; true |]
    (Disk_visited.probe dv [| "aaa"; "abc"; "bbc"; "zzz" |]);
  Alcotest.(check int) "one batched probe" 1 (Disk_visited.n_probes dv);
  (* restore re-validates every run and reopens the same set *)
  let m = Disk_visited.manifest dv in
  let dv' = Disk_visited.restore ~dir ~fingerprint:fp ~descr m in
  Alcotest.(check (array bool))
    "membership after restore"
    [| true; false; true |]
    (Disk_visited.probe dv' [| "ccc"; "xxx"; "zzz" |])

let test_restore_deletes_strays () =
  let dir = tmp_dir "stray" in
  let dv = Disk_visited.create ~dir ~key_len:3 () in
  Disk_visited.spill dv ~fingerprint:fp ~descr [| "aaa"; "bbb" |];
  let m1 = Disk_visited.manifest dv in
  Disk_visited.spill dv ~fingerprint:fp ~descr [| "zzz" |];
  (* rolling back to the one-run manifest must delete the newer run:
     probing it would wrongly suppress states the frontier must reach *)
  let dv' = Disk_visited.restore ~dir ~fingerprint:fp ~descr m1 in
  Alcotest.(check int) "one run again" 1 (Disk_visited.n_runs dv');
  Alcotest.(check (array bool))
    "abandoned key forgotten" [| false |]
    (Disk_visited.probe dv' [| "zzz" |]);
  Alcotest.(check bool) "stray run file deleted" false
    (Sys.file_exists (Filename.concat dir "run-0001.run"))

let test_restore_refuses_damage () =
  let dir = tmp_dir "damage" in
  let dv = Disk_visited.create ~dir ~key_len:3 () in
  Disk_visited.spill dv ~fingerprint:fp ~descr [| "aaa"; "bbb"; "ccc" |];
  let m = Disk_visited.manifest dv in
  let path = Filename.concat dir "run-0000.run" in
  let sz = (Unix.stat path).Unix.st_size in
  Unix.truncate path (sz / 2);
  (match Disk_visited.restore ~dir ~fingerprint:fp ~descr m with
  | _ -> Alcotest.fail "restore accepted a truncated run"
  | exception Snapshot.Error _ -> ());
  (* a fingerprint mismatch is refused before any byte is trusted *)
  let dir2 = tmp_dir "fpmism" in
  let dv2 = Disk_visited.create ~dir:dir2 ~key_len:3 () in
  Disk_visited.spill dv2 ~fingerprint:fp ~descr [| "aaa" |];
  match
    Disk_visited.restore ~dir:dir2
      ~fingerprint:(Digest.string "other exploration")
      ~descr (Disk_visited.manifest dv2)
  with
  | _ -> Alcotest.fail "restore accepted a foreign fingerprint"
  | exception Snapshot.Error (Snapshot.Config_mismatch _) -> ()

(* A spill that died between tmp file and rename leaves run-*.tmp debris
   no manifest references; create and restore both sweep it. *)
let test_tmp_debris_swept () =
  let dir = tmp_dir "tmpdebris" in
  let dv = Disk_visited.create ~dir ~key_len:3 () in
  Disk_visited.spill dv ~fingerprint:fp ~descr [| "aaa"; "bbb" |];
  let m = Disk_visited.manifest dv in
  let plant name =
    let oc = open_out_bin (Filename.concat dir name) in
    output_string oc "torn spill debris";
    close_out oc
  in
  plant "run-0007.run.tmp";
  plant "run-0001.run.tmp";
  let dv' = Disk_visited.restore ~dir ~fingerprint:fp ~descr m in
  Alcotest.(check bool) "restore swept the tmp debris" false
    (Sys.file_exists (Filename.concat dir "run-0007.run.tmp")
    || Sys.file_exists (Filename.concat dir "run-0001.run.tmp"));
  Alcotest.(check int) "manifest runs untouched" 1 (Disk_visited.n_runs dv');
  plant "run-0002.run.tmp";
  let _ = Disk_visited.create ~dir ~key_len:3 () in
  Alcotest.(check bool) "create swept the tmp debris" false
    (Sys.file_exists (Filename.concat dir "run-0002.run.tmp"))

(* Probes trust run payloads without re-hashing, so a spill damaged in
   flight must be caught by the read-back at write time — the
   alternative is an exhaustive checker that silently answers "not
   visited" for a visited state. *)
let test_spill_verifies_after_write () =
  let dir = tmp_dir "flip" in
  let dv = Disk_visited.create ~dir ~key_len:3 () in
  Resilience.arm
    {
      Resilience.seed = 0;
      faults = [ Resilience.Flip_byte { nth_write = 1; at = 0.9 } ];
    };
  Fun.protect ~finally:Resilience.disarm (fun () ->
      (match Disk_visited.spill dv ~fingerprint:fp ~descr [| "aaa"; "bbb" |] with
      | () -> Alcotest.fail "spill accepted a bit-flipped run"
      | exception Snapshot.Error (Snapshot.Corrupt _) -> ());
      Alcotest.(check int) "the flip fired" 1 (Resilience.fired ());
      (* the damaged file is on disk but in no manifest; a clean retry
         of the same spill succeeds and probes answer correctly *)
      Disk_visited.spill dv ~fingerprint:fp ~descr [| "aaa"; "bbb" |];
      Alcotest.(check (array bool))
        "membership intact after retried spill"
        [| true; true; false |]
        (Disk_visited.probe dv [| "aaa"; "bbb"; "ccc" |]))

(* Quota accounting at the store level: bytes tracked across spill and
   restore, the explorer's pre-check, and the last-ditch refusal. *)
let test_quota_accounting () =
  let dir = tmp_dir "quota" in
  let dv = Disk_visited.create ~quota_bytes:9 ~dir ~key_len:3 () in
  Alcotest.(check bool) "room for two keys" false
    (Disk_visited.would_exceed_quota dv ~adding:6);
  Disk_visited.spill dv ~fingerprint:fp ~descr [| "aaa"; "bbb" |];
  Alcotest.(check int) "bytes tracked" 6 (Disk_visited.n_bytes dv);
  Alcotest.(check bool) "room for one more" false
    (Disk_visited.would_exceed_quota dv ~adding:3);
  Alcotest.(check bool) "no room for two more" true
    (Disk_visited.would_exceed_quota dv ~adding:6);
  (* the refusal is defensive: callers are expected to pre-check *)
  (match Disk_visited.spill dv ~fingerprint:fp ~descr [| "ccc"; "ddd" |] with
  | () -> Alcotest.fail "spill breached the quota"
  | exception Snapshot.Error (Snapshot.Io _) -> ());
  Alcotest.(check int) "refused spill wrote nothing" 1
    (Disk_visited.n_runs dv);
  (* restore rebuilds the byte count from the manifest *)
  let dv' =
    Disk_visited.restore ~quota_bytes:9 ~dir ~fingerprint:fp ~descr
      (Disk_visited.manifest dv)
  in
  Alcotest.(check int) "bytes rebuilt on restore" 6 (Disk_visited.n_bytes dv')

(* [probe] merges a run against sorted candidates, so a run holding a
   key of the wrong width, or keys out of byte order, would answer
   "absent" for a key it holds: a missed duplicate and a wrong state
   count. [spill] refuses such input before writing anything. *)
let test_spill_rejects_malformed () =
  let dir = tmp_dir "malformed" in
  let dv = Disk_visited.create ~dir ~key_len:3 () in
  let refused what keys =
    match Disk_visited.spill dv ~fingerprint:fp ~descr keys with
    | () -> Alcotest.failf "spill accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  refused "a short key" [| "aaa"; "bb" |];
  refused "a long key" [| "aaaa" |];
  refused "keys out of order" [| "bbb"; "aaa" |];
  refused "a repeated key" [| "aaa"; "aaa" |];
  (* byte order, not signed-char order: 0xff sorts after 'a' *)
  refused "keys out of byte order" [| "\xff\x00\x00"; "abc" |];
  Alcotest.(check int) "nothing spilled" 0 (Disk_visited.n_runs dv);
  Alcotest.(check int) "no bytes" 0 (Disk_visited.n_bytes dv);
  Alcotest.(check bool) "no run file written" true
    (Array.for_all
       (fun f -> not (Filename.check_suffix f ".run"))
       (Sys.readdir dir));
  Disk_visited.spill dv ~fingerprint:fp ~descr [| "abc"; "\xff\x00\x00" |];
  Alcotest.(check (array bool))
    "a well-formed spill still probes right"
    [| true; false; true |]
    (Disk_visited.probe dv [| "abc"; "abd"; "\xff\x00\x00" |])

(* --------------- explorer parity: spill-and-probe -------------------- *)

let test_external_parity () =
  let cfg = cfg () in
  let rs = Lazy.force oracle in
  (* roomy hot table: the whole visited set stays in RAM *)
  let s1 = E.explore_external ~dir:(tmp_dir "hot") cfg in
  check_stats "all-hot" rs s1;
  Alcotest.(check int) "no runs spilled" 0 s1.Checker_stats.spilled_runs;
  (* tiny hot table: most of the visited set lives in sorted runs *)
  let s2 = E.explore_external ~hot_cap:64 ~dir:(tmp_dir "spill") cfg in
  check_stats "spill-and-probe" rs s2;
  Alcotest.(check bool) "runs spilled" true
    (s2.Checker_stats.spilled_runs > 0);
  Alcotest.(check bool) "probes served" true
    (s2.Checker_stats.disk_probes > 0);
  Alcotest.(check int) "accounting audit"
    (s2.Checker_stats.n_states + s2.Checker_stats.dedup_hits)
    s2.Checker_stats.candidates;
  (* wide (4-byte) keys change the bytes on disk, never the statistics *)
  let s3 = E.explore_external ~hot_cap:64 ~wide:true ~dir:(tmp_dir "wide") cfg in
  check_stats "wide keys" rs s3

let test_external_truncation_parity () =
  let cfg = cfg () in
  let n = (Lazy.force oracle).Checker_stats.n_states in
  List.iter
    (fun b ->
      let _, rs = E.explore_with_stats ~max_states:b cfg in
      let s =
        E.explore_external ~max_states:b ~hot_cap:32 ~dir:(tmp_dir "trunc") cfg
      in
      check_stats (Printf.sprintf "budget %d" b) rs s;
      Alcotest.(check bool) "truncated" false s.Checker_stats.complete;
      Alcotest.(check bool) "stopped by budget" true
        (s.Checker_stats.stop = Checker_stats.Budget))
    [ max 1 (n / 7); n / 2 ]

(* ------------------- checkpoint / resume ----------------------------- *)

let test_resume_after_budget () =
  let cfg = cfg () in
  let dir = tmp_dir "resume" in
  let snap = tmp_snap "resume" in
  let n = (Lazy.force oracle).Checker_stats.n_states in
  let t =
    E.explore_external ~max_states:(n / 3) ~hot_cap:32 ~dir ~snapshot_to:snap
      cfg
  in
  Alcotest.(check bool) "truncated by budget" true
    (t.Checker_stats.stop = Checker_stats.Budget);
  (* the pre-generation checkpoint makes the resume exact: continuing
     with a bigger budget matches a never-truncated run bit for bit *)
  let r = E.explore_external ~resume_from:snap ~hot_cap:32 ~dir cfg in
  check_stats "resumed = uninterrupted" (Lazy.force oracle) r;
  Alcotest.(check bool) "resumed run complete" true r.Checker_stats.complete

let test_resume_after_interrupt () =
  let cfg = cfg () in
  let dir = tmp_dir "intr" in
  let snap = tmp_snap "intr" in
  Snapshot.reset_stop ();
  Snapshot.request_stop ();
  let t =
    Fun.protect ~finally:Snapshot.reset_stop (fun () ->
        E.explore_external ~hot_cap:32 ~dir ~snapshot_to:snap cfg)
  in
  Alcotest.(check bool) "stopped by the request" true
    (t.Checker_stats.stop = Checker_stats.Interrupted);
  let r = E.explore_external ~resume_from:snap ~hot_cap:32 ~dir cfg in
  check_stats "resume after interrupt" (Lazy.force oracle) r

(* Mid-spill scenario: stage 1 truncates with everything still hot;
   stage 2 resumes with a tiny hot table, spills a run, checkpoints and
   is interrupted — its newest checkpoint references both a run file and
   a hot remainder. *)
let mid_spill_setup () =
  let cfg = cfg () in
  let dir = tmp_dir "mid" in
  let snap = tmp_snap "mid" in
  let n = (Lazy.force oracle).Checker_stats.n_states in
  let t1 =
    E.explore_external ~max_states:(n / 5) ~dir ~snapshot_to:snap cfg
  in
  Alcotest.(check bool) "stage 1 truncated" true
    (t1.Checker_stats.stop = Checker_stats.Budget);
  Snapshot.reset_stop ();
  Snapshot.request_stop ();
  let t2 =
    Fun.protect ~finally:Snapshot.reset_stop (fun () ->
        E.explore_external ~resume_from:snap ~snapshot_to:snap ~hot_cap:8 ~dir
          cfg)
  in
  Alcotest.(check bool) "stage 2 interrupted" true
    (t2.Checker_stats.stop = Checker_stats.Interrupted);
  Alcotest.(check bool) "stage 2 spilled a run" true
    (t2.Checker_stats.spilled_runs > 0);
  (cfg, dir, snap)

let test_resume_mid_spill () =
  let cfg, dir, snap = mid_spill_setup () in
  let r = E.explore_external ~resume_from:snap ~hot_cap:8 ~dir cfg in
  check_stats "mid-spill resume = uninterrupted" (Lazy.force oracle) r

let test_salvage_damaged_run () =
  let cfg, dir, snap = mid_spill_setup () in
  (* the file holds the stage-1 chunk (no runs) and stage-2 chunks (run
     manifest + hot remainder): enough history to roll back through *)
  let _, chunks, _ = Snapshot.read_chunks ~path:snap in
  Alcotest.(check bool) "several checkpoints on file" true
    (List.length chunks >= 2);
  (* damage the run the newest checkpoints reference *)
  let path = Filename.concat dir "run-0000.run" in
  Alcotest.(check bool) "spilled run exists" true (Sys.file_exists path);
  let sz = (Unix.stat path).Unix.st_size in
  Unix.truncate path (sz / 2);
  (* a strict resume refuses: the newest checkpoint's manifest no longer
     validates *)
  (match E.explore_external ~resume_from:snap ~dir cfg with
  | _ -> Alcotest.fail "strict resume accepted a damaged run file"
  | exception Snapshot.Error _ -> ());
  (* salvage walks back to the stage-1 checkpoint (which references no
     runs), deletes the damaged stray, and still completes exactly *)
  let r =
    E.explore_external ~resume_from:snap ~salvage:true ~hot_cap:8 ~dir cfg
  in
  check_stats "salvaged resume = uninterrupted" (Lazy.force oracle) r;
  Alcotest.(check bool) "salvaged run complete" true r.Checker_stats.complete;
  (* the damaged file was deleted on rollback; if a run lives at that
     name again it is a fresh spill from the salvaged resume, not the
     truncated original *)
  if Sys.file_exists path then
    Alcotest.(check bool) "rewritten, not the truncated original" true
      ((Unix.stat path).Unix.st_size <> sz / 2)

(* A byte quota on the run store is an honest resource limit, not a
   crash: the explorer stops before the spill that would breach it,
   flushes a checkpoint, and reports [Disk_full]; resuming on a bigger
   disk completes bit-identically. *)
let test_quota_degrades_gracefully () =
  let cfg = cfg () in
  let dir = tmp_dir "quotax" in
  let snap = tmp_snap "quotax" in
  let t =
    E.explore_external ~hot_cap:8 ~disk_quota_bytes:16 ~dir ~snapshot_to:snap
      cfg
  in
  Alcotest.(check bool) "truncated, not crashed" false
    t.Checker_stats.complete;
  Alcotest.(check bool) "stop reason is disk_full" true
    (t.Checker_stats.stop = Checker_stats.Disk_full);
  Alcotest.(check int) "no run breached the quota" 0
    t.Checker_stats.spilled_runs;
  Alcotest.(check bool) "made some progress first" true
    (t.Checker_stats.n_states >= 1);
  Alcotest.(check bool) "checkpoint flushed" true (Sys.file_exists snap);
  let contains ~affix s =
    let n = String.length affix and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
    n = 0 || go 0
  in
  Alcotest.(check bool) "stop tag in json" true
    (contains ~affix:"\"disk_full\"" (Checker_stats.to_json t));
  (* same dir, quota lifted: the resume completes to the oracle *)
  let r = E.explore_external ~resume_from:snap ~hot_cap:8 ~dir cfg in
  check_stats "resume without quota = uninterrupted" (Lazy.force oracle) r;
  Alcotest.(check bool) "resumed run complete" true r.Checker_stats.complete

let suite =
  [
    Alcotest.test_case "run store round-trips" `Quick test_store_roundtrip;
    Alcotest.test_case "restore deletes stray runs" `Quick
      test_restore_deletes_strays;
    Alcotest.test_case "restore refuses damage" `Quick
      test_restore_refuses_damage;
    Alcotest.test_case "tmp spill debris swept" `Quick test_tmp_debris_swept;
    Alcotest.test_case "spill verifies after write" `Quick
      test_spill_verifies_after_write;
    Alcotest.test_case "spill rejects malformed runs" `Quick
      test_spill_rejects_malformed;
    Alcotest.test_case "quota accounting in the run store" `Quick
      test_quota_accounting;
    Alcotest.test_case "quota degrades gracefully, resume completes" `Quick
      test_quota_degrades_gracefully;
    Alcotest.test_case "spill-and-probe = in-RAM stats" `Quick
      test_external_parity;
    Alcotest.test_case "budget truncation parity" `Quick
      test_external_truncation_parity;
    Alcotest.test_case "budget resume is exact" `Quick
      test_resume_after_budget;
    Alcotest.test_case "interrupt resume is exact" `Quick
      test_resume_after_interrupt;
    Alcotest.test_case "mid-spill resume is exact" `Quick
      test_resume_mid_spill;
    Alcotest.test_case "salvage after damaging newest run" `Quick
      test_salvage_damaged_run;
  ]
