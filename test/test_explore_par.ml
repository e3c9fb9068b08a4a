open Anonmem
open Check

(* Cross-validation of the packed, delta-keyed engines against the
   string-keyed reference explorer ([explore] without checkpoint options,
   which re-encodes every candidate and dedups through a Hashtbl). The
   engines promise a bit-identical graph — same state numbering,
   transition lists, orbit sizes and completeness flag — for any domain
   count, under either reduction, so every check here is exact equality,
   not just "same verdicts". The external-memory engine materializes no
   graph; its statistics must match the in-RAM engine's. *)

let domains_under_test = [ 1; 2; 3 ]

let reductions = [ Explore.Full; Explore.Canon ]

(* A fresh directory for one external run, removed afterwards. *)
let with_tmp_dir f =
  let dir = Filename.temp_file "coordpar" ".d" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun x -> Sys.remove (Filename.concat dir x)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

module Parity (P : Protocol.PROTOCOL) = struct
  module E = Explore.Make (P)

  (* Compares the reference explorer against [explore_par] at several
     domain counts and thresholds, against [explore_with_stats], and the
     external engine's statistics against [explore_with_stats]'s, and
     sanity-checks the reported statistics against the graph. *)
  let run_reduction ?max_states ~reduction (cfg : E.config) =
    let red = Explore.reduction_tag reduction in
    let seq = E.explore ?max_states ~reduction cfg in
    let n_seq = Array.length seq.states in
    List.iter
      (fun d ->
        (* threshold 0 forces either engine's parallel phases from depth
           0; the default threshold exercises the sequential warm-up /
           adaptive path *)
        List.iter
          (fun (engine, threshold) ->
            let par, stats =
              E.explore_par ?max_states ~domains:d ?par_threshold:threshold
                ~engine ~reduction cfg
            in
            let tag what =
              Printf.sprintf "%s %s (%s, %d domains, threshold %s): %s" P.name
                red (Explore.engine_tag engine) d
                (match threshold with Some t -> string_of_int t | None -> "-")
                what
            in
            Alcotest.(check bool)
              (tag "same states")
              true
              (seq.states = par.states);
            Alcotest.(check bool)
              (tag "same transitions")
              true
              (seq.succs = par.succs);
            Alcotest.(check bool) (tag "same orbits") true
              (seq.orbits = par.orbits);
            Alcotest.(check bool)
              (tag "same completeness")
              true
              (seq.complete = par.complete);
            Alcotest.(check int) (tag "stats domains") d
              stats.Checker_stats.domains;
            Alcotest.(check int) (tag "stats states") n_seq
              stats.Checker_stats.n_states;
            (match (threshold, d > 1, n_seq > 1) with
            | Some 0, true, true ->
              (* every generation after depth 0 ran the barrier phases *)
              Alcotest.(check bool)
                (tag "cutover recorded")
                true
                (stats.Checker_stats.cutover = Some 0)
            | _ -> ());
            (* dedup accounting: on a complete run every candidate either
               became a state or deduplicated; truncation drops candidates
               on the floor, so only the inequality survives *)
            if stats.Checker_stats.complete then
              Alcotest.(check int)
                (tag "candidates = states + dedup_hits")
                (stats.Checker_stats.n_states + stats.Checker_stats.dedup_hits)
                stats.Checker_stats.candidates
            else
              Alcotest.(check bool)
                (tag "candidates >= states + dedup_hits")
                true
                (stats.Checker_stats.candidates
                >= stats.Checker_stats.n_states + stats.Checker_stats.dedup_hits);
            Alcotest.(check int)
              (tag "shard loads sum to states")
              n_seq
              (Array.fold_left ( + ) 0 stats.Checker_stats.shard_load))
          [
            (Explore.Sharded, None);
            (Explore.Sharded, Some 0);
            (Explore.Barrier, Some 0);
          ])
      domains_under_test;
    let ws, ws_stats = E.explore_with_stats ?max_states ~reduction cfg in
    Alcotest.(check bool)
      (Printf.sprintf "%s %s: with_stats parity" P.name red)
      true
      (seq.states = ws.states && seq.succs = ws.succs && seq.orbits = ws.orbits
     && seq.complete = ws.complete);
    (* external engine, with a hot set small enough to spill a few runs *)
    let hot_cap = max 16 (n_seq / 4) in
    let xs =
      with_tmp_dir (fun dir ->
          E.explore_external ?max_states ~reduction ~hot_cap ~dir cfg)
    in
    let tag what = Printf.sprintf "%s %s external: %s" P.name red what in
    Alcotest.(check bool)
      (tag "stats = explore_with_stats (mod clock)")
      true
      (Checker_stats.equal_ignoring_time ws_stats xs);
    if n_seq > 2 * hot_cap then
      Alcotest.(check bool) (tag "spilled") true
        (xs.Checker_stats.spilled_runs > 0)

  let run ?max_states cfg =
    List.iter (fun reduction -> run_reduction ?max_states ~reduction cfg) reductions
end

(* --- toy protocol (plus budget truncation, where ids must still align) --- *)

module PToy = Parity (Test_runtime.Toy)

let toy_cfg () = PToy.E.config ~ids:[ 5; 9 ] ~inputs:[ (); () ] ()

let test_toy () = PToy.run (toy_cfg ())

let test_toy_truncated () =
  (* the budget must cut the parallel id assignment at the exact same
     candidate as the sequential scan *)
  List.iter (fun b -> PToy.run ~max_states:b (toy_cfg ())) [ 1; 5; 17 ]

(* --- the paper's protocols --- *)

module PMutex = Parity (Coord.Amutex.P)

let test_amutex () =
  List.iter
    (fun nam ->
      PMutex.run
        {
          ids = [| 7; 13 |];
          inputs = [| (); () |];
          namings = [| Naming.identity 3; nam |];
        })
    [ Naming.identity 3; Naming.rotation 3 1 ]

module PCons = Parity (Coord.Consensus.P)

let test_consensus () =
  PCons.run
    {
      ids = [| 7; 13 |];
      inputs = [| 100; 200 |];
      namings = [| Naming.identity 3; Naming.rotation 3 2 |];
    }

module PRen = Parity (Coord.Renaming.P)

let test_renaming () =
  PRen.run
    {
      ids = [| 7; 13 |];
      inputs = [| (); () |];
      namings = [| Naming.identity 3; Naming.rotation 3 1 |];
    }

module PCcp = Parity (Coord.Ccp.P)

let test_ccp () =
  PCcp.run
    {
      ids = [| 7; 13 |];
      inputs = [| (); () |];
      namings = [| Naming.identity 2; Naming.rotation 2 1 |];
    }

(* --- known-name baselines --- *)

module PPet = Parity (Baseline.Peterson.P)

let test_peterson () =
  PPet.run (PPet.E.config ~ids:[ 1; 2 ] ~inputs:[ (); () ] ())

module PBurns = Parity (Baseline.Burns.P)

let test_burns () =
  PBurns.run (PBurns.E.config ~ids:[ 1; 2; 3 ] ~inputs:[ (); (); () ] ())

(* --- the rest of the in-tree protocols --- *)

module PCmp = Parity (Coord.Cmp_mutex.P)

let test_cmp_mutex () =
  PCmp.run
    {
      ids = [| 7; 13 |];
      inputs = [| (); () |];
      namings = [| Naming.identity 2; Naming.rotation 2 1 |];
    }

module PElect = Parity (Coord.Election.P)

let test_election () =
  List.iter
    (fun nam ->
      PElect.run
        {
          ids = [| 7; 13 |];
          inputs = [| (); () |];
          namings = [| Naming.identity 3; nam |];
        })
    [ Naming.identity 3; Naming.rotation 3 2 ]

module PCcpK = Parity (Coord.Ccp_k.P3)

let test_ccp_k () =
  PCcpK.run ~max_states:4_000
    {
      ids = [| 7; 13 |];
      inputs = [| (); () |];
      namings = [| Naming.identity 3; Naming.rotation 3 1 |];
    }

module PFast = Parity (Baseline.Fast_mutex.P)

let test_fast_mutex () =
  PFast.run (PFast.E.config ~ids:[ 1; 2 ] ~inputs:[ (); () ] ())

module PTour = Parity (Baseline.Tournament.P)

let test_tournament () =
  PTour.run (PTour.E.config ~ids:[ 1; 2 ] ~inputs:[ (); () ] ())

module PCa = Parity (Baseline.Ca_consensus.P)

let test_ca_consensus () =
  let m = Baseline.Ca_consensus.P.registers_for ~n:2 ~rounds:2 in
  PCa.run (PCa.E.config ~m ~ids:[ 1; 2 ] ~inputs:[ 100; 200 ] ())

module PChain = Parity (Baseline.Chain_renaming.P)

let test_chain_renaming () =
  PChain.run (PChain.E.config ~ids:[ 7; 13 ] ~inputs:[ (); () ] ())

(* --- engine matrix: sequential vs barrier vs sharded --------------------
   The sharded work-stealing engine promises the same bit-identical graph
   as the barrier engine, for every domain count and any mailbox/steal
   batch size — batches shape scheduling, never the result. Batch size 1
   is the adversarial case: every cross-shard candidate rides its own ring
   slot, maximizing handoff traffic and full-ring backpressure. *)

let engines = [ Explore.Barrier; Explore.Sharded ]

let matrix_domains = [ 2; 4 ]

let batch_configs = [ (Some 1, Some 1); (Some 3, Some 2); (None, None) ]

module Matrix (P : Protocol.PROTOCOL) = struct
  module E = Explore.Make (P)

  let run ?max_states (cfg : E.config) =
    let seq = E.explore ?max_states cfg in
    List.iter
      (fun domains ->
        List.iter
          (fun engine ->
            List.iter
              (fun (handoff_batch, steal_batch) ->
                let par, stats =
                  E.explore_par ?max_states ~domains ~par_threshold:0 ~engine
                    ?handoff_batch ?steal_batch cfg
                in
                let tag what =
                  Printf.sprintf "%s [%s d=%d hb=%s sb=%s]: %s" P.name
                    (Explore.engine_tag engine)
                    domains
                    (match handoff_batch with
                    | Some v -> string_of_int v
                    | None -> "-")
                    (match steal_batch with
                    | Some v -> string_of_int v
                    | None -> "-")
                    what
                in
                Alcotest.(check bool)
                  (tag "same states") true
                  (seq.E.states = par.E.states);
                Alcotest.(check bool)
                  (tag "same transitions") true
                  (seq.E.succs = par.E.succs);
                Alcotest.(check bool)
                  (tag "same completeness") true
                  (seq.E.complete = par.E.complete);
                if stats.Checker_stats.complete then
                  Alcotest.(check int)
                    (tag "candidates = states + dedup_hits")
                    (stats.Checker_stats.n_states
                   + stats.Checker_stats.dedup_hits)
                    stats.Checker_stats.candidates;
                Alcotest.(check int)
                  (tag "shard loads sum to states")
                  (Array.length seq.E.states)
                  (Array.fold_left ( + ) 0 stats.Checker_stats.shard_load))
              batch_configs)
          engines)
      matrix_domains
end

module MToy = Matrix (Test_runtime.Toy)
module MMutex = Matrix (Coord.Amutex.P)

let mutex_cfg =
  {
    MMutex.E.ids = [| 7; 13 |];
    inputs = [| (); () |];
    namings = [| Naming.identity 3; Naming.identity 3 |];
  }

let test_engine_matrix () =
  MToy.run (MToy.E.config ~ids:[ 5; 9 ] ~inputs:[ (); () ] ());
  MMutex.run mutex_cfg

let test_engine_matrix_truncated () =
  (* the budget must cut the merge scan at the exact same candidate in
     every engine, at every batch size *)
  List.iter
    (fun b ->
      MToy.run ~max_states:b (MToy.E.config ~ids:[ 5; 9 ] ~inputs:[ (); () ] ()))
    [ 1; 5; 17 ];
  MMutex.run ~max_states:40 mutex_cfg

(* A worker domain killed by a seeded fault plan mid-campaign: supervised
   mode must absorb it (respawn, requeue) and still produce the exact
   sequential graph, whatever engine was requested. *)
let test_sharded_supervised_kill () =
  let seq = MMutex.E.explore mutex_cfg in
  (* each crew width gets its own seeded kill: the victim's shard lease
     must be reassigned (or the attempt replayed) without the engine
     falling back to barrier phases, and the merged graph must still be
     the sequential oracle's, bit for bit *)
  List.iter
    (fun domains ->
      let plan =
        {
          Resilience.seed = 11;
          faults = [ Resilience.Kill_domain { domain = 1; after_ticks = 40 } ];
        }
      in
      Resilience.arm plan;
      Fun.protect ~finally:Resilience.disarm (fun () ->
          let par, stats =
            MMutex.E.explore_par ~domains ~par_threshold:0
              ~engine:Explore.Sharded ~supervise:true mutex_cfg
          in
          let lbl msg = Printf.sprintf "d%d: %s" domains msg in
          Alcotest.(check bool)
            (lbl "killed worker absorbed: same states")
            true
            (seq.MMutex.E.states = par.MMutex.E.states);
          Alcotest.(check bool)
            (lbl "killed worker absorbed: same transitions")
            true
            (seq.MMutex.E.succs = par.MMutex.E.succs);
          Alcotest.(check bool)
            (lbl "run completed") true stats.Checker_stats.complete))
    [ 2; 4 ]

(* --- statistics coherence on a complete exploration --- *)

let test_stats_coherent () =
  let g, s = PToy.E.explore_with_stats (toy_cfg ()) in
  let n = Array.length g.states in
  Alcotest.(check int) "states" n s.Checker_stats.n_states;
  Alcotest.(check bool) "complete" true s.Checker_stats.complete;
  Alcotest.(check int) "transitions" s.Checker_stats.n_transitions
    (Array.fold_left (fun acc ts -> acc + List.length ts) 0 g.succs);
  (* every state — the initial one included — was interned off a
     candidate; the rest of the candidates deduplicated away. This is the
     regression test for the old off-by-one where the initial state was
     never counted as a candidate. *)
  Alcotest.(check int) "candidate accounting" (s.Checker_stats.dedup_hits + n)
    s.Checker_stats.candidates;
  let sum f = List.fold_left (fun acc d -> acc + f d) 0 s.Checker_stats.depths in
  Alcotest.(check int) "frontiers partition the states" n
    (sum (fun d -> d.Checker_stats.frontier));
  Alcotest.(check int) "per-depth discoveries" (n - 1)
    (sum (fun d -> d.Checker_stats.discovered));
  Alcotest.(check int) "depth samples" (s.Checker_stats.max_depth + 1)
    (List.length s.Checker_stats.depths);
  Alcotest.(check bool) "throughput positive" true
    (Checker_stats.states_per_sec s > 0.);
  Alcotest.(check bool) "json has fields" true
    (let j = Checker_stats.to_json s in
     String.length j > 0
     &&
     let contains needle =
       let nl = String.length needle and sl = String.length j in
       let rec go i =
         i + nl <= sl && (String.sub j i nl = needle || go (i + 1))
       in
       go 0
     in
     contains "\"states\"" && contains "\"states_per_sec\""
     && contains "\"dedup_rate\"")

let suite =
  [
    Alcotest.test_case "par = seq: toy" `Quick test_toy;
    Alcotest.test_case "par = seq: toy under budget" `Quick test_toy_truncated;
    Alcotest.test_case "par = seq: anonymous mutex" `Quick test_amutex;
    Alcotest.test_case "par = seq: consensus" `Quick test_consensus;
    Alcotest.test_case "par = seq: renaming" `Quick test_renaming;
    Alcotest.test_case "par = seq: ccp" `Quick test_ccp;
    Alcotest.test_case "par = seq: peterson" `Quick test_peterson;
    Alcotest.test_case "par = seq: burns" `Quick test_burns;
    Alcotest.test_case "par = seq: cmp_mutex" `Quick test_cmp_mutex;
    Alcotest.test_case "par = seq: election" `Quick test_election;
    Alcotest.test_case "par = seq: ccp_k" `Quick test_ccp_k;
    Alcotest.test_case "par = seq: fast_mutex" `Quick test_fast_mutex;
    Alcotest.test_case "par = seq: tournament" `Quick test_tournament;
    Alcotest.test_case "par = seq: ca_consensus" `Quick test_ca_consensus;
    Alcotest.test_case "par = seq: chain_renaming" `Quick
      test_chain_renaming;
    Alcotest.test_case "checker stats are coherent" `Quick test_stats_coherent;
    Alcotest.test_case "engine matrix: barrier = sharded = seq" `Quick
      test_engine_matrix;
    Alcotest.test_case "engine matrix under budget" `Quick
      test_engine_matrix_truncated;
    Alcotest.test_case "sharded + supervise absorbs a seeded kill" `Quick
      test_sharded_supervised_kill;
  ]
