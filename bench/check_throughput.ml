(* Checker throughput sweep, recorded to BENCH_checker.json.

   Two kinds of workload:

   - par-vs-seq: the frontier-parallel explorer against the sequential
     reference, on each in-tree protocol family. Every parallel run is
     first cross-validated against the sequential one (bit-identical
     states, transitions, completeness) before its timing is reported,
     so a number in the JSON always describes a correct run. Timings are
     min-of-[reps] wall clock.

   - reduced-vs-full: symmetry-quotient exploration ([~reduction:Canon])
     against the full graph on symmetric configurations (identical
     namings, equal inputs), recording both state counts and the
     reduction factor (orbit mass per stored state). The quotient run is
     additionally cross-validated par-vs-seq.

     The centerpiece is Figure 1's mutex on m = 5 registers with three
     lock-step processes: its full graph blows the 2M-state budget while
     the quotient (S_3, order 6) completes — the quotient's [orbit_sum]
     still reports the exact full-graph size. Skipped under --quick.

   Every timed run is also audited for the dedup-accounting invariant
   (complete runs: candidates = states + dedup_hits) — a broken counter
   fails the bench rather than recording silently-wrong rows.

   Runs APPEND to BENCH_checker.json (a JSON array of timestamped run
   objects), so the file accumulates a history across hosts and commits.

   Three further kinds of workload ride on the same harness:

   - par-scaling: the states/s-vs-domains curve of the parallel explorer
     against the sequential one, one row per domain count d = 1..DOMAINS.
     --gate-shard RATIO turns the rows with d >= 2 into a CI gate on
     graphs above 10^5 states (`make bench-shard` wires it in at 1.0); on
     a single-domain host the curve is the d = 1 row alone and the gate
     passes vacuously.

   - props: the mutex property layer (to_flat, mutual exclusion,
     deadlock freedom, starvation freedom) on amutex-m3-n3, with its
     verdicts and the flat graph's bytes per state.

   - disk-vs-quotient (--disk): the external-memory explorer runs the
     full UNREDUCED Figure 1 mutex (amutex on m = 5, three lock-step
     processes, 8.4M states — the workload that blows the in-RAM 2M
     budget) with the visited set spilling to disk, and must land
     exactly on the state count predicted by the symmetry quotient's
     orbit mass. --mem-mb N sets the spill watermark (default 512).
     --disk runs only this workload.

     dune exec bench/check_throughput.exe \
       [-- [DOMAINS] [--quick] [--force] [--reps N] [--gate-canon RATIO] \
           [--gate-shard RATIO] [--disk] [--mem-mb N]]

   --reps N overrides the mandatory repetition count (default 3; --quick
   defaults to 1); ms-scale workloads additionally repeat until 0.25 s of
   cumulative measurement (capped at 50 reps) so noise cannot set the
   min. --gate-canon RATIO turns the run into a CI gate: after the
   rows are appended, exit non-zero if any reduced-vs-full workload
   whose full exploration completed has wall-clock speedup below RATIO
   (`make bench-canon` wires this into `make check` at 0.9).

   DOMAINS defaults to Domain.recommended_domain_count (), and asking for
   MORE than that count is refused (oversubscribed domains on this runtime
   measure scheduler churn, not the explorer) unless --force is given.
   Speedups are honest wall-clock ratios on the machine at hand: on a
   single-core host the parallel path never engages (the adaptive
   explorer stays sequential; "cutover": null records why). *)

open Anonmem

let str = Printf.sprintf

type entry = {
  label : string;
  kind : string;
      (* "par-vs-seq" | "reduced-vs-full" | "par-scaling" |
         "disk-vs-quotient" | "props" *)
  a_name : string;
  a_json : string;
  b_name : string;
  b_json : string;
  speedup : float;  (* elapsed(a) / elapsed(b) *)
  domains : int;  (* domains of the "b" run *)
  reduction_factor : float;
  peak_table : int;  (* largest interning-table population of the entry *)
  full_complete : bool;
      (* the baseline ("a") run completed — only such reduced-vs-full
         entries are eligible for the --gate-canon wall-clock gate (a
         truncated full run makes the ratio meaningless) *)
  note : string option;
  skipped : string option;
      (* the workload was not measured at all (e.g. a parallel comparison
         on a single-domain host); such rows carry no stats objects *)
}

let skipped_entry ~label ~kind reason =
  {
    label;
    kind;
    a_name = "";
    a_json = "";
    b_name = "";
    b_json = "";
    speedup = 1.0;
    domains = 1;
    reduction_factor = 1.0;
    peak_table = 0;
    full_complete = false;
    note = None;
    skipped = Some reason;
  }

let reps = ref 3

(* Min-of-reps wall clock, with a measurement-time floor: after the
   mandatory [reps] repetitions, ms-scale workloads keep repeating (up
   to [time_rep_cap] total) until the cumulative measured time reaches
   [time_floor_s]. A single scheduler hiccup on a 2 ms graph can no
   longer set the min; workloads already past the floor stop at [reps]
   as before. *)
let time_floor_s = 0.25
let time_rep_cap = 50

let time_best f =
  let best = ref None in
  let total = ref 0. in
  let n = ref 0 in
  let mandatory = max 1 !reps in
  while !n < mandatory || (!total < time_floor_s && !n < time_rep_cap) do
    let r, s = f () in
    incr n;
    total := !total +. s.Check.Checker_stats.elapsed_s;
    match !best with
    | Some (_, s0) when s0.Check.Checker_stats.elapsed_s <= s.Check.Checker_stats.elapsed_s
      -> ()
    | _ -> best := Some (r, s)
  done;
  Option.get !best

module Sweep (P : Protocol.PROTOCOL) = struct
  module E = Check.Explore.Make (P)

  let same (a : E.graph) (b : E.graph) =
    a.states = b.states && a.succs = b.succs && a.complete = b.complete

  (* Complete runs must balance their books exactly; truncated runs drop
     over-budget candidates on the floor, so only the inequality holds. *)
  let check_accounting ~label ~which (s : Check.Checker_stats.t) =
    let cand = s.Check.Checker_stats.candidates in
    let resolved =
      s.Check.Checker_stats.n_states + s.Check.Checker_stats.dedup_hits
    in
    let broken =
      if s.Check.Checker_stats.complete then cand <> resolved
      else cand < resolved
    in
    if broken then
      failwith
        (str
           "%s (%s): dedup accounting broken: %d candidates vs %d states + \
            %d dedup hits"
           label which cand s.Check.Checker_stats.n_states
           s.Check.Checker_stats.dedup_hits)

  let par_vs_seq ~label ~domains ?max_states (cfg : E.config) =
    if domains < 2 then begin
      (* a 1-domain "parallel" run measures nothing but the wrapper; the
         row records why there is no number instead of a noise ratio *)
      Format.printf "--- %s ---@.skipped: single-domain host@.@." label;
      skipped_entry ~label ~kind:"par-vs-seq" "single-domain host"
    end
    else begin
    let gs, ss = time_best (fun () -> E.explore_with_stats ?max_states cfg) in
    let gp, sp = time_best (fun () -> E.explore_par ~domains ?max_states cfg) in
    if not (same gs gp) then
      failwith (str "%s: parallel explorer diverged from sequential" label);
    check_accounting ~label ~which:"seq" ss;
    check_accounting ~label ~which:"par" sp;
    let speedup =
      ss.Check.Checker_stats.elapsed_s /. sp.Check.Checker_stats.elapsed_s
    in
    Format.printf "--- %s ---@.seq: %a@.par: %a@.speedup: %.2fx@.@." label
      Check.Checker_stats.pp ss Check.Checker_stats.pp sp speedup;
    let note =
      if speedup >= 1.0 then None
      else
        Some
          (match sp.Check.Checker_stats.cutover with
          | None ->
            "parallel path never engaged (single domain or frontier below \
             threshold); difference is timing noise"
          | Some dep ->
            str "parallel from depth %d: overhead exceeded the \
                 per-generation work on this host" dep)
    in
    {
      label;
      kind = "par-vs-seq";
      a_name = "seq";
      a_json = Check.Checker_stats.to_json ss;
      b_name = "par";
      b_json = Check.Checker_stats.to_json sp;
      speedup;
      domains;
      reduction_factor = 1.0;
      peak_table = max ss.Check.Checker_stats.n_states sp.Check.Checker_stats.n_states;
      full_complete = ss.Check.Checker_stats.complete;
      note;
      skipped = None;
    }
    end

  (* Scaling curve: the sequential reference against the parallel
     explorer at each domain count 1..[domains], one row per d. The rows
     with d >= 2 are the ones the --gate-shard CI gate reads. *)
  let par_curve ~label ~domains ?max_states (cfg : E.config) =
    let gs, ss = time_best (fun () -> E.explore_with_stats ?max_states cfg) in
    check_accounting ~label ~which:"seq" ss;
    List.init domains (fun i ->
        let d = i + 1 in
        let row_label = str "%s [par d=%d]" label d in
        let gp, sp =
          time_best (fun () -> E.explore_par ~domains:d ?max_states cfg)
        in
        if not (same gs gp) then
          failwith
            (str "%s: parallel explorer diverged from sequential" row_label);
        check_accounting ~label:row_label ~which:"par" sp;
        let speedup =
          ss.Check.Checker_stats.elapsed_s /. sp.Check.Checker_stats.elapsed_s
        in
        Format.printf "--- %s ---@.seq: %a@.par: %a@.speedup: %.2fx@.@."
          row_label Check.Checker_stats.pp ss Check.Checker_stats.pp sp speedup;
        {
          label = row_label;
          kind = "par-scaling";
          a_name = "seq";
          a_json = Check.Checker_stats.to_json ss;
          b_name = "par";
          b_json = Check.Checker_stats.to_json sp;
          speedup;
          domains = d;
          reduction_factor = 1.0;
          peak_table = ss.Check.Checker_stats.n_states;
          full_complete = ss.Check.Checker_stats.complete;
          note = None;
          skipped = None;
        })

  (* External-memory run of a full (unreduced) graph too big for the
     in-RAM budget, cross-checked against the symmetry quotient: the
     quotient's orbit mass is the exact full-graph size, so the
     disk-backed explorer must land on that number precisely. *)
  let disk_vs_quotient ~label ~mem_mb ?(max_states = 20_000_000)
      (cfg : E.config) =
    let dir = Filename.temp_file "coord-disk" ".d" in
    Sys.remove dir;
    let _, sr = E.explore_with_stats ~reduction:Canon cfg in
    check_accounting ~label ~which:"quotient" sr;
    if not sr.Check.Checker_stats.complete then
      failwith (str "%s: quotient reference did not complete" label);
    let sx =
      E.explore_external ~max_states ~mem_soft_limit_mb:mem_mb ~dir cfg
    in
    (* best-effort cleanup of the spilled runs *)
    (try
       Array.iter
         (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
         (Sys.readdir dir);
       Sys.rmdir dir
     with Sys_error _ -> ());
    check_accounting ~label ~which:"external" sx;
    if not sx.Check.Checker_stats.complete then
      failwith (str "%s: external exploration did not complete" label);
    if sx.Check.Checker_stats.n_states <> sr.Check.Checker_stats.orbit_sum then
      failwith
        (str
           "%s: external explorer found %d states but the quotient's orbit \
            mass says the full graph has %d"
           label sx.Check.Checker_stats.n_states
           sr.Check.Checker_stats.orbit_sum);
    Format.printf
      "--- %s ---@.quotient: %a@.external: %a@.full graph %d states \
       confirmed; %d runs spilled, %d batched probes@.@."
      label Check.Checker_stats.pp sr Check.Checker_stats.pp sx
      sx.Check.Checker_stats.n_states sx.Check.Checker_stats.spilled_runs
      sx.Check.Checker_stats.disk_probes;
    {
      label;
      kind = "disk-vs-quotient";
      a_name = "quotient";
      a_json = Check.Checker_stats.to_json sr;
      b_name = "external";
      b_json = Check.Checker_stats.to_json sx;
      speedup =
        sr.Check.Checker_stats.elapsed_s /. sx.Check.Checker_stats.elapsed_s;
      domains = 1;
      reduction_factor = Check.Checker_stats.reduction_factor sr;
      peak_table = sx.Check.Checker_stats.n_states;
      full_complete = sx.Check.Checker_stats.complete;
      note =
        Some
          "external (disk-backed) full exploration; speedup column is \
           quotient-time/external-time, expected well below 1";
      skipped = None;
    }

  (* The mutex property layer on one explored graph: [to_flat], then the
     three verdicts [coordctl check mutex] prints, each timed min-of-reps
     on the same graph. The flat graph's size is its reachable heap words
     per state. *)
  let props ~label (cfg : E.config) =
    let g, sx = E.explore_with_stats cfg in
    check_accounting ~label ~which:"explore" sx;
    let best f =
      let result = ref None and secs = ref infinity in
      for _ = 1 to max 1 !reps do
        let t0 = Unix.gettimeofday () in
        let r = f () in
        secs := Float.min !secs (Unix.gettimeofday () -. t0);
        result := Some r
      done;
      (Option.get !result, !secs)
    in
    let flat, t_flat = best (fun () -> E.to_flat g) in
    let me, t_me = best (fun () -> Check.Mutex_props.mutual_exclusion flat) in
    let df, t_df = best (fun () -> Check.Mutex_props.deadlock_freedom flat) in
    let sf, t_sf = best (fun () -> Check.Mutex_props.starvation_freedom flat) in
    let n = Check.Flatgraph.n_states flat in
    let bytes_per_state =
      float_of_int (Obj.reachable_words (Obj.repr flat) * (Sys.word_size / 8))
      /. float_of_int (max 1 n)
    in
    let total = t_flat +. t_me +. t_df +. t_sf in
    let starvation =
      match sf with None -> "none" | Some (p, _) -> str "p%d" p
    in
    Format.printf
      "--- %s ---@.explore: %a@.props: to_flat %.3f s, ME %.3f s, DF %.3f s, \
       SF %.3f s; ME %b, DF %b, starvation %s; flat graph %.1f B/state@.@."
      label Check.Checker_stats.pp sx t_flat t_me t_df t_sf (me = None)
      (df = None) starvation bytes_per_state;
    let props_json =
      String.concat ",\n"
        [
          str "  \"to_flat_s\": %.6f" t_flat;
          str "  \"mutual_exclusion_s\": %.6f" t_me;
          str "  \"deadlock_freedom_s\": %.6f" t_df;
          str "  \"starvation_freedom_s\": %.6f" t_sf;
          str "  \"total_s\": %.6f" total;
          str "  \"mutual_exclusion\": %b" (me = None);
          str "  \"deadlock_freedom\": %b" (df = None);
          str "  \"starvation\": %S" starvation;
          str "  \"states\": %d" n;
          str "  \"transitions\": %d" (Check.Flatgraph.n_transitions flat);
          str "  \"flat_bytes_per_state\": %.1f" bytes_per_state;
        ]
    in
    {
      label;
      kind = "props";
      a_name = "explore";
      a_json = Check.Checker_stats.to_json sx;
      b_name = "props";
      b_json = "{\n" ^ props_json ^ "\n}";
      speedup = sx.Check.Checker_stats.elapsed_s /. total;
      domains = 1;
      reduction_factor = 1.0;
      peak_table = n;
      full_complete = g.complete;
      note =
        Some
          "speedup column is explore-time / (to_flat + ME + DF + SF) time; \
           each property time is min-of-reps on one graph";
      skipped = None;
    }

  let reduced_vs_full ~label ~domains ?max_states (cfg : E.config) =
    let gf, sf = time_best (fun () -> E.explore_with_stats ?max_states cfg) in
    let gr, sr =
      time_best (fun () -> E.explore_with_stats ~reduction:Canon ?max_states cfg)
    in
    (* quotient parity across the parallel explorer before reporting *)
    let gp, _ = E.explore_par ~domains ~reduction:Check.Explore.Canon ?max_states cfg in
    if not (same gr gp && gr.orbits = gp.orbits) then
      failwith (str "%s: parallel quotient diverged from sequential" label);
    check_accounting ~label ~which:"full" sf;
    check_accounting ~label ~which:"reduced" sr;
    if
      Array.length gr.states >= Array.length gf.states
      && sr.Check.Checker_stats.group_order > 1
      && gf.complete
    then failwith (str "%s: quotient failed to shrink the state space" label);
    let speedup =
      sf.Check.Checker_stats.elapsed_s /. sr.Check.Checker_stats.elapsed_s
    in
    Format.printf "--- %s ---@.full:    %a@.reduced: %a@.reduction %.2fx, \
                   states %d -> %d, full-time/reduced-time %.2fx@.@."
      label Check.Checker_stats.pp sf Check.Checker_stats.pp sr
      (Check.Checker_stats.reduction_factor sr)
      sf.Check.Checker_stats.n_states sr.Check.Checker_stats.n_states speedup;
    let note =
      if speedup >= 1.0 then None
      else if not gf.complete then
        Some
          "full exploration truncated at the state budget, so the wall-clock \
           ratio understates the quotient (which completed); the reduction \
           factor is the meaningful column"
      else
        Some
          "canonicalization overhead exceeded the state savings at this \
           graph size; the reduction factor still holds"
    in
    {
      label;
      kind = "reduced-vs-full";
      a_name = "full";
      a_json = Check.Checker_stats.to_json sf;
      b_name = "reduced";
      b_json = Check.Checker_stats.to_json sr;
      speedup;
      domains = 1;
      reduction_factor = Check.Checker_stats.reduction_factor sr;
      peak_table = max sf.Check.Checker_stats.n_states sr.Check.Checker_stats.n_states;
      full_complete = gf.complete;
      note;
      skipped = None;
    }
end

module SMutex = Sweep (Coord.Amutex.P)
module SCons = Sweep (Coord.Consensus.P)
module SRen = Sweep (Coord.Renaming.P)
module SCcp = Sweep (Coord.Ccp.P)
module SBurns = Sweep (Baseline.Burns.P)

let indent s =
  String.split_on_char '\n' s
  |> List.map (fun l -> "      " ^ l)
  |> String.concat "\n"

let entry_json e =
  let b = Buffer.create 1024 in
  Buffer.add_string b "    {\n";
  Buffer.add_string b (str "      \"workload\": %S,\n" e.label);
  (* every entry names the host it was measured on: comparisons read in
     isolation (dashboards slice entries out of runs) must show whether
     a parallel ratio comes from a single-domain host, where the
     adaptive explorer never engages and speedups are vacuously 1.0 *)
  let host_cores = Domain.recommended_domain_count () in
  Buffer.add_string b (str "      \"host_cores\": %d,\n" host_cores);
  Buffer.add_string b
    (str "      \"single_domain\": %b,\n" (host_cores < 2));
  (match e.skipped with
  | Some reason ->
    Buffer.add_string b (str "      \"kind\": %S,\n" e.kind);
    Buffer.add_string b (str "      \"skipped\": %S\n    }" reason)
  | None ->
    Buffer.add_string b (str "      \"kind\": %S,\n" e.kind);
    Buffer.add_string b (str "      \"speedup\": %.3f,\n" e.speedup);
    Buffer.add_string b
      (str "      \"reduction_factor\": %.3f,\n" e.reduction_factor);
    Buffer.add_string b (str "      \"peak_table\": %d,\n" e.peak_table);
    (match e.note with
    | Some n -> Buffer.add_string b (str "      \"note\": %S,\n" n)
    | None -> ());
    Buffer.add_string b (str "      \"%s\":\n%s,\n" e.a_name (indent e.a_json));
    Buffer.add_string b
      (str "      \"%s\":\n%s\n    }" e.b_name (indent e.b_json)));
  Buffer.contents b

let utc_timestamp () =
  let t = Unix.gmtime (Unix.gettimeofday ()) in
  str "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
    t.Unix.tm_sec

(* BENCH_checker.json is a JSON array of run objects; append in place. *)
let append_run ~file run_json =
  let previous =
    if Sys.file_exists file then begin
      let ic = open_in_bin file in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (* strip the closing "]" (and trailing whitespace) of the array *)
      let rec last_bracket i = if i < 0 || s.[i] = ']' then i else last_bracket (i - 1) in
      let i = last_bracket (String.length s - 1) in
      if i <= 0 then None else Some (String.sub s 0 i)
    end
    else None
  in
  let oc = open_out file in
  (match previous with
  | Some prefix ->
    output_string oc prefix;
    (* the prefix ends just before the old closing bracket; the previous
       run object is the last non-blank thing in it *)
    output_string oc ",\n";
    output_string oc run_json
  | None ->
    output_string oc "[\n";
    output_string oc run_json);
  output_string oc "\n]\n";
  close_out oc

let () =
  let quick = ref false and force = ref false and domains_arg = ref None in
  let reps_arg = ref None and gate = ref None in
  let gate_shard = ref None and disk = ref false and mem_mb = ref 512 in
  let usage () =
    prerr_endline
      "usage: check_throughput [DOMAINS] [--quick] [--force] [--reps N] \
       [--gate-canon RATIO] [--gate-shard RATIO] [--disk] [--mem-mb N]";
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--force" :: rest ->
      force := true;
      parse rest
    | "--disk" :: rest ->
      disk := true;
      parse rest
    | "--mem-mb" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 16 ->
        mem_mb := n;
        parse rest
      | _ -> usage ())
    | "--reps" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
        reps_arg := Some n;
        parse rest
      | _ -> usage ())
    | "--gate-canon" :: r :: rest -> (
      match float_of_string_opt r with
      | Some r when r > 0. ->
        gate := Some r;
        parse rest
      | _ -> usage ())
    | "--gate-shard" :: r :: rest -> (
      match float_of_string_opt r with
      | Some r when r > 0. ->
        gate_shard := Some r;
        parse rest
      | _ -> usage ())
    | a :: rest -> (
      match int_of_string_opt a with
      | Some d when d >= 1 ->
        domains_arg := Some d;
        parse rest
      | _ -> usage ())
  in
  parse (List.tl (Array.to_list Sys.argv));
  let recommended = Domain.recommended_domain_count () in
  let domains = match !domains_arg with Some d -> d | None -> recommended in
  if domains > recommended && not !force then begin
    Printf.eprintf
      "check_throughput: refusing to run %d domains on a host whose \
       recommended count is %d.\n\
       Oversubscribed domains measure scheduler churn, not the explorer \
       (the last recorded run did exactly that). Pass --force to \
       oversubscribe anyway.\n"
      domains recommended;
    exit 1
  end;
  reps :=
    (match !reps_arg with Some n -> n | None -> if !quick then 1 else 3);
  Format.printf
    "host cores (recommended domains): %d; using %d domain(s), %d rep(s)%s@.@."
    recommended domains !reps
    (if !quick then " [quick]" else "");
  let rot2 m = [| Naming.identity m; Naming.rotation m 1 |] in
  let sym n m = Array.init n (fun _ -> Naming.identity m) in
  let ids n = Array.init n (fun i -> 7 + i) in
  let units n = Array.make n () in
  let entries = ref [] in
  let add e = entries := e :: !entries in
  let add_all es = List.iter add es in
  if !disk then
    (* --disk runs only the external-memory workload: the full unreduced
       Figure 1 mutex (8.4M states), disk-bounded instead of
       budget-truncated, cross-checked against the quotient's orbit mass *)
    add
      (SMutex.disk_vs_quotient ~label:"amutex-m5-n3-disk" ~mem_mb:!mem_mb
         { ids = ids 3; inputs = units 3; namings = sym 3 5 })
  else begin
  (* --- reduced-vs-full: symmetric configurations --- *)
  if not !quick then
    (* Figure 1 on five registers, three lock-step processes: the full
       graph blows the 2M budget, the S_3 quotient completes *)
    add
      (SMutex.reduced_vs_full ~label:"amutex-m5-n3-sym" ~domains
         { ids = ids 3; inputs = units 3; namings = sym 3 5 });
  add
    (SMutex.reduced_vs_full ~label:"amutex-m3-n3-sym" ~domains
       { ids = ids 3; inputs = units 3; namings = sym 3 3 });
  add
    (SMutex.reduced_vs_full ~label:"amutex-m5-n2-sym" ~domains
       { ids = ids 2; inputs = units 2; namings = sym 2 5 });
  add
    (SCons.reduced_vs_full ~label:"consensus-m3-sym" ~domains
       { ids = ids 2; inputs = [| 42; 42 |]; namings = sym 2 3 });
  add
    (SRen.reduced_vs_full ~label:"renaming-m3-sym" ~domains
       { ids = ids 2; inputs = units 2; namings = sym 2 3 });
  add
    (SCcp.reduced_vs_full ~label:"ccp-m2-sym" ~domains
       { ids = ids 2; inputs = units 2; namings = sym 2 2 });
  (* --- par-vs-seq: the historical sweep (full graphs, generic namings) --- *)
  add
    (SMutex.par_vs_seq ~label:"amutex-m5" ~domains
       { ids = [| 7; 13 |]; inputs = [| (); () |]; namings = rot2 5 });
  (* --- parallel scaling at 1..domains, on a full graph big enough for
     the gate (227k states > the 10^5 floor) --- *)
  add_all
    (SMutex.par_curve ~label:"amutex-m3-n3" ~domains
       { ids = ids 3; inputs = units 3; namings = sym 3 3 });
  (* --- the mutex property layer on the same graph --- *)
  add
    (SMutex.props ~label:"amutex-m3-n3"
       { ids = ids 3; inputs = units 3; namings = sym 3 3 });
  if not !quick then begin
    add
      (SMutex.par_vs_seq ~label:"amutex-m3" ~domains
         { ids = [| 7; 13 |]; inputs = [| (); () |]; namings = rot2 3 });
    add
      (SCons.par_vs_seq ~label:"consensus-m3" ~domains
         { ids = [| 7; 13 |]; inputs = [| 100; 200 |]; namings = rot2 3 });
    add
      (SRen.par_vs_seq ~label:"renaming-m3" ~domains
         { ids = [| 7; 13 |]; inputs = [| (); () |]; namings = rot2 3 });
    add
      (SCcp.par_vs_seq ~label:"ccp-m2" ~domains
         { ids = [| 7; 13 |]; inputs = [| (); () |]; namings = rot2 2 });
    add
      (SBurns.par_vs_seq ~label:"burns-n3" ~domains
         (SBurns.E.config ~ids:[ 1; 2; 3 ] ~inputs:[ (); (); () ] ()))
  end;
  end;
  let entries = List.rev !entries in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "  {\n";
  Buffer.add_string buf (str "    \"timestamp\": %S,\n" (utc_timestamp ()));
  Buffer.add_string buf
    (str "    \"host_recommended_domains\": %d,\n" recommended);
  Buffer.add_string buf (str "    \"domains\": %d,\n" domains);
  Buffer.add_string buf (str "    \"quick\": %b,\n" !quick);
  Buffer.add_string buf (str "    \"reps\": %d,\n" !reps);
  Buffer.add_string buf "    \"entries\": [\n";
  List.iteri
    (fun i e ->
      Buffer.add_string buf (entry_json e);
      Buffer.add_string buf
        (if i = List.length entries - 1 then "\n" else ",\n"))
    entries;
  Buffer.add_string buf "    ]\n  }";
  append_run ~file:"BENCH_checker.json" (Buffer.contents buf);
  Format.printf "appended run to BENCH_checker.json@.";
  (* the gates run AFTER the append: a failing run still leaves its
     evidence in the history *)
  (match !gate with
  | None -> ()
  | Some ratio ->
    let eligible =
      List.filter
        (fun e -> e.kind = "reduced-vs-full" && e.full_complete)
        entries
    in
    let failures = List.filter (fun e -> e.speedup < ratio) eligible in
    if failures <> [] then begin
      List.iter
        (fun e ->
          Printf.eprintf
            "gate: %s: canon wall-clock %.3fx the full exploration, below \
             the %.2fx gate\n"
            e.label e.speedup ratio)
        failures;
      exit 1
    end
    else
      Format.printf
        "gate: all %d quotient workloads at or above %.2fx full wall-clock@."
        (List.length eligible) ratio);
  match !gate_shard with
  | None -> ()
  | Some ratio ->
    (* the parallel explorer must beat sequential on graphs big enough
       to amortize domain startup (> 10^5 states); a single-domain host
       has only the d = 1 row and passes vacuously *)
    let eligible =
      List.filter
        (fun e ->
          e.kind = "par-scaling" && e.domains >= 2 && e.peak_table > 100_000)
        entries
    in
    if eligible = [] then
      Format.printf
        "gate: no parallel workloads eligible on this host (single domain \
         or all graphs under 10^5 states); vacuous pass@."
    else begin
      let failures = List.filter (fun e -> e.speedup < ratio) eligible in
      if failures <> [] then begin
        List.iter
          (fun e ->
            Printf.eprintf
              "gate: %s: parallel wall-clock %.3fx sequential, below the \
               %.2fx gate\n"
              e.label e.speedup ratio)
          failures;
        exit 1
      end
      else
        Format.printf
          "gate: all %d parallel workloads at or above %.2fx sequential \
           wall-clock@."
          (List.length eligible) ratio
    end
