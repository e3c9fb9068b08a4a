(* checkbench: the checker benchmark.

     main.exe [run] --workload W --seed N --seconds S --trace 0|1
     main.exe compare BASE.jsonl CAND.jsonl
     main.exe inputs --workload W --seed N

   [run] spawns [rep] and [oracle] children of this same executable. *)

open Checkbench

let usage () =
  prerr_endline
    "usage: checkbench [run] --workload big-graph|job-mix|bounded-memory --seed N \
     --seconds S --trace 0|1 [--domains D] [--out FILE] [--bench BENCHMARK.json]\n\
    \       checkbench compare BASE.jsonl CAND.jsonl [--bench BENCHMARK.json]\n\
    \       checkbench inputs --workload W --seed N";
  exit 2

let () =
  let argv = Array.to_list Sys.argv |> List.tl in
  let cmd, args =
    match argv with
    | c :: rest when String.length c > 0 && c.[0] <> '-' -> (c, rest)
    | _ -> ("run", argv)
  in
  let workload = ref None and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let domains = ref (min 2 (Domain.recommended_domain_count ())) in
  let out = ref "_checkbench/results.jsonl" and bench = ref "BENCHMARK.json" in
  let rep = ref 0 and t0 = ref 0. and work = ref "" and oracle = ref None in
  let trace_out = ref None and positional = ref [] in
  let set_workload s =
    match Inputs.workload_of_string s with
    | Some w -> workload := Some w
    | None -> raise (Arg.Bad ("unknown workload " ^ s))
  in
  let specs =
    [
      ("--workload", Arg.String set_workload, "");
      ("--seed", Arg.Set_int seed, "");
      ("--seconds", Arg.Set_int seconds, "");
      ("--trace", Arg.Set_int trace, "");
      ("--domains", Arg.Set_int domains, "");
      ("--out", Arg.Set_string out, "");
      ("--bench", Arg.Set_string bench, "");
      ("--rep", Arg.Set_int rep, "");
      ("--t0", Arg.Set_float t0, "");
      ("--work", Arg.Set_string work, "");
      ("--oracle", Arg.String (fun s -> oracle := Some s), "");
      ("--trace-out", Arg.String (fun s -> trace_out := Some s), "");
    ]
  in
  (try
     Arg.parse_argv ~current:(ref 0)
       (Array.of_list ("checkbench" :: args))
       specs
       (fun a -> positional := a :: !positional)
       ""
   with Arg.Bad _ | Arg.Help _ -> usage ());
  let need_workload () = match !workload with Some w -> w | None -> usage () in
  let code =
    match cmd with
    | "run" ->
      if !trace <> 0 && !trace <> 1 then usage ();
      Harness.run ~workload:(need_workload ()) ~seed:!seed ~seconds:!seconds
        ~trace:(!trace = 1) ~domains:!domains ~out:!out ~defs_path:!bench
    | "rep" ->
      Child.rep ~workload:(need_workload ()) ~seed:!seed ~rep:!rep ~t0:!t0
        ~domains:!domains ~work:!work ~oracle:!oracle ~trace_out:!trace_out ~out:!out;
      0
    | "oracle" ->
      Child.oracle ~workload:(need_workload ()) ~seed:!seed ~domains:!domains ~out:!out;
      0
    | "compare" -> (
      match List.rev !positional with
      | [ base; cand ] -> Compare.main ~defs_path:!bench ~base ~cand
      | _ -> usage ())
    | "inputs" ->
      print_endline (Inputs.describe ~seed:!seed (need_workload ()));
      0
    | _ -> usage ()
  in
  exit code
