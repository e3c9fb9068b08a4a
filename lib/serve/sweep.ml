let str = Printf.sprintf

type spec = {
  name : string;
  kind : Spec.kind;
  protos : Spec.proto list;
  ns : int list;
  ms : int list option;
  reductions : Check.Explore.reduction list;
  engines : Spec.engine list;
  fault_seeds : int option list;
  seeds : int list;
  strategies : Check.Hunt.strategy list;
  max_states : int option;
  attempts : int option;
  steps : int option;
  deadline_s : float option;
  expect_default : string option;
  expect_overrides : (string * string) list;
}

(* ------------------------------------------------------------------ *)
(* parsing: one "key = value" per line, list values comma-separated    *)
(* ------------------------------------------------------------------ *)

let kv_lines s =
  let err = ref None in
  let pairs =
    String.split_on_char '\n' s
    |> List.filter_map (fun line ->
           let line =
             match String.index_opt line '#' with
             | Some i -> String.sub line 0 i
             | None -> line
           in
           let line = String.trim line in
           if line = "" then None
           else
             match String.index_opt line '=' with
             | None ->
               if !err = None then
                 err := Some (str "malformed line %S (expected key = value)" line);
               None
             | Some i ->
               let k = String.trim (String.sub line 0 i) in
               let v =
                 String.trim
                   (String.sub line (i + 1) (String.length line - i - 1))
               in
               Some (k, v))
  in
  match !err with Some e -> Error e | None -> Ok pairs

let split_list v =
  String.split_on_char ',' v |> List.map String.trim
  |> List.filter (fun s -> s <> "")

let map_result f l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> ( match f x with Ok y -> go (y :: acc) rest | Error _ as e -> e)
  in
  go [] l

let int_list k v =
  map_result
    (fun s ->
      match int_of_string_opt s with
      | Some i -> Ok i
      | None -> Error (str "%s: expected an integer, got %S" k s))
    (split_list v)

(* sizes out of range are refused here, as Spec.parse refuses them *)
let in_range k i = Result.map_error Spec.range_message (Spec.check_range k i)
let sizes k v = Result.bind (int_list k v) (map_result (in_range k))

let verdict_tags =
  [ "pass"; "violation"; "truncated"; "deadline"; "disagreement"; "failed" ]

let parse s =
  let ( let* ) = Result.bind in
  let* kv = kv_lines s in
  let find k = List.assoc_opt k kv in
  let* kind =
    match find "kind" with
    | None | Some "check" -> Ok Spec.Check
    | Some "fuzz" -> Ok Spec.Fuzz
    | Some "hunt" -> Ok Spec.Hunt
    | Some v -> Error (str "unknown kind %S (expected check|fuzz|hunt)" v)
  in
  let* protos =
    match find "protocols" with
    | None -> Error "missing required key: protocols"
    | Some v -> map_result Spec.proto_of_string (split_list v)
  in
  let* ns = match find "n" with None -> Ok [ 2 ] | Some v -> sizes "n" v in
  let* ms =
    match find "m" with
    | None -> Ok None
    | Some v -> Result.map Option.some (sizes "m" v)
  in
  let* reductions =
    match find "reductions" with
    | None -> Ok [ Check.Explore.Full ]
    | Some v ->
      map_result
        (function
          | "full" -> Ok Check.Explore.Full
          | "canon" -> Ok Check.Explore.Canon
          | r -> Error (str "unknown reduction %S" r))
        (split_list v)
  in
  let* engines =
    match find "engines" with
    | None -> Ok [ Spec.Seq ]
    | Some v ->
      map_result Spec.engine_of_string (split_list v)
  in
  let* fault_seeds =
    match find "faults" with
    | None -> Ok [ None ]
    | Some v ->
      map_result
        (fun s ->
          if s = "none" then Ok None
          else
            match int_of_string_opt s with
            | Some i -> Ok (Some i)
            | None -> Error (str "faults: expected none or a seed, got %S" s))
        (split_list v)
  in
  let* seeds =
    match find "seeds" with None -> Ok [ 1 ] | Some v -> int_list "seeds" v
  in
  let* strategies =
    match find "strategies" with
    | None -> Ok [ Check.Hunt.Bursts ]
    | Some v ->
      map_result
        (function
          | "uniform" -> Ok Check.Hunt.Uniform
          | "bursts" -> Ok Check.Hunt.Bursts
          | "chaos" -> Ok Check.Hunt.Chaos
          | s -> Error (str "unknown strategy %S" s))
        (split_list v)
  in
  let int_opt k =
    match find k with
    | None -> Ok None
    | Some v -> (
      match int_of_string_opt v with
      | Some i -> Ok (Some i)
      | None -> Error (str "%s: expected an integer, got %S" k v))
  in
  let* max_states = int_opt "max_states" in
  let* _ = map_result (in_range "max_states") (Option.to_list max_states) in
  let* attempts = int_opt "attempts" in
  let* steps = int_opt "steps" in
  let* deadline_s =
    match find "deadline" with
    | None -> Ok None
    | Some v -> (
      match float_of_string_opt v with
      | Some d -> Ok (Some d)
      | None -> Error (str "deadline: expected seconds, got %S" v))
  in
  let check_tag t =
    if List.mem t verdict_tags then Ok t
    else
      Error
        (str "expect: unknown verdict %S (expected %s)" t
           (String.concat "|" verdict_tags))
  in
  let* expect_default =
    match find "expect" with
    | None -> Ok None
    | Some v -> Result.map Option.some (check_tag v)
  in
  let* expect_overrides =
    map_result
      (fun (k, v) ->
        let prefix = String.sub k 7 (String.length k - 7) in
        Result.map (fun t -> (prefix, t)) (check_tag v))
      (List.filter
         (fun (k, _) ->
           String.length k > 7 && String.sub k 0 7 = "expect.")
         kv)
  in
  let known k =
    List.mem k
      [
        "name"; "kind"; "protocols"; "n"; "m"; "reductions"; "engines";
        "faults"; "seeds"; "strategies"; "max_states"; "attempts"; "steps";
        "deadline"; "expect";
      ]
    || String.length k > 7 && String.sub k 0 7 = "expect."
  in
  let* () =
    match List.find_opt (fun (k, _) -> not (known k)) kv with
    | Some (k, _) -> Error (str "unknown key %S" k)
    | None -> Ok ()
  in
  Ok
    {
      name = (match find "name" with Some n -> n | None -> "sweep");
      kind;
      protos;
      ns;
      ms;
      reductions;
      engines;
      fault_seeds;
      seeds;
      strategies;
      max_states;
      attempts;
      steps;
      deadline_s;
      expect_default;
      expect_overrides;
    }

let load ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | contents -> parse contents

(* ------------------------------------------------------------------ *)
(* expansion                                                           *)
(* ------------------------------------------------------------------ *)

type cell = { label : string; job : Spec.t; fault_seed : int option }

let strategy_tag = function
  | Check.Hunt.Uniform -> "uniform"
  | Check.Hunt.Bursts -> "bursts"
  | Check.Hunt.Chaos -> "chaos"

let expand s =
  let seen = Hashtbl.create 32 in
  let cells = ref [] in
  List.iter
    (fun proto ->
      List.iter
        (fun n ->
          (* a fuzz job draws m per attempt: the m axis does not multiply *)
          let ms =
            match (s.kind, s.ms) with
            | Spec.Check, Some ms | Spec.Hunt, Some ms -> ms
            | _ -> [ Spec.default_m proto ~n ]
          in
          List.iter
            (fun m ->
              List.iter
                (fun reduction ->
                  List.iter
                    (fun engine ->
                      List.iter
                        (fun fault_seed ->
                          let seeds =
                            match s.kind with
                            | Spec.Check -> [ 1 ]
                            | _ -> s.seeds
                          in
                          List.iter
                            (fun seed ->
                              let strategies =
                                match s.kind with
                                | Spec.Hunt -> s.strategies
                                | _ -> [ Check.Hunt.Bursts ]
                              in
                              List.iter
                                (fun strategy ->
                                  let job =
                                    Spec.make ~n ~m ~reduction ~engine
                                      ?max_states:s.max_states
                                      ?deadline_s:s.deadline_s
                                      ?attempts:s.attempts ~seed
                                      ?steps:s.steps ~strategy s.kind proto
                                  in
                                  let label =
                                    let base =
                                      str "%s-n%d-m%d"
                                        (Spec.proto_to_string proto)
                                        n m
                                    in
                                    let base =
                                      match s.kind with
                                      | Spec.Check ->
                                        str "%s-%s%s" base
                                          (Check.Explore.reduction_tag
                                             reduction)
                                          (match engine with
                                          | Spec.Seq -> ""
                                          | Spec.Par ->
                                            "-" ^ Spec.engine_to_string engine)
                                      | Spec.Fuzz -> str "%s-fuzz-s%d" base seed
                                      | Spec.Hunt ->
                                        str "%s-hunt-%s-s%d" base
                                          (strategy_tag strategy) seed
                                    in
                                    match fault_seed with
                                    | Some f -> str "%s-f%d" base f
                                    | None -> base
                                  in
                                  let key =
                                    ( Spec.ident job,
                                      match fault_seed with
                                      | Some f -> f
                                      | None -> min_int )
                                  in
                                  if not (Hashtbl.mem seen key) then begin
                                    Hashtbl.replace seen key ();
                                    cells := { label; job; fault_seed } :: !cells
                                  end)
                                strategies)
                            seeds)
                        s.fault_seeds)
                    s.engines)
                s.reductions)
            ms)
        s.ns)
    s.protos;
  List.rev !cells

(* ------------------------------------------------------------------ *)
(* execution and gating                                                *)
(* ------------------------------------------------------------------ *)

type gate = [ `Ok | `Fail of string | `None ]

type row = {
  label : string;
  verdict : string;
  exit_code : int;
  states : int;
  explored : int;
  cached : bool;
  slices : int;
  recoveries : int;
  elapsed_s : float;
  gate : gate;
}

type report = {
  sweep : string;
  rows : row list;
  cells : int;
  gates_failed : int;
  violations : int;
  crashed : int;
  cached_cells : int;
  total_states : int;
  total_explored : int;
  elapsed_s : float;
}

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let expectation s label =
  (* longest matching override prefix wins; fall back to the default *)
  let best =
    List.fold_left
      (fun acc (prefix, tag) ->
        if starts_with ~prefix label then
          match acc with
          | Some (p, _) when String.length p >= String.length prefix -> acc
          | _ -> Some (prefix, tag)
        else acc)
      None s.expect_overrides
  in
  match best with Some (_, tag) -> Some tag | None -> s.expect_default

let with_plan fault_seed f =
  match fault_seed with
  | None -> f ()
  | Some seed ->
    Resilience.arm (Resilience.plan_of_seed ~domains:1 seed);
    Fun.protect ~finally:Resilience.disarm f

let run ?cache ?(quantum = 50_000) ?state_dir ?(progress = ignore) s =
  let cache = match cache with Some c -> c | None -> Cache.create () in
  let state_dir =
    match state_dir with
    | Some d -> d
    | None ->
      Filename.concat
        (Filename.get_temp_dir_name ())
        (str "coordctl-sweep-%d" (Unix.getpid ()))
  in
  let pool = Pool.create ~workers:1 ~quantum ~cache ~state_dir () in
  let cells = expand s in
  let t0 = Check.Checker_stats.now () in
  let rows =
    List.map
      (fun (cell : cell) ->
        progress (str "cell %s: %s" cell.label (Spec.ident cell.job));
        let id = with_plan cell.fault_seed (fun () ->
            let id = Pool.submit pool cell.job in
            Pool.drain pool;
            id)
        in
        let j = Option.get (Pool.job pool id) in
        let verdict, exit_code, states, explored, cached =
          match j.Pool.status with
          | Pool.Finished o ->
            ( Runner.verdict_tag o.Runner.verdict,
              Runner.verdict_exit o.Runner.verdict,
              o.Runner.states,
              o.Runner.explored,
              o.Runner.cached_configs = o.Runner.configs
              && o.Runner.configs > 0 )
          | Pool.Crashed msg -> ("failed: " ^ msg, 7, 0, 0, false)
          | Pool.Cancelled -> ("cancelled", 8, 0, 0, false)
          | Pool.Queued | Pool.Yielded -> ("pending", 9, 0, 0, false)
        in
        let tag = match j.Pool.status with
          | Pool.Crashed _ -> "failed"
          | _ -> verdict
        in
        let gate =
          match expectation s cell.label with
          | None -> `None
          | Some want when want = tag -> `Ok
          | Some want -> `Fail (str "expected %s, got %s" want tag)
        in
        let row =
          {
            label = cell.label;
            verdict;
            exit_code;
            states;
            explored;
            cached;
            slices = j.Pool.slices;
            recoveries = j.Pool.recoveries;
            elapsed_s = j.Pool.ran_s;
            gate;
          }
        in
        progress
          (str "cell %s: %s (states=%d explored=%d%s)%s" cell.label verdict
             states explored
             (if row.cached then ", cached" else "")
             (match gate with
             | `Fail msg -> " GATE FAILED: " ^ msg
             | `Ok | `None -> ""));
        row)
      cells
  in
  {
    sweep = s.name;
    rows;
    cells = List.length rows;
    gates_failed =
      List.length
        (List.filter (fun r -> match r.gate with `Fail _ -> true | _ -> false) rows);
    violations =
      List.length
        (List.filter (fun r -> r.exit_code = 1 || r.exit_code = 5) rows);
    crashed = List.length (List.filter (fun r -> r.exit_code = 7) rows);
    cached_cells = List.length (List.filter (fun r -> r.cached) rows);
    total_states = List.fold_left (fun a r -> a + r.states) 0 rows;
    total_explored = List.fold_left (fun a r -> a + r.explored) 0 rows;
    elapsed_s = Check.Checker_stats.now () -. t0;
  }

let exit_code rp =
  let gated =
    List.exists (fun r -> r.gate <> `None) rp.rows
  in
  if gated then if rp.gates_failed > 0 then 1 else 0
  else if rp.violations > 0 || rp.crashed > 0 then 1
  else 0

(* ------------------------------------------------------------------ *)
(* KPI rendering (strings only; Report.Table lives upstream)           *)
(* ------------------------------------------------------------------ *)

let kpi_header =
  [
    "cell"; "verdict"; "exit"; "states"; "explored"; "cached"; "slices";
    "recov"; "time_s"; "gate";
  ]

let kpi_rows rp =
  List.map
    (fun r ->
      [
        r.label;
        r.verdict;
        string_of_int r.exit_code;
        string_of_int r.states;
        string_of_int r.explored;
        (if r.cached then "yes" else "no");
        string_of_int r.slices;
        string_of_int r.recoveries;
        str "%.2f" r.elapsed_s;
        (match r.gate with
        | `Ok -> "ok"
        | `Fail msg -> "FAIL: " ^ msg
        | `None -> "-");
      ])
    rp.rows

let aggregate_lines rp =
  [
    str "%d cell(s): %d violation(s), %d crash(es), %d gate failure(s)."
      rp.cells rp.violations rp.crashed rp.gates_failed;
    str "%d state(s) total, %d freshly explored; %d cell(s) served from the \
         verdict cache."
      rp.total_states rp.total_explored rp.cached_cells;
    str "wall clock %.2fs." rp.elapsed_s;
  ]

let to_json ~ts rp =
  let b = Buffer.create 1024 in
  Buffer.add_string b "  {\n";
  Buffer.add_string b (str "    \"timestamp\": %S,\n" ts);
  Buffer.add_string b "    \"kind\": \"sweep\",\n";
  Buffer.add_string b (str "    \"sweep\": %S,\n" rp.sweep);
  Buffer.add_string b (str "    \"cells\": %d,\n" rp.cells);
  Buffer.add_string b (str "    \"violations\": %d,\n" rp.violations);
  Buffer.add_string b (str "    \"crashed\": %d,\n" rp.crashed);
  Buffer.add_string b (str "    \"gates_failed\": %d,\n" rp.gates_failed);
  Buffer.add_string b (str "    \"cached_cells\": %d,\n" rp.cached_cells);
  Buffer.add_string b (str "    \"total_states\": %d,\n" rp.total_states);
  Buffer.add_string b (str "    \"total_explored\": %d,\n" rp.total_explored);
  Buffer.add_string b (str "    \"elapsed_s\": %.3f,\n" rp.elapsed_s);
  Buffer.add_string b "    \"rows\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (str
           "      {\"cell\": %S, \"verdict\": %S, \"exit\": %d, \"states\": \
            %d, \"explored\": %d, \"cached\": %b, \"gate\": %S}%s\n"
           r.label r.verdict r.exit_code r.states r.explored r.cached
           (match r.gate with
           | `Ok -> "ok"
           | `Fail m -> "fail: " ^ m
           | `None -> "-")
           (if i = List.length rp.rows - 1 then "" else ",")))
    rp.rows;
  Buffer.add_string b "    ]\n";
  Buffer.add_string b "  }";
  Buffer.contents b

(* BENCH_checker.json is a JSON array of run objects; append in place
   (same idiom as bench/check_throughput.ml). *)
let append_bench ~file ~ts rp =
  let run_json = to_json ~ts rp in
  let previous =
    if Sys.file_exists file then begin
      let ic = open_in_bin file in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let rec last_bracket i =
        if i < 0 || s.[i] = ']' then i else last_bracket (i - 1)
      in
      let i = last_bracket (String.length s - 1) in
      if i <= 0 then None else Some (String.sub s 0 i)
    end
    else None
  in
  let oc = open_out file in
  (match previous with
  | Some prefix ->
    output_string oc prefix;
    output_string oc ",\n";
    output_string oc run_json
  | None ->
    output_string oc "[\n";
    output_string oc run_json);
  output_string oc "\n]\n";
  close_out oc
