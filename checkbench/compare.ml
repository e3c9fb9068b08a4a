(* Compare mode: two result sets (files of records the harness appended),
   one row per workload x end-to-end metric, judged against the
   benchmark's bound for that metric. *)

type verdict = Better | Worse | Unresolved

let verdict_tag = function
  | Better -> "better"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* [judge ~lower_is_better ~bound base cand]: the change is better (worse)
   when its median moves the good (bad) way by more than [bound], as a
   share of the base median. When either side's quartile spread exceeds
   the bound the medians cannot be trusted, and the verdict is unresolved
   unless every candidate run beats (or loses to) every base run. *)
let judge ~lower_is_better ~bound base cand =
  let mb = Stats.median base and mc = Stats.median cand in
  let gain = (if lower_is_better then mb -. mc else mc -. mb) /. Float.abs mb in
  let beats x y = if lower_is_better then x < y else x > y in
  let every p = List.for_all (fun c -> List.for_all (fun b -> p c b) base) cand in
  if base = [] || cand = [] || mb = 0. then Unresolved
  else if Float.max (Stats.spread base) (Stats.spread cand) > bound then
    if every beats then Better
    else if every (fun c b -> beats b c) then Worse
    else Unresolved
  else if gain > bound then Better
  else if gain < -.bound then Worse
  else Unresolved

type record = {
  workload : string;
  values : (string * float) list;
  probe : float option;  (** the run's [host_probe_s] *)
}

let read_records path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.filter_map (fun line ->
         let j = Json.of_string line in
         let meta = Json.member "meta" j in
         match (Option.bind meta (fun m -> Json.to_str (Json.member "workload" m)),
                Option.bind meta (fun m -> Json.member "trace" m)) with
         | Some workload, Some (Json.Bool false) ->
           let values =
             match Json.member "metrics" j with
             | Some (Json.Obj kv) ->
               List.filter_map
                 (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_num (Json.member "value" v)))
                 kv
             | _ -> []
           in
           let probe = Option.bind meta (fun m -> Json.to_num (Json.member "host_probe_s" m)) in
           Some { workload; values; probe }
         | _ -> None)

let rows ~(defs : Harness.metric_def list) base cand =
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) (base @ cand))
  in
  List.concat_map
    (fun w ->
      List.filter_map
        (fun (d : Harness.metric_def) ->
          let vals rs =
            List.filter_map
              (fun r -> if r.workload = w then List.assoc_opt d.Harness.name r.values else None)
              rs
          in
          let b = vals base and c = vals cand in
          if b = [] && c = [] then None
          else
            let side xs =
              if xs = [] then "-"
              else
                let q1, q3 = Stats.quartiles xs in
                Printf.sprintf "%.4g [%.4g, %.4g] n=%d" (Stats.median xs) q1 q3
                  (List.length xs)
            in
            let bound = Option.value d.Harness.bound ~default:0. in
            let v =
              judge ~lower_is_better:(d.Harness.better = "lower") ~bound b c
            in
            Some
              [
                w;
                d.Harness.name ^ " (" ^ d.Harness.unit_ ^ ")";
                side b;
                side c;
                (if b = [] || c = [] then "-"
                 else
                   Printf.sprintf "%+.1f%%"
                     (100. *. (Stats.median c -. Stats.median b) /. Float.abs (Stats.median b)));
                Printf.sprintf "%.0f%%" (100. *. bound);
                verdict_tag v;
              ])
        defs)
    workloads

let probe_note base cand =
  let med rs =
    match List.filter_map (fun r -> r.probe) rs with
    | [] -> "-"
    | xs -> Printf.sprintf "%.4g s" (Stats.median xs)
  in
  Printf.sprintf
    "host probe (a fixed CPU loop; a shift here is the host's, not the \
     code's): base %s, candidate %s."
    (med base) (med cand)

let table ~defs base cand =
  Report.Table.make ~id:"checkbench" ~title:"compare: base vs candidate"
    ~header:[ "workload"; "metric"; "base median [q1, q3]"; "cand median [q1, q3]"; "change"; "bound"; "verdict" ]
    ~notes:
      [
        "better/worse: the median moved by more than the bound; unresolved: \
         within the bound, or spread wider than the bound without every run \
         on one side beating every run on the other.";
        probe_note base cand;
      ]
    (rows ~defs base cand)

let main ~defs_path ~base ~cand =
  let defs, _ = Harness.load_defs defs_path in
  Report.Table.render Format.std_formatter
    (table ~defs (read_records base) (read_records cand));
  0
