let str = Printf.sprintf

type kind = Check | Fuzz | Hunt
type proto = Mutex | Cmp_mutex | Consensus | Election | Renaming | Ccp
type engine = Seq | Par

type t = {
  kind : kind;
  proto : proto;
  n : int;
  m : int;
  reduction : Check.Explore.reduction;
  engine : engine;
  max_states : int option;
  deadline_s : float option;
  priority : int;
  attempts : int option;
  seed : int;
  steps : int;
  strategy : Check.Hunt.strategy;
}

let default_m proto ~n =
  match proto with
  | Mutex -> 3
  | Cmp_mutex -> 2
  | Consensus | Election | Renaming -> (2 * n) - 1
  | Ccp -> 2

type range_error = { key : string; value : int; least : int }

let range_message e =
  str "%s = %d is out of range (must be >= %d)" e.key e.value e.least

let check_range key value =
  let least = match key with "max_states" -> 0 | _ -> 1 in
  if value < least then Error { key; value; least } else Ok value

let validate t =
  let ( let* ) = Result.bind in
  let* _ = check_range "n" t.n in
  let* _ = check_range "m" t.m in
  let* _ =
    match t.max_states with Some b -> check_range "max_states" b | None -> Ok 0
  in
  Ok t

let make ?(n = 2) ?m ?(reduction = Check.Explore.Full) ?(engine = Seq)
    ?max_states ?deadline_s ?(priority = 0) ?attempts ?(seed = 1)
    ?(steps = 2000) ?(strategy = Check.Hunt.Bursts) kind proto =
  let m = match m with Some m -> m | None -> default_m proto ~n in
  let t =
    {
      kind;
      proto;
      n;
      m;
      reduction;
      engine;
      max_states;
      deadline_s;
      priority;
      attempts;
      seed;
      steps;
      strategy;
    }
  in
  match validate t with Ok t -> t | Error e -> invalid_arg (range_message e)

let kind_to_string = function
  | Check -> "check"
  | Fuzz -> "fuzz"
  | Hunt -> "hunt"

let kind_of_string = function
  | "check" -> Ok Check
  | "fuzz" -> Ok Fuzz
  | "hunt" -> Ok Hunt
  | s -> Error (str "unknown kind %S (expected check|fuzz|hunt)" s)

let proto_to_string = function
  | Mutex -> "mutex"
  | Cmp_mutex -> "cmp-mutex"
  | Consensus -> "consensus"
  | Election -> "election"
  | Renaming -> "renaming"
  | Ccp -> "ccp"

let proto_of_string = function
  | "mutex" -> Ok Mutex
  | "cmp-mutex" -> Ok Cmp_mutex
  | "consensus" -> Ok Consensus
  | "election" -> Ok Election
  | "renaming" -> Ok Renaming
  | "ccp" -> Ok Ccp
  | s ->
    Error
      (str
         "unknown protocol %S (expected \
          mutex|cmp-mutex|consensus|election|renaming|ccp)"
         s)

let engine_to_string = function
  | Seq -> "seq"
  | Par -> "par"

let engine_of_string = function
  | "seq" -> Ok Seq
  | "par" -> Ok Par
  | s -> Error (str "unknown engine %S (expected seq|par)" s)

let strategy_to_string = function
  | Check.Hunt.Uniform -> "uniform"
  | Check.Hunt.Bursts -> "bursts"
  | Check.Hunt.Chaos -> "chaos"

let strategy_of_string = function
  | "uniform" -> Ok Check.Hunt.Uniform
  | "bursts" -> Ok Check.Hunt.Bursts
  | "chaos" -> Ok Check.Hunt.Chaos
  | s -> Error (str "unknown strategy %S (expected uniform|bursts|chaos)" s)

(* Every result-affecting field, in a fixed order; priority excluded. *)
let ident t =
  let opt = function None -> "-" | Some v -> string_of_int v in
  let base =
    str "kind=%s proto=%s n=%d m=%d reduction=%s engine=%s max_states=%s \
         deadline=%s"
      (kind_to_string t.kind) (proto_to_string t.proto) t.n t.m
      (Check.Explore.reduction_tag t.reduction)
      (engine_to_string t.engine) (opt t.max_states)
      (match t.deadline_s with None -> "-" | Some d -> str "%g" d)
  in
  match t.kind with
  | Check -> base
  | Fuzz -> str "%s attempts=%s seed=%d" base (opt t.attempts) t.seed
  | Hunt ->
    str "%s attempts=%s seed=%d steps=%d strategy=%s" base (opt t.attempts)
      t.seed t.steps
      (strategy_to_string t.strategy)

let to_line t = str "%s priority=%d" (ident t) t.priority

let kv_of_string s =
  let lines = String.split_on_char '\n' s in
  (* a single-line form "k=v k=v ..." is also accepted: split each line
     on spaces first, then each token on '='; but values like "deadline
     = 1.5" with spaces around '=' must survive, so normalize per line. *)
  let pairs = ref [] in
  let err = ref None in
  List.iter
    (fun line ->
      if !err = None then begin
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        let line = String.trim line in
        if line <> "" then begin
          let tokens =
            (* tokens are "k=v" words; spaces around '=' are tolerated by
               re-joining "k" "=" "v" shaped fragments *)
            String.split_on_char ' ' line
            |> List.filter (fun t -> t <> "")
          in
          let rec join acc = function
            | [] -> List.rev acc
            | k :: "=" :: v :: rest -> join ((k ^ "=" ^ v) :: acc) rest
            | t :: "=" :: rest -> join ((t ^ "=") :: acc) rest
            | t :: rest when String.length t > 0 && t.[0] = '=' -> (
              match acc with
              | prev :: acc' -> join ((prev ^ t) :: acc') rest
              | [] -> join (t :: acc) rest)
            | t :: rest -> join (t :: acc) rest
          in
          List.iter
            (fun tok ->
              match String.index_opt tok '=' with
              | Some i ->
                let k = String.trim (String.sub tok 0 i) in
                let v =
                  String.trim
                    (String.sub tok (i + 1) (String.length tok - i - 1))
                in
                if k = "" then err := Some (str "malformed pair %S" tok)
                else pairs := (k, v) :: !pairs
              | None -> err := Some (str "malformed pair %S (expected k=v)" tok))
            (join [] tokens)
        end
      end)
    lines;
  match !err with Some e -> Error e | None -> Ok (List.rev !pairs)

let parse s =
  let ( let* ) = Result.bind in
  let* kv = kv_of_string s in
  let find k = List.assoc_opt k kv in
  let int_field k v cont =
    match int_of_string_opt v with
    | Some i -> cont i
    | None -> Error (str "%s: expected an integer, got %S" k v)
  in
  let* kind =
    match find "kind" with
    | Some v -> kind_of_string v
    | None -> Error "missing required key: kind"
  in
  let* proto =
    match find "proto" with
    | Some v -> proto_of_string v
    | None -> Error "missing required key: proto"
  in
  let rec fold spec = function
    | [] -> Ok spec
    | ("kind", _) :: rest | ("proto", _) :: rest -> fold spec rest
    | ("n", v) :: rest ->
      int_field "n" v (fun n ->
          fold { spec with n; m = default_m proto ~n } rest)
    | ("m", v) :: rest -> int_field "m" v (fun m -> fold { spec with m } rest)
    | ("reduction", v) :: rest -> (
      match v with
      | "full" -> fold { spec with reduction = Check.Explore.Full } rest
      | "canon" -> fold { spec with reduction = Check.Explore.Canon } rest
      | _ -> Error (str "unknown reduction %S (expected full|canon)" v))
    | ("engine", v) :: rest ->
      let* engine = engine_of_string v in
      fold { spec with engine } rest
    | ("max_states", v) :: rest ->
      if v = "-" then fold { spec with max_states = None } rest
      else
        int_field "max_states" v (fun b ->
            fold { spec with max_states = Some b } rest)
    | ("deadline", v) :: rest -> (
      if v = "-" then fold { spec with deadline_s = None } rest
      else
        match float_of_string_opt v with
        | Some d -> fold { spec with deadline_s = Some d } rest
        | None -> Error (str "deadline: expected seconds, got %S" v))
    | ("priority", v) :: rest ->
      int_field "priority" v (fun priority -> fold { spec with priority } rest)
    | ("attempts", v) :: rest ->
      if v = "-" then fold { spec with attempts = None } rest
      else
        int_field "attempts" v (fun a ->
            fold { spec with attempts = Some a } rest)
    | ("seed", v) :: rest ->
      int_field "seed" v (fun seed -> fold { spec with seed } rest)
    | ("steps", v) :: rest ->
      int_field "steps" v (fun steps -> fold { spec with steps } rest)
    | ("strategy", v) :: rest ->
      let* strategy = strategy_of_string v in
      fold { spec with strategy } rest
    | (k, _) :: _ -> Error (str "unknown key %S" k)
  in
  (* m's default depends on n, so apply n first (fold handles re-default),
     then let an explicit m override. *)
  let base = make kind proto in
  let kv_n_first =
    List.stable_sort
      (fun (a, _) (b, _) ->
        let rank = function "n" -> 0 | "m" -> 1 | _ -> 2 in
        compare (rank a) (rank b))
      kv
  in
  let* spec = fold base kv_n_first in
  Result.map_error range_message (validate spec)
