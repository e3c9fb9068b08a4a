(* In-memory span recorder for the traced run. A span wraps one call
   from the benchmark into a layer's public function; spans nest by call
   order on the recording domain and carry the GC counters' deltas over
   their interval. Nothing is written until [to_chrome_json] at the end. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  rep : int;
  job : int;  (** -1 when the span belongs to no job *)
  t0 : float;
  t1 : float;
  minor_words : float;
  major_words : float;
  minor_gcs : int;
  major_gcs : int;
}

type t = {
  rep : int;
  mutable next_id : int;
  mutable stack : int list;
  mutable spans : span list;  (** newest first *)
}

let create ~rep = { rep; next_id = 0; stack = []; spans = [] }

let now = Unix.gettimeofday

(* [record tracer name f] runs [f] inside a span when tracing; untraced
   reps pass [None] and pay one match. *)
let record ?(job = -1) tracer name f =
  match tracer with
  | None -> f ()
  | Some tr ->
    let id = tr.next_id in
    tr.next_id <- id + 1;
    let parent = match tr.stack with p :: _ -> p | [] -> -1 in
    tr.stack <- id :: tr.stack;
    let g0 = Gc.quick_stat () in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      let g1 = Gc.quick_stat () in
      tr.stack <- List.tl tr.stack;
      tr.spans <-
        {
          id;
          parent;
          name;
          rep = tr.rep;
          job;
          t0;
          t1;
          minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
          major_words = g1.Gc.major_words -. g0.Gc.major_words;
          minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
          major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
        }
        :: tr.spans
    in
    Fun.protect ~finally:finish f

let spans tr = List.rev tr.spans
let duration s = s.t1 -. s.t0

(* A span's self time: its duration minus the part its direct children
   cover (children are sequential on the recording domain). *)
let self_time tr s =
  List.fold_left
    (fun acc c -> if c.parent = s.id then acc -. duration c else acc)
    (duration s) tr.spans

let named tr name = List.filter (fun s -> s.name = name) (spans tr)
let total tr name = List.fold_left (fun a s -> a +. duration s) 0. (named tr name)

let sum_by tr name f = List.fold_left (fun a s -> a + f s) 0 (named tr name)

let sum_by_f tr name f =
  List.fold_left (fun a s -> a +. f s) 0. (named tr name)

(* Every span lies inside its parent's interval. *)
let well_nested tr =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) tr.spans;
  List.for_all
    (fun s ->
      s.t0 <= s.t1
      &&
      match Hashtbl.find_opt by_id s.parent with
      | None -> s.parent = -1
      | Some p -> p.t0 <= s.t0 && s.t1 <= p.t1)
    tr.spans

(* Chrome trace-event JSON ("X" complete events, microseconds), which
   Perfetto and chrome://tracing open. *)
let to_chrome_json tr =
  let base =
    List.fold_left (fun a s -> Float.min a s.t0) infinity tr.spans
  in
  let ev s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("ph", Json.Str "X");
        ("ts", Json.Num (Float.round ((s.t0 -. base) *. 1e6)));
        ("dur", Json.Num (Float.round (duration s *. 1e6)));
        ("pid", Json.Num (float s.rep));
        ("tid", Json.Num 0.);
        ( "args",
          Json.Obj
            [
              ("id", Json.Num (float s.id));
              ("parent", Json.Num (float s.parent));
              ("job", Json.Num (float s.job));
              ("minor_words", Json.Num s.minor_words);
              ("major_words", Json.Num s.major_words);
              ("minor_gcs", Json.Num (float s.minor_gcs));
              ("major_gcs", Json.Num (float s.major_gcs));
            ] );
      ]
  in
  Json.to_string (Json.Obj [ ("traceEvents", Json.Arr (List.map ev (spans tr))) ])
