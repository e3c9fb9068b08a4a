(* What every rep is checked against. The expected values are computed
   once per seed, outside the timed reps, by an explorer other than the
   one the rep runs (see {!Workloads.oracle}); a rep whose observation
   differs in any field fails. *)

type verdicts = {
  states : int;
  transitions : int;
  complete : bool;
  mutual_exclusion : bool;  (** holds *)
  deadlock_freedom : bool;  (** holds *)
  starvation : string;  (** "none", or the first process that can starve *)
}

type t = {
  verdicts : verdicts option;  (** big-graph only *)
  stats : Check.Checker_stats.t;  (** the oracle exploration's stats *)
}

let save path (o : t) =
  Out_channel.with_open_bin path (fun oc -> Marshal.to_channel oc o [])

let load path : t =
  In_channel.with_open_bin path (fun ic -> (Marshal.from_channel ic : t))

let field name expected observed to_s =
  if expected = observed then []
  else [ Printf.sprintf "%s: expected %s, got %s" name (to_s expected) (to_s observed) ]

(* big-graph: graph size, completeness and the three mutex verdicts equal
   the parallel explorer's, and the dedup accounting closes. *)
let check_big_graph ~(expected : verdicts) ~(observed : verdicts)
    ~(stats : Check.Checker_stats.t) =
  let open Check.Checker_stats in
  field "states" expected.states observed.states string_of_int
  @ field "transitions" expected.transitions observed.transitions string_of_int
  @ field "complete" expected.complete observed.complete string_of_bool
  @ field "mutual-exclusion" expected.mutual_exclusion
      observed.mutual_exclusion string_of_bool
  @ field "deadlock-freedom" expected.deadlock_freedom
      observed.deadlock_freedom string_of_bool
  @ field "starvation" expected.starvation observed.starvation Fun.id
  @
  if stats.candidates = stats.n_states + stats.dedup_hits then []
  else
    [
      Printf.sprintf "candidates %d <> states %d + dedup_hits %d"
        stats.candidates stats.n_states stats.dedup_hits;
    ]

(* bounded-memory: the external run's stats equal the in-RAM run's, and
   the visited set really went to disk. *)
let check_bounded ~(expected : Check.Checker_stats.t)
    ~(observed : Check.Checker_stats.t) =
  let open Check.Checker_stats in
  (if equal_ignoring_time expected observed then []
   else
     [
       Printf.sprintf
         "external stats differ from in-RAM (states %d vs %d, transitions %d \
          vs %d, candidates %d vs %d)"
         observed.n_states expected.n_states observed.n_transitions
         expected.n_transitions observed.candidates expected.candidates;
     ])
  @ if observed.spilled_runs > 0 then [] else [ "no run was spilled to disk" ]

(* job-mix *)

type job_outcome =
  | Done of {
      verdict : string;
      detail : string;
      states : int;
    }
  | Crashed of string
  | Unfinished

(* Per-config detail lines with the cache marker removed. *)
let config_details detail =
  List.map
    (fun d ->
      let marker = " [cached]" in
      let n = String.length d and k = String.length marker in
      if n >= k && String.sub d (n - k) k = marker then String.sub d 0 (n - k)
      else d)
    (String.split_on_char ';' detail |> List.map String.trim)

(* [check_jobs jobs outcomes] lists [(index, reason)] for every job whose
   verdict differs from its documented expectation, and for every
   resubmission whose answer (cached or not) differs from the fresh
   verdict of its original. *)
let check_jobs (jobs : Inputs.job list) (outcomes : job_outcome array) =
  let jobs = Array.of_list jobs in
  let bad = ref [] in
  Array.iteri
    (fun i (j : Inputs.job) ->
      let fail reason = bad := (i, reason) :: !bad in
      match outcomes.(i) with
      | Crashed e -> fail ("crashed: " ^ e)
      | Unfinished -> fail "never finished"
      | Done d -> (
        if d.verdict <> j.expect then
          fail (Printf.sprintf "verdict %s, expected %s" d.verdict j.expect);
        match j.original with
        | None -> ()
        | Some o -> (
          match outcomes.(o) with
          | Done od ->
            if d.verdict <> od.verdict || d.states <> od.states then
              fail
                (Printf.sprintf "answer %s/%d states differs from original %s/%d"
                   d.verdict d.states od.verdict od.states)
            else if config_details d.detail <> config_details od.detail then
              fail "per-config answer differs from the original's"
          | _ -> fail "original did not finish")))
    jobs;
  List.rev !bad
