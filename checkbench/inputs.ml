(* Seeded workload inputs. Everything a rep feeds the checker is drawn
   here from [--seed], so equal seeds give byte-identical inputs
   ([describe_*] renders them for that comparison). *)

open Anonmem

type workload = Big_graph | Job_mix | Bounded_memory

let workloads = [ Big_graph; Job_mix; Bounded_memory ]

let workload_name = function
  | Big_graph -> "big-graph"
  | Job_mix -> "job-mix"
  | Bounded_memory -> "bounded-memory"

let workload_of_string s =
  List.find_opt (fun w -> workload_name w = s) workloads

(* ---- the Fig 1 instance of big-graph and bounded-memory ---- *)

type instance = {
  n : int;
  m : int;
  ids : int array;  (** distinct, non-zero (0 is the empty register) *)
  namings : int array array;  (** one register permutation per process *)
}

let instance ?(n = 3) ?(m = 3) ~seed () =
  let rng = Rng.create seed in
  let namings = Array.init n (fun _ -> Rng.permutation rng m) in
  let ids = Array.make n 0 in
  for p = 0 to n - 1 do
    let rec draw () =
      let id = 1 + Rng.int rng 999 in
      if Array.exists (( = ) id) ids then draw () else id
    in
    ids.(p) <- draw ()
  done;
  { n; m; ids; namings }

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let describe_instance i =
  Printf.sprintf "fig1 n=%d m=%d ids=%s namings=%s" i.n i.m (ints i.ids)
    (String.concat " " (Array.to_list (Array.map ints i.namings)))

(* bounded-memory: a hot table of 20k keys spills about ten runs of the
   ~230k-state instance; checkpoints every 20k fresh states. *)
let hot_cap = 20_000
let snapshot_every = 20_000

(* ---- the job-mix batch ---- *)

type job = {
  spec : Serve.Spec.t;
  expect : string;  (** documented verdict tag ({!Serve.Runner.verdict_tag}) *)
  original : int option;
      (** for an exact resubmission: the index of the job it repeats *)
}

(* Documented expectations: Fig 1 at n = 2 passes for odd m and loses
   deadlock freedom for even m (Thm 3.1); Fig 2, its election variant and
   Fig 3 pass at n = 2 (Thms 4.1-5.3); the budget-capped n = 3 Fig 2 job
   stops at its budget with a clean prefix. Each short sweep runs under
   both reductions. *)
let small_jobs =
  [
    (Serve.Spec.Mutex, 3, "pass");
    (Serve.Spec.Mutex, 4, "violation");
    (Serve.Spec.Consensus, 3, "pass");
    (Serve.Spec.Election, 3, "pass");
    (Serve.Spec.Renaming, 3, "pass");
  ]

(* Four quanta of the daemon's default 50k: the long job is preempted
   three times. *)
let long_budget = 200_000
let resubmissions = 4

(* Priorities: of each short sweep's full/canon twins the seed sends one
   to the high class and the other to the low class, so both classes
   carry the same mix of work; the long job sits between them. A job
   that yields re-queues behind its class, so each class runs round-robin
   one configuration per slice. Resubmissions go last, below every
   original, so each is answered after its original finished. *)
let prio_high = 3
let prio_long = 2
let prio_low = 1
let prio_resub = 0

let job_mix ~seed =
  let rng = Rng.create seed in
  let short =
    List.concat_map
      (fun (proto, m, expect) ->
        let high_is_full = Rng.bool rng in
        List.map
          (fun reduction ->
            let high = (reduction = Check.Explore.Full) = high_is_full in
            ( Serve.Spec.make ~n:2 ~m ~reduction
                ~priority:(if high then prio_high else prio_low)
                Serve.Spec.Check proto,
              expect ))
          [ Check.Explore.Full; Check.Explore.Canon ])
      small_jobs
  in
  let long =
    ( Serve.Spec.make ~n:3 ~max_states:long_budget ~priority:prio_long
        Serve.Spec.Check Serve.Spec.Consensus,
      "truncated" )
  in
  let originals = Array.of_list (long :: short) in
  Rng.shuffle_in_place rng originals;
  let short_idx =
    List.filter
      (fun i -> (fst originals.(i)).Serve.Spec.max_states = None)
      (List.init (Array.length originals) Fun.id)
    |> Array.of_list
  in
  Rng.shuffle_in_place rng short_idx;
  let resubs =
    List.init resubmissions (fun k ->
        let i = short_idx.(k) in
        let spec, expect = originals.(i) in
        {
          spec = { spec with Serve.Spec.priority = prio_resub };
          expect;
          original = Some i;
        })
  in
  Array.to_list
    (Array.map (fun (spec, expect) -> { spec; expect; original = None }) originals)
  @ resubs

let describe_jobs jobs =
  String.concat "\n"
    (List.map
       (fun j ->
         Printf.sprintf "%s expect=%s%s" (Serve.Spec.to_line j.spec) j.expect
           (match j.original with
           | Some i -> Printf.sprintf " resubmits=%d" i
           | None -> ""))
       jobs)

let describe ~seed = function
  | Big_graph | Bounded_memory -> describe_instance (instance ~seed ())
  | Job_mix -> describe_jobs (job_mix ~seed)
