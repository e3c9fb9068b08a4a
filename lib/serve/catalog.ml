open Anonmem

let str = Printf.sprintf

let ids_of n = Array.init n (fun i -> ((i + 1) * 17) + 1)

let namings_under_test ~n ~m =
  if n = 2 && m <= 5 then
    List.map (fun nm -> [| Naming.identity m; nm |]) (Naming.all m)
  else [ Array.init n (fun k -> Naming.rotation m k) ]

type explore_args = {
  engine : Spec.engine;
  domains : int option;
  max_states : int option;
  snapshot_every : int option;
  snapshot_to : string option;
  resume_from : string option;
  deadline_s : float option;
  salvage : bool;
  recover : bool;
}

type explored = {
  complete : bool;
  stats : Check.Checker_stats.t;
  verdicts : (string * bool) list Lazy.t;
  info : (string * string) list Lazy.t;
}

type config = {
  namings : Naming.t array;
  fingerprint : (Digest.t * string) Lazy.t;
  ident : string Lazy.t;
  explore : explore_args -> explored;
}

type bundle = {
  raw : Check.Shrink.raw;
  replay : unit -> bool * int * (Format.formatter -> unit);
  shrink : ?max_rounds:int -> unit -> bundle * (Format.formatter -> unit);
}

type fuzz_report = {
  attempts : int;
  agreed : int;
  violations : int;
  undecided : int;
  disagreement : string option;
  pp_report : Format.formatter -> unit;
  witness : bundle option;
}

type entry = {
  name : string;
  configs : Spec.t -> config list;
  degraded : n:int -> string option;
  graph : n:int -> m:int -> Check.Flatgraph.t;
  fuzz :
    ?time_budget:float ->
    ?probes:int ->
    seed:int ->
    attempts:int ->
    max_states:int ->
    fixed:int option * int option ->
    unit ->
    fuzz_report;
  bundle : Check.Shrink.raw -> bundle option;
  hunt : attempts:int -> Spec.t -> Check.Hunt.outcome;
}

(* ------------------------------------------------------------------ *)
(* the generic half: one protocol module in, one erased entry out      *)
(* ------------------------------------------------------------------ *)

module Make (P : Protocol.PROTOCOL) = struct
  module F = Check.Fuzz.Make (P)
  module E = F.E
  module H = Check.Hunt.Make (P)

  let config ~n ~inputs namings : E.config = { ids = ids_of n; inputs; namings }

  let explore ~reduction (a : explore_args) cfg =
    let run ~resume_from ~snapshot_to =
      match a.engine with
      | Spec.Seq ->
        E.explore_with_stats ?max_states:a.max_states
          ?snapshot_every:a.snapshot_every ?snapshot_to ?resume_from
          ?deadline_s:a.deadline_s ~salvage:a.salvage ~reduction cfg
      | Spec.Par ->
        E.explore_par ?max_states:a.max_states ?domains:a.domains
          ?snapshot_every:a.snapshot_every ?snapshot_to ?resume_from
          ?deadline_s:a.deadline_s ~salvage:a.salvage ~reduction cfg
    in
    match (a.recover, a.snapshot_to) with
    | true, Some snap ->
      (* fault campaign: transient infrastructure failures retry from the
         newest salvageable snapshot instead of failing the sweep *)
      E.with_recovery ?resume_from:a.resume_from ~snapshot_to:snap
        (fun ~resume_from ~snapshot_to ->
          run ~resume_from ~snapshot_to:(Some snapshot_to))
    | _ -> run ~resume_from:a.resume_from ~snapshot_to:a.snapshot_to

  (* The shrinker's property for a named fuzz property: safety predicates
     are replayed directly; liveness witnesses are lassos. *)
  let shrink_property properties name inputs =
    match
      List.find_opt (fun (p : F.property) -> p.F.name = name) properties
    with
    | Some { F.rt_check = Some pred; _ } -> Some (F.S.Safety (pred inputs))
    | Some { F.rt_check = None; _ } -> Some F.S.Lasso
    | None -> None

  let entry ~proto ~(inputs : int -> P.input array)
      ~(judge : E.graph -> Check.Flatgraph.t Lazy.t -> (string * bool) list)
      ?(info = fun _ _ -> []) ~properties ~gen_inputs ?(deterministic = true)
      ?twin ~input_to_string ~input_of_string ~hunt_violation () =
    let protocol = Spec.proto_to_string proto in
    let rec erase property sp b =
      {
        raw = F.S.to_raw ~protocol ~property_name:property ~input_to_string b;
        replay =
          (fun () ->
            let hit, trace = F.S.replay sp b in
            ( hit,
              Trace.length trace,
              fun ppf ->
                Trace.pp ~pp_value:P.Value.pp ~pp_output:P.pp_output ppf trace
            ));
        shrink =
          (fun ?max_rounds () ->
            let b', stats = F.S.shrink ?max_rounds sp b in
            (erase property sp b', fun ppf -> F.S.pp_stats ppf stats));
      }
    in
    let witness (property, (b : F.S.bundle)) =
      Option.map
        (fun sp -> erase property sp b)
        (shrink_property properties property b.F.S.inputs)
    in
    {
      name = P.name;
      configs =
        (fun (spec : Spec.t) ->
          let reduction = spec.Spec.reduction in
          let inputs = inputs spec.Spec.n in
          List.map
            (fun namings ->
              let cfg = config ~n:spec.Spec.n ~inputs namings in
              {
                namings;
                fingerprint = lazy (E.fingerprint ~reduction cfg);
                ident = lazy (E.describe ~reduction cfg);
                explore =
                  (fun a ->
                    let g, stats = explore ~reduction a cfg in
                    let flat = lazy (E.to_flat g) in
                    {
                      complete = g.E.complete;
                      stats;
                      verdicts = lazy (judge g flat);
                      info = lazy (info g flat);
                    });
              })
            (namings_under_test ~n:spec.Spec.n ~m:spec.Spec.m));
      degraded =
        (fun ~n ->
          if not (E.canon_degraded ~n) then None
          else if not P.symmetric then
            Some (P.name ^ " is not a symmetric protocol")
          else Some (str "n = %d exceeds the group-enumeration bound 7" n));
      graph =
        (fun ~n ~m ->
          E.to_flat
            (E.explore
               (config ~n ~inputs:(inputs n)
                  (Array.init n (fun k -> Naming.rotation m k)))));
      fuzz =
        (fun ?time_budget ?probes ~seed ~attempts ~max_states ~fixed () ->
          let r =
            F.run ~seed ~attempts ?time_budget ~max_states ?probes ~fixed
              ~deterministic ?twin ~properties ~gen_inputs ()
          in
          {
            attempts = r.F.attempts;
            agreed = r.F.agreed;
            violations = r.F.violations;
            undecided = r.F.undecided;
            disagreement =
              Option.map
                (fun (d : F.disagreement) ->
                  str "at attempt %d (%s): %s" d.F.attempt d.F.subject
                    d.F.detail)
                r.F.disagreement;
            pp_report = (fun ppf -> F.pp_report ppf r);
            witness = Option.bind r.F.first_witness witness;
          });
      bundle =
        (fun raw ->
          let b = F.S.of_raw ~input_of_string raw in
          Option.map
            (fun sp -> erase raw.Check.Shrink.property sp b)
            (shrink_property properties raw.Check.Shrink.property
               b.F.S.inputs));
      hunt =
        (fun ~attempts (spec : Spec.t) ->
          fst
            (H.hunt ~strategy:spec.Spec.strategy ~attempts
               ~steps_per_attempt:spec.Spec.steps ~seed:spec.Spec.seed
               ~violation:hunt_violation
               ~ids:(Array.to_list (ids_of spec.Spec.n))
               ~inputs:(Array.to_list (inputs spec.Spec.n))
               ~m:spec.Spec.m ()));
    }
end

(* ------------------------------------------------------------------ *)
(* shared pieces of the per-protocol definitions                       *)
(* ------------------------------------------------------------------ *)

let units n = Array.make n ()
let unit_inputs _rng ~n = units n
let unit_to_string () = "-"

let unit_of_string = function
  | "-" -> ()
  | s -> failwith (str "expected unit input \"-\", got %S" s)

let consensus_inputs n = Array.init n (fun i -> (i + 1) * 100)

let consensus_gen_inputs rng ~n =
  Array.init n (fun _ -> 100 * (1 + Rng.int rng n))

(* ccp decides a local register index; it is correct when every decision
   resolves to the same physical register through the decider's naming.
   [status i] / [naming i] read process [i] of a graph state or a
   runtime. *)
let splits_register ~n ~status ~naming =
  let phys =
    List.filter_map
      (fun i ->
        match status i with
        | Protocol.Decided loc -> Some (Naming.apply (naming i) loc)
        | _ -> None)
      (List.init n Fun.id)
  in
  match phys with a :: rest -> List.exists (( <> ) a) rest | [] -> false

(* Twins are shared by every fuzz run of the process, concurrent served
   jobs included, so their memo tables are locked. *)
let memoize f =
  let tbl = Hashtbl.create 8 and lock = Mutex.create () in
  fun key ->
    match Mutex.protect lock (fun () -> Hashtbl.find_opt tbl key) with
    | Some r -> r
    | None ->
      let r = f key in
      Mutex.protect lock (fun () -> Hashtbl.replace tbl key r);
      r

(* Known-good baseline twins: the same property code must call them clean;
   a complaint is a checker bug (reported as a disagreement). *)

let peterson_twin : Check.Gen.params -> unit array -> string option =
  let verdict =
    memoize (fun () ->
        let module FB = Check.Fuzz.Make (Baseline.Peterson.P) in
        let g =
          FB.E.explore
            {
              ids = [| 1; 2 |];
              inputs = [| (); () |];
              namings = Array.init 2 (fun _ -> Naming.identity 3);
            }
        in
        let flat = FB.E.to_flat g in
        if not g.FB.E.complete then None
        else if FB.mutex_me.FB.check g flat <> None then
          Some "checker claims Peterson violates mutual exclusion"
        else if FB.mutex_df.FB.check g flat <> None then
          Some "checker claims Peterson violates deadlock freedom"
        else None)
  in
  fun _ _ -> verdict ()

let ca_consensus_twin : Check.Gen.params -> int array -> string option =
  let verdict =
    memoize (fun (n, inputs) ->
        let module FB = Check.Fuzz.Make (Baseline.Ca_consensus.P) in
        let m = Baseline.Ca_consensus.P.registers_for ~n ~rounds:2 in
        let g =
          FB.E.explore ~max_states:50_000
            {
              ids = Array.init n (fun i -> i + 1);
              inputs = Array.of_list inputs;
              namings = Array.init n (fun _ -> Naming.identity m);
            }
        in
        let flat = FB.E.to_flat g in
        let agree = FB.agreement ~equal:Int.equal in
        let valid =
          FB.validity ~allowed:(fun ins v -> Array.exists (( = ) v) ins)
        in
        if not g.FB.E.complete then None (* budget: inconclusive, not a bug *)
        else if agree.FB.check g flat <> None then
          Some "checker claims CA consensus violates agreement"
        else if valid.FB.check g flat <> None then
          Some "checker claims CA consensus violates validity"
        else None)
  in
  fun pars inputs -> verdict (pars.Check.Gen.n, Array.to_list inputs)

let chain_renaming_twin : Check.Gen.params -> unit array -> string option =
  let verdict =
    memoize (fun n ->
        let module FB = Check.Fuzz.Make (Baseline.Chain_renaming.P) in
        let m = (n - 1) * ((2 * n) - 1) in
        let g =
          FB.E.explore ~max_states:50_000
            {
              ids = ids_of n;
              inputs = units n;
              namings = Array.init n (fun _ -> Naming.identity m);
            }
        in
        let flat = FB.E.to_flat g in
        let uniq = FB.distinct_outputs ~equal:Int.equal in
        if not g.FB.E.complete then None
        else if uniq.FB.check g flat <> None then
          Some "checker claims chain renaming violates uniqueness"
        else None)
  in
  fun pars _inputs -> verdict pars.Check.Gen.n

(* ------------------------------------------------------------------ *)
(* the table                                                           *)
(* ------------------------------------------------------------------ *)

(* Figure 1 and its compare-and-swap variant: mutual exclusion and
   deadlock-freedom are the paper's two requirements; starvation is
   reported for information only. *)
module Mutex_family (P : Protocol.PROTOCOL with type input = unit) = struct
  module M = Make (P)

  let entry ~proto ?twin () =
    M.entry ~proto ~inputs:units
      ~judge:(fun _ flat ->
        let f = Lazy.force flat in
        [
          ("mutual-exclusion", Check.Mutex_props.mutual_exclusion f = None);
          ("deadlock-freedom", Check.Mutex_props.deadlock_freedom f = None);
        ])
      ~info:(fun _ flat ->
        [
          ( "starvation-freedom",
            match Check.Mutex_props.starvation_freedom (Lazy.force flat) with
            | None -> "ok"
            | Some (p, _) -> str "p%d can starve" p );
        ])
      ~properties:[ M.F.mutex_me; M.F.mutex_df ]
      ~gen_inputs:unit_inputs ?twin ~input_to_string:unit_to_string
      ~input_of_string:unit_of_string ~hunt_violation:M.H.mutex_violation ()
end

let mutex =
  let module X = Mutex_family (Coord.Amutex.P) in
  X.entry ~proto:Spec.Mutex ~twin:peterson_twin ()

let cmp_mutex =
  let module X = Mutex_family (Coord.Cmp_mutex.P) in
  X.entry ~proto:Spec.Cmp_mutex ()

let consensus =
  let module M = Make (Coord.Consensus.P) in
  M.entry ~proto:Spec.Consensus ~inputs:consensus_inputs
    ~judge:(fun g _ ->
      let inputs = g.M.E.cfg.inputs in
      [
        ( "agreement",
          Check.Props.agreement ~equal:Int.equal ~statuses:M.E.statuses
            g.M.E.states
          = None );
        ( "validity",
          Check.Props.validity
            ~allowed:(fun v -> Array.exists (( = ) v) inputs)
            ~statuses:M.E.statuses g.M.E.states
          = None );
        ("of-termination", M.E.check_obstruction_freedom g = None);
      ])
    ~properties:
      [
        M.F.agreement ~equal:Int.equal;
        M.F.validity ~allowed:(fun inputs v -> Array.exists (( = ) v) inputs);
      ]
    ~gen_inputs:consensus_gen_inputs ~twin:ca_consensus_twin
    ~input_to_string:string_of_int ~input_of_string:int_of_string
    ~hunt_violation:(M.H.disagreement ~equal:Int.equal)
    ()

(* The leader must be a participant: its id is one of the instance's. *)
let election =
  let module M = Make (Coord.Election.P) in
  let leader_participates (g : M.E.graph) =
    Check.Props.validity
      ~allowed:(fun v -> Array.exists (( = ) v) g.M.E.cfg.ids)
      ~statuses:M.E.statuses g.M.E.states
  in
  M.entry ~proto:Spec.Election ~inputs:units
    ~judge:(fun g _ ->
      [
        ( "one-leader",
          Check.Props.agreement ~equal:Int.equal ~statuses:M.E.statuses
            g.M.E.states
          = None );
        ("leader-participates", leader_participates g = None);
        ("of-termination", M.E.check_obstruction_freedom g = None);
      ])
    ~properties:
      [
        { (M.F.agreement ~equal:Int.equal) with M.F.name = "one-leader" };
        {
          M.F.name = "leader-participates";
          check =
            (fun g _ ->
              Option.map
                (fun (d : int Check.Props.decided) ->
                  M.F.State d.Check.Props.state)
                (leader_participates g));
          rt_check =
            Some
              (fun _ rt ->
                let ds = M.F.S.R.decisions rt in
                let ids = Array.init (Array.length ds) (M.F.S.R.id_of rt) in
                Array.exists
                  (function
                    | Some v -> not (Array.exists (( = ) v) ids)
                    | None -> false)
                  ds);
        };
      ]
    ~gen_inputs:unit_inputs ~input_to_string:unit_to_string
    ~input_of_string:unit_of_string
    ~hunt_violation:(M.H.disagreement ~equal:Int.equal)
    ()

let renaming =
  let module M = Make (Coord.Renaming.P) in
  M.entry ~proto:Spec.Renaming ~inputs:units
    ~judge:(fun g _ ->
      [
        ( "uniqueness",
          Check.Props.distinct_outputs ~equal:Int.equal ~statuses:M.E.statuses
            g.M.E.states
          = None );
        ( "adaptivity",
          Check.Props.adaptive_range ~name_of:Fun.id ~statuses:M.E.statuses
            g.M.E.states
          = None );
        ("of-termination", M.E.check_obstruction_freedom g = None);
      ])
    ~properties:
      [
        {
          (M.F.distinct_outputs ~equal:Int.equal) with
          M.F.name = "uniqueness";
        };
      ]
    ~gen_inputs:unit_inputs ~twin:chain_renaming_twin
    ~input_to_string:unit_to_string ~input_of_string:unit_of_string
      (* uniqueness: a violation is two EQUAL decided names. [disagreement]
         fires on a pair the predicate calls non-equal, so handing it (<>)
         as "equal" makes it fire exactly on duplicates. *)
    ~hunt_violation:(M.H.disagreement ~equal:(fun a b -> a <> b))
    ()

let ccp =
  let module M = Make (Coord.Ccp.P) in
  (* the first state whose decisions split across physical registers *)
  let split_state (g : M.E.graph) =
    let n = Array.length g.M.E.cfg.ids in
    let rec go si =
      if si >= Array.length g.M.E.states then None
      else
        let statuses = M.E.statuses g.M.E.states.(si) in
        if
          splits_register ~n
            ~status:(fun p -> statuses.(p))
            ~naming:(fun p -> g.M.E.cfg.namings.(p))
        then Some si
        else go (si + 1)
    in
    go 0
  in
  let rt_splits (type r) ~(n : r -> int) ~status ~naming (rt : r) =
    splits_register ~n:(n rt) ~status:(status rt) ~naming:(naming rt)
  in
  M.entry ~proto:Spec.Ccp ~inputs:units
    ~judge:(fun g _ -> [ ("same-register", split_state g = None) ])
    ~properties:
      [
        {
          M.F.name = "same-register";
          check =
            (fun g _ -> Option.map (fun si -> M.F.State si) (split_state g));
          rt_check =
            Some
              (fun _ ->
                rt_splits ~n:M.F.S.R.n ~status:M.F.S.R.status
                  ~naming:M.F.S.R.naming_of);
        };
      ]
    ~gen_inputs:unit_inputs ~deterministic:false ~input_to_string:unit_to_string
    ~input_of_string:unit_of_string
    ~hunt_violation:
      (rt_splits ~n:M.H.R.n ~status:M.H.R.status ~naming:M.H.R.naming_of)
    ()

let find : Spec.proto -> entry = function
  | Spec.Mutex -> mutex
  | Spec.Cmp_mutex -> cmp_mutex
  | Spec.Consensus -> consensus
  | Spec.Election -> election
  | Spec.Renaming -> renaming
  | Spec.Ccp -> ccp
