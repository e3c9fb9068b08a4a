open Anonmem
open Check

(* Differential test of the CSR fair-cycle search against the list-based
   code it replaced, kept here verbatim as the oracle: a boxed flat graph
   (status arrays, edge lists), a Tarjan over (vertex, successor list)
   frames, and a refinement that rebuilds filtered successor lists each
   round. Verdicts and witnesses must agree element for element. *)

module Oracle = struct
  type g = {
    n_procs : int;
    statuses : Flatgraph.proc_status array array;
    succs : Flatgraph.trans list array;
  }

  type scc = { count : int; component : int array }

  let scc_compute ~n ~succs =
    let index = Array.make n (-1) in
    let lowlink = Array.make n 0 in
    let on_stack = Array.make n false in
    let stack = ref [] in
    let next_index = ref 0 in
    let component = Array.make n (-1) in
    let comp_count = ref 0 in
    let rec_stack = Stack.create () in
    let open_vertex v =
      index.(v) <- !next_index;
      lowlink.(v) <- !next_index;
      incr next_index;
      stack := v :: !stack;
      on_stack.(v) <- true;
      Stack.push (v, succs v) rec_stack
    in
    let close_vertex v =
      if lowlink.(v) = index.(v) then begin
        let c = !comp_count in
        incr comp_count;
        let rec pop () =
          match !stack with
          | [] -> assert false
          | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            component.(w) <- c;
            if w <> v then pop ()
        in
        pop ()
      end
    in
    for root = 0 to n - 1 do
      if index.(root) = -1 then begin
        open_vertex root;
        while not (Stack.is_empty rec_stack) do
          let v, pending = Stack.pop rec_stack in
          match pending with
          | [] -> (
            close_vertex v;
            match Stack.top_opt rec_stack with
            | Some (p, _) -> lowlink.(p) <- min lowlink.(p) lowlink.(v)
            | None -> ())
          | w :: rest ->
            Stack.push (v, rest) rec_stack;
            if index.(w) = -1 then open_vertex w
            else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
        done
      end
    done;
    { count = !comp_count; component }

  let scc_components t =
    let buckets = Array.make t.count [] in
    Array.iteri (fun v c -> buckets.(c) <- v :: buckets.(c)) t.component;
    buckets

  let mutual_exclusion g =
    let exception Found of Mutex_props.me_violation in
    try
      Array.iteri
        (fun sid statuses ->
          let crit = ref [] in
          Array.iteri
            (fun p s -> if s = Flatgraph.Crit then crit := p :: !crit)
            statuses;
          match !crit with
          | p :: q :: _ ->
            raise (Found { Mutex_props.state = sid; procs = (q, p) })
          | _ -> ())
        g.statuses;
      None
    with Found v -> Some v

  let is_active = function
    | Flatgraph.Try | Crit | Exit -> true
    | Rem | Done -> false

  let find_fair_cycle g ~state_ok ~edge_ok ~interesting =
    let n_states = Array.length g.statuses in
    let n_procs = g.n_procs in
    let alive = Array.init n_states state_ok in
    let internal_succs v =
      if not alive.(v) then []
      else
        List.filter_map
          (fun (t : Flatgraph.trans) ->
            if edge_ok t && alive.(t.dst) then Some t.dst else None)
          g.succs.(v)
    in
    let rec iterate () =
      let scc = scc_compute ~n:n_states ~succs:internal_succs in
      let comps = scc_components scc in
      let changed = ref false in
      let found = ref None in
      let examine members =
        match List.filter (fun v -> alive.(v)) members with
        | [] -> ()
        | first :: _ as members ->
          let comp_id = scc.component.(first) in
          let stepping = Array.make n_procs false in
          let has_edge = ref false in
          List.iter
            (fun v ->
              List.iter
                (fun (t : Flatgraph.trans) ->
                  if
                    edge_ok t && alive.(t.dst)
                    && scc.component.(t.dst) = comp_id
                  then begin
                    has_edge := true;
                    stepping.(t.proc) <- true
                  end)
                g.succs.(v))
            members;
          if !has_edge then begin
            let missing p =
              (not stepping.(p))
              && List.exists (fun v -> is_active g.statuses.(v).(p)) members
            in
            let missing_procs =
              List.filter missing (List.init n_procs Fun.id)
            in
            match missing_procs with
            | [] ->
              if !found = None && interesting members then
                found := Some members
            | _ ->
              List.iter
                (fun v ->
                  if
                    List.exists
                      (fun p -> is_active g.statuses.(v).(p))
                      missing_procs
                  then begin
                    alive.(v) <- false;
                    changed := true
                  end)
                members
          end
      in
      Array.iter examine comps;
      match !found with
      | Some members -> Some members
      | None -> if !changed then iterate () else None
    in
    iterate ()

  let trying_in g members =
    List.filter
      (fun p ->
        List.exists (fun v -> g.statuses.(v).(p) = Flatgraph.Try) members)
      (List.init g.n_procs Fun.id)

  let deadlock_freedom g =
    find_fair_cycle g
      ~state_ok:(fun _ -> true)
      ~edge_ok:(fun (t : Flatgraph.trans) -> not t.enters_cs)
      ~interesting:(fun members -> trying_in g members <> [])
    |> Option.map (fun members ->
           { Mutex_props.states = members; trying = trying_in g members })

  let starves g p =
    find_fair_cycle g
      ~state_ok:(fun v -> g.statuses.(v).(p) = Flatgraph.Try)
      ~edge_ok:(fun (t : Flatgraph.trans) -> not (t.proc = p && t.enters_cs))
      ~interesting:(fun _ -> true)
    |> Option.map (fun members ->
           { Mutex_props.states = members; trying = [ p ] })

  (* [starvation_freedom] was the first [p] with [starves g p]; [agree]
     derives it from the per-process answers it already has. *)
end

(* --- comparing the two --- *)

let pp_ints = Fmt.(brackets (list ~sep:semi int))

let show_me = function
  | None -> "none"
  | Some (v : Mutex_props.me_violation) ->
    Printf.sprintf "state %d procs (%d, %d)" v.state (fst v.procs)
      (snd v.procs)

let show_df = function
  | None -> "none"
  | Some (v : Mutex_props.df_violation) ->
    Fmt.str "states %a trying %a" pp_ints v.states pp_ints v.trying

let show_sf = function
  | None -> "none"
  | Some (p, v) -> Printf.sprintf "p%d: %s" p (show_df (Some v))

(* Every verdict of [flat] against the oracle on [old]. *)
let agree name (old : Oracle.g) (flat : Flatgraph.t) =
  let check what show a b =
    Alcotest.(check string) (name ^ ": " ^ what) (show a) (show b)
  in
  check "mutual exclusion" show_me (Oracle.mutual_exclusion old)
    (Mutex_props.mutual_exclusion flat);
  check "deadlock freedom" show_df (Oracle.deadlock_freedom old)
    (Mutex_props.deadlock_freedom flat);
  let starves = List.init old.n_procs (Oracle.starves old) in
  List.iteri
    (fun p want ->
      check (Printf.sprintf "starves p%d" p) show_df want
        (Mutex_props.starves flat p))
    starves;
  let first_starving =
    List.find_map Fun.id
      (List.mapi (fun p v -> Option.map (fun v -> (p, v)) v) starves)
  in
  check "starvation freedom" show_sf first_starving
    (Mutex_props.starvation_freedom flat)

(* --- seeded random labeled graphs --- *)

let all_statuses = Flatgraph.[| Rem; Try; Crit; Exit; Done |]

let random_graph rng =
  let n = 1 + Rng.int rng 40 and n_procs = 1 + Rng.int rng 4 in
  (* bias towards Try so fair cycles with someone trying are common *)
  let status () =
    if Rng.int rng 3 = 0 then Flatgraph.Try
    else all_statuses.(Rng.int rng (Array.length all_statuses))
  in
  let statuses =
    Array.init n (fun _ -> Array.init n_procs (fun _ -> status ()))
  in
  let succs = Array.make n [] in
  let n_edges = Rng.int rng (3 * n) in
  for _ = 1 to n_edges do
    let u = Rng.int rng n in
    let t =
      {
        Flatgraph.dst =
          (* self-loops and short back edges on purpose *)
          (match Rng.int rng 5 with
          | 0 -> u
          | 1 -> max 0 (u - 1 - Rng.int rng 3)
          | _ -> Rng.int rng n);
        proc = Rng.int rng n_procs;
        enters_cs = Rng.int rng 5 = 0;
      }
    in
    succs.(u) <- t :: succs.(u);
    (* a parallel copy now and then *)
    if Rng.int rng 8 = 0 then succs.(u) <- t :: succs.(u)
  done;
  ( { Oracle.n_procs; statuses; succs },
    Flatgraph.of_lists ~n_procs statuses succs )

let test_random_graphs () =
  let rng = Rng.create 14 in
  let violations = ref 0 in
  for i = 1 to 600 do
    let old, flat = random_graph rng in
    if Oracle.deadlock_freedom old <> None then incr violations;
    agree (Printf.sprintf "random graph %d" i) old flat
  done;
  (* the sample must exercise both verdicts, not just the empty answer *)
  Alcotest.(check bool) "some random graphs have fair cycles" true
    (!violations > 50 && !violations < 550)

(* --- every in-tree mutex graph --- *)

module Diff (P : Protocol.PROTOCOL with type input = unit) = struct
  module E = Explore.Make (P)

  (* the oracle's input straight from the boxed graph, not via to_flat *)
  let old_of (g : E.graph) =
    {
      Oracle.n_procs = Array.length g.cfg.ids;
      statuses =
        Array.map
          (fun st -> Array.map Flatgraph.of_status (E.statuses st))
          g.states;
      succs =
        Array.map
          (List.map (fun { E.dst; label = { E.proc; enters_cs } } ->
               { Flatgraph.dst; proc; enters_cs }))
          g.succs;
    }

  let run name (cfg : E.config) =
    let g, _ = E.explore_with_stats cfg in
    Alcotest.(check bool) (name ^ ": complete") true g.complete;
    agree name (old_of g) (E.to_flat g)

  let run_ids name ids =
    run name (E.config ~ids ~inputs:(List.map (fun _ -> ()) ids) ())
end

module D_amutex = Diff (Coord.Amutex.P)
module D_cmp = Diff (Coord.Cmp_mutex.P)
module D_peterson = Diff (Baseline.Peterson.P)
module D_burns = Diff (Baseline.Burns.P)
module D_tour = Diff (Baseline.Tournament.P)
module D_fast = Diff (Baseline.Fast_mutex.P)
module D_fixm = Diff (Test_wrap.Fig1_3)

let sweep_ids n = Array.init n (fun i -> ((i + 1) * 17) + 1)

let naming_name namings =
  String.concat " " (List.map (Fmt.str "%a" Naming.pp) (Array.to_list namings))

(* [coordctl check mutex]'s n = 2 sweep: p0 on the identity, p1 on every
   naming of the m registers. *)
let test_amutex_sweep () =
  List.iter
    (fun m ->
      List.iter
        (fun nm ->
          let namings = [| Naming.identity m; nm |] in
          D_amutex.run
            (Printf.sprintf "amutex m=%d %s" m (naming_name namings))
            { ids = sweep_ids 2; inputs = [| (); () |]; namings })
        (Naming.all m))
    [ 3; 4; 5 ]

let test_other_mutexes () =
  D_amutex.run "amutex n=3 m=2"
    {
      ids = sweep_ids 3;
      inputs = Array.make 3 ();
      namings = Array.init 3 (fun k -> Naming.rotation 2 k);
    };
  List.iter
    (fun m ->
      List.iter
        (fun nm ->
          D_cmp.run
            (Printf.sprintf "cmp_mutex m=%d %s" m (Fmt.str "%a" Naming.pp nm))
            { ids = [| 7; 13 |]; inputs = [| (); () |];
              namings = [| Naming.identity m; nm |] })
        (Naming.all m))
    [ 2; 3 ];
  D_peterson.run_ids "peterson" [ 1; 2 ];
  D_burns.run_ids "burns n=2" [ 1; 2 ];
  D_burns.run_ids "burns n=3" [ 1; 2; 3 ];
  D_tour.run_ids "tournament n=2" [ 1; 2 ];
  D_tour.run_ids "tournament n=4" [ 1; 2; 3; 4 ];
  D_fast.run_ids "fast mutex n=2" [ 1; 2 ];
  D_fast.run_ids "fast mutex n=3" [ 1; 2; 3 ];
  List.iter
    (fun namings ->
      D_fixm.run ("Fix_m mutex " ^ naming_name namings)
        { ids = [| 7; 13 |]; inputs = [| (); () |]; namings })
    [
      [| Naming.identity 5; Naming.identity 5 |];
      [| Naming.identity 5; Naming.of_array [| 2; 3; 4; 0; 1 |] |];
      [| Naming.identity 5; Naming.of_array [| 1; 2; 3; 0; 4 |] |];
      [| Naming.identity 5; Naming.of_array [| 3; 4; 0; 1; 2 |] |];
    ]

(* --- allocation --- *)

(* The fair-cycle search walks the CSR arrays with per-call scratch: well
   under one minor word per state for DF and SF alike. The witness a
   violation returns is the one thing built per state, 3 words per list
   cell; it is the answer, not search overhead, so it is netted out and
   reported. *)
let test_allocation () =
  let g, _ =
    D_amutex.E.explore_with_stats
      {
        ids = sweep_ids 2;
        inputs = [| (); () |];
        namings = [| Naming.identity 5; Naming.identity 5 |];
      }
  in
  let flat = D_amutex.E.to_flat g in
  let n = Flatgraph.n_states flat in
  Alcotest.(check bool) "at least 10^4 states" true (n >= 10_000);
  let check name f witness =
    let before = Gc.minor_words () in
    let r = Sys.opaque_identity (f flat) in
    let words = Gc.minor_words () -. before in
    let cells = witness r in
    let search = (words -. float_of_int (3 * cells)) /. float_of_int n in
    Alcotest.(check bool)
      (Printf.sprintf
         "%s: %.3f minor words/state besides its %d-state witness (%.3f \
          with it) < 1"
         name search cells (words /. float_of_int n))
      true (search < 1.0)
  in
  let cells = function
    | None -> 0
    | Some (v : Mutex_props.df_violation) -> List.length v.states
  in
  check "deadlock_freedom" Mutex_props.deadlock_freedom cells;
  check "starvation_freedom" Mutex_props.starvation_freedom (fun r ->
      cells (Option.map snd r))

let suite =
  [
    Alcotest.test_case "600 random labeled graphs = list-based oracle" `Quick
      test_random_graphs;
    Alcotest.test_case "amutex n=2 m=3..5, every naming = oracle" `Slow
      test_amutex_sweep;
    Alcotest.test_case "in-tree mutexes and baselines = oracle" `Quick
      test_other_mutexes;
    Alcotest.test_case "DF and SF allocate < 1 minor word/state" `Quick
      test_allocation;
  ]
