type me_violation = { state : int; procs : int * int }

type df_violation = { states : int list; trying : int list }

let try_ = Flatgraph.code Try

let crit = Flatgraph.code Crit

let exit_ = Flatgraph.code Exit

let is_active c = c = try_ || c = crit || c = exit_

(* The first state holding at least two critical processes, reported as
   its two highest-numbered ones, lower first. *)
let mutual_exclusion (g : Flatgraph.t) =
  let np = g.n_procs in
  let n = Flatgraph.n_states g in
  let found = ref None and v = ref 0 in
  while Option.is_none !found && !v < n do
    let hi = ref (-1) and p = ref (np - 1) in
    while !p >= 0 do
      if Flatgraph.status_code g !v !p = crit then
        if !hi < 0 then hi := !p
        else begin
          found := Some { state = !v; procs = (!p, !hi) };
          p := 0
        end;
      decr p
    done;
    incr v
  done;
  !found

(* Everything a fair-cycle search needs besides the graph, allocated once
   per checker call and reused across refinement rounds (and, for
   [starvation_freedom], across processes). *)
type scratch = {
  scc : Scc.workspace;
  alive : Bytes.t;  (** '\001' = state still in the search *)
  start : int array;  (** [count + 1] bucket offsets into [members] *)
  members : int array;  (** alive states grouped by component *)
  stepping : Bytes.t;  (** per process: steps inside the component *)
  missing : Bytes.t;  (** per process: active in it but never steps *)
}

let scratch (g : Flatgraph.t) =
  let n = Flatgraph.n_states g in
  {
    scc = Scc.workspace n;
    alive = Bytes.create n;
    start = Array.make (n + 1) 0;
    members = Array.make n 0;
    stepping = Bytes.create g.n_procs;
    missing = Bytes.create g.n_procs;
  }

(* Core fair-cycle search by strong-fairness refinement.

   We look for an SCC, in the subgraph induced by [state_ok] states and
   [edge_ok] edges, around which a run can cycle forever legally: every
   process that is active in some member state takes a step inside the SCC
   (processes never fail, and critical/exiting processes are obliged to
   move). An SCC containing a state where some obliged process can never
   step is shrunk by removing those states, and the search repeats until
   stable. A stable fair SCC with an [interesting] member is a violation;
   the first round that has one returns its lowest-numbered one, states in
   descending order.

   Each round buckets the alive states by component with a counting sort
   (descending vertex order within a bucket) and walks the CSR arrays
   directly: no per-state or per-edge allocation. *)
let find_fair_cycle s (g : Flatgraph.t) ~state_ok ~edge_ok ~interesting =
  let n = Flatgraph.n_states g in
  let np = g.n_procs in
  let off = g.off and dst = g.dst in
  let { alive; start; members; stepping; missing; _ } = s in
  for v = 0 to n - 1 do
    Bytes.unsafe_set alive v (if state_ok v then '\001' else '\000')
  done;
  let vertex_ok v = Bytes.unsafe_get alive v = '\001' in
  let rec round () =
    let scc = Scc.compute ~ws:s.scc ~vertex_ok ~edge_ok g in
    let comp = scc.component and count = scc.count in
    (* counting sort: start.(c) is bucket c's first slot; filling from the
       highest vertex down leaves each bucket in descending order and
       start.(c) at bucket c's end *)
    Array.fill start 0 (count + 1) 0;
    for v = 0 to n - 1 do
      let c = comp.(v) in
      if c >= 0 then start.(c + 1) <- start.(c + 1) + 1
    done;
    for c = 1 to count do
      start.(c) <- start.(c) + start.(c - 1)
    done;
    for v = n - 1 downto 0 do
      let c = comp.(v) in
      if c >= 0 then begin
        members.(start.(c)) <- v;
        start.(c) <- start.(c) + 1
      end
    done;
    let found = ref None and changed = ref false in
    let c = ref 0 and lo = ref 0 in
    while Option.is_none !found && !c < count do
      let hi = start.(!c) in
      Bytes.fill stepping 0 np '\000';
      let has_edge = ref false in
      for i = !lo to hi - 1 do
        let v = members.(i) in
        for e = off.(v) to off.(v + 1) - 1 do
          if comp.(dst.(e)) = !c && edge_ok e then begin
            has_edge := true;
            Bytes.set stepping (Flatgraph.edge_proc g e) '\001'
          end
        done
      done;
      if !has_edge then begin
        let any_missing = ref false in
        for p = 0 to np - 1 do
          let m = ref false in
          if Bytes.unsafe_get stepping p = '\000' then begin
            let i = ref !lo in
            while (not !m) && !i < hi do
              if is_active (Flatgraph.status_code g members.(!i) p) then
                m := true;
              incr i
            done
          end;
          Bytes.unsafe_set missing p (if !m then '\001' else '\000');
          if !m then any_missing := true
        done;
        if not !any_missing then begin
          let i = ref !lo in
          while Option.is_none !found && !i < hi do
            if interesting members.(!i) then
              found := Some (List.init (hi - !lo) (fun k -> members.(!lo + k)));
            incr i
          done
        end
        else
          for i = !lo to hi - 1 do
            let v = members.(i) in
            let p = ref 0 in
            while !p < np do
              if
                Bytes.unsafe_get missing !p = '\001'
                && is_active (Flatgraph.status_code g v !p)
              then begin
                Bytes.unsafe_set alive v '\000';
                changed := true;
                p := np
              end;
              incr p
            done
          done
      end;
      incr c;
      lo := hi
    done;
    match !found with
    | Some _ as found -> found
    | None -> if !changed then round () else None
  in
  round ()

let trying_in (g : Flatgraph.t) members =
  List.filter
    (fun p -> List.exists (fun v -> Flatgraph.status g v p = Try) members)
    (List.init g.n_procs Fun.id)

let has_trying (g : Flatgraph.t) v =
  let rec go p =
    p < g.n_procs && (Flatgraph.status_code g v p = try_ || go (p + 1))
  in
  go 0

(* Deadlock-freedom: no fair cycle avoiding every CS entry while someone is
   trying. *)
let deadlock_freedom (g : Flatgraph.t) =
  find_fair_cycle (scratch g) g
    ~state_ok:(fun _ -> true)
    ~edge_ok:(fun e -> not (Flatgraph.edge_enters_cs g e))
    ~interesting:(has_trying g)
  |> Option.map (fun members -> { states = members; trying = trying_in g members })

(* Starvation-freedom for process [p]: no fair cycle in which p is trying
   throughout and only p's own CS entries are forbidden — other processes
   may enter and leave their critical sections along the cycle. *)
let starves_in s (g : Flatgraph.t) p =
  let entry = Flatgraph.label_code ~proc:p ~enters_cs:true in
  find_fair_cycle s g
    ~state_ok:(fun v -> Flatgraph.status_code g v p = try_)
    ~edge_ok:(fun e -> Flatgraph.edge_label g e <> entry)
    ~interesting:(fun _ -> true)
  |> Option.map (fun members -> { states = members; trying = [ p ] })

let starves g p = starves_in (scratch g) g p

let starvation_freedom (g : Flatgraph.t) =
  let s = scratch g in
  let rec go p =
    if p >= g.n_procs then None
    else
      match starves_in s g p with
      | Some v -> Some (p, v)
      | None -> go (p + 1)
  in
  go 0
