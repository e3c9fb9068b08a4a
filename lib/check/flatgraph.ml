open Anonmem

type proc_status = Rem | Try | Crit | Exit | Done

type trans = { dst : int; proc : int; enters_cs : bool }

type t = {
  n_procs : int;
  status_codes : Bytes.t;
  off : int array;
  dst : int array;
  label : Bytes.t;
  complete : bool;
}

let max_procs = 128

let code = function Rem -> 0 | Try -> 1 | Crit -> 2 | Exit -> 3 | Done -> 4

let of_code = function
  | 0 -> Rem
  | 1 -> Try
  | 2 -> Crit
  | 3 -> Exit
  | 4 -> Done
  | c -> invalid_arg (Printf.sprintf "Flatgraph.of_code %d" c)

let n_states g = Array.length g.off - 1

let n_transitions g = Array.length g.dst

let status_code g v p =
  if p < 0 || p >= g.n_procs then invalid_arg "Flatgraph.status_code";
  Char.code (Bytes.get g.status_codes ((v * g.n_procs) + p))

let status g v p = of_code (status_code g v p)

let label_code ~proc ~enters_cs = (proc lsl 1) lor Bool.to_int enters_cs

let edge_label g e = Char.code (Bytes.get g.label e)

let edge_proc g e = edge_label g e lsr 1

let edge_enters_cs g e = edge_label g e land 1 = 1

let iter_succs g v f =
  for e = g.off.(v) to g.off.(v + 1) - 1 do
    f g.dst.(e) (edge_proc g e) (edge_enters_cs g e)
  done

let of_lists ~n_procs ?(complete = true) statuses succs =
  let n = Array.length statuses in
  if n_procs < 0 || n_procs > max_procs then
    invalid_arg "Flatgraph.of_lists: n_procs out of range";
  if Array.length succs <> n then
    invalid_arg "Flatgraph.of_lists: statuses and succs differ in length";
  let status_codes = Bytes.create (n * n_procs) in
  Array.iteri
    (fun v row ->
      if Array.length row <> n_procs then
        invalid_arg "Flatgraph.of_lists: ragged status row";
      Array.iteri
        (fun p s ->
          Bytes.set status_codes ((v * n_procs) + p) (Char.chr (code s)))
        row)
    statuses;
  let off = Array.make (n + 1) 0 in
  Array.iteri (fun v ts -> off.(v + 1) <- off.(v) + List.length ts) succs;
  let dst = Array.make off.(n) 0 in
  let label = Bytes.create off.(n) in
  Array.iteri
    (fun v ts ->
      List.iteri
        (fun i (t : trans) ->
          if t.dst < 0 || t.dst >= n || t.proc < 0 || t.proc >= n_procs then
            invalid_arg "Flatgraph.of_lists: edge out of range";
          dst.(off.(v) + i) <- t.dst;
          Bytes.set label (off.(v) + i)
            (Char.chr (label_code ~proc:t.proc ~enters_cs:t.enters_cs)))
        ts)
    succs;
  { n_procs; status_codes; off; dst; label; complete }

let of_status : 'o Protocol.status -> proc_status = function
  | Protocol.Remainder -> Rem
  | Trying -> Try
  | Critical -> Crit
  | Exiting -> Exit
  | Decided _ -> Done

let pp_status ppf s =
  Format.pp_print_string ppf
    (match s with
    | Rem -> "remainder"
    | Try -> "trying"
    | Crit -> "critical"
    | Exit -> "exiting"
    | Done -> "decided")
