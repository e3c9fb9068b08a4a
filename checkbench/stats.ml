(* Order statistics over a run's samples. *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile by the same rule as Python's
   [statistics.quantiles(xs, n=4)] (the "exclusive" method), so the
   numbers this prints match the acceptance arithmetic exactly. With
   fewer than two samples both quartiles are the sample itself. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float (4 - delta)) +. (a.(j) *. float delta)) /. 4.
    in
    (q 1, q 3)

(* IQR as a share of the median: the run-to-run spread a bound is judged
   against. *)
let spread xs =
  let q1, q3 = quartiles xs in
  let med = median xs in
  if med = 0. then 0. else (q3 -. q1) /. Float.abs med

(* The highest of p90/p99/p99.9 that has at least ten samples beyond it,
   as [(label, value)]; [None] when there are too few samples for any. *)
let high_percentile xs =
  let a = sorted xs in
  let n = Array.length a in
  let pick (label, p) =
    if float n *. (1. -. p) >= 10. then
      let idx = min (n - 1) (int_of_float (Float.ceil (p *. float n)) - 1) in
      Some (label, a.(max 0 idx))
    else None
  in
  List.fold_left
    (fun acc lp -> match pick lp with Some r -> Some r | None -> acc)
    None
    [ ("p90", 0.9); ("p99", 0.99); ("p99.9", 0.999) ]
