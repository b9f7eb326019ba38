(* Order statistics for benchmark samples. *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile, [p] in [0, 1]: always an observed sample. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* First and third quartile by the "exclusive" method Python's
   [statistics.quantiles(xs, n=4)] uses, so result files and the
   acceptance check read spreads the same way. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (0.0, 0.0)
  else if n = 1 then (a.(0), a.(0))
  else
    let cut i =
      let m = i * (n + 1) in
      let j = max 1 (min (n - 1) (m / 4)) in
      let delta = float_of_int (m - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (cut 1, cut 3)

let mean xs =
  match xs with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
