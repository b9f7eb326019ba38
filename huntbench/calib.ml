(* How fast the shared host runs right now, measured with a fixed
   reference kernel. The kernel is the benchmark's own code, so it stays
   the same from commit to commit. It does the kind of work a hunt does,
   which is what other tenants slow down most: short-lived minor
   allocation, string-keyed hash tables, balanced-tree inserts and list
   sorting.

   Other tenants slow every program on the host, in phases of a few
   seconds, and by more or less from one minute to the next. A timing
   divided by the mean kernel pass measured around and during it, and
   multiplied by [reference_s], is the time the same work takes when one
   pass takes [reference_s]: most of the host's slowdown cancels out, a
   slower program does not. *)

module Smap = Map.Make (String)

(* Typical time of one pass on a 2-vCPU Xeon host, so that reference
   times read close to wall times there. *)
let reference_s = 0.010

let sink = ref 0

let kernel () =
  let table = Hashtbl.create 1024 in
  let map = ref Smap.empty in
  let acc = ref 0 in
  for round = 0 to 2 do
    for i = 0 to 2999 do
      let key = "k" ^ string_of_int ((i * 31) + round) in
      Hashtbl.replace table key (i, round);
      if i land 3 = 0 then map := Smap.add key i !map;
      let small = List.init 8 (fun j -> (j, i)) in
      acc := !acc + List.fold_left (fun a (j, k) -> a + j + k) 0 small
    done;
    let sorted = List.sort compare (List.init 4000 (fun i -> (i * 7919) land 4095)) in
    acc := !acc + List.hd sorted + Hashtbl.length table + Smap.cardinal !map
  done;
  sink := !sink + !acc

(* The kernel passes timed for one measured call. *)
type probe = { mutable passes : float list; mutable words : float }

let probe () = { passes = []; words = 0.0 }

(* Runs [n] passes into [p]; returns the wall time they took. *)
let sample p n =
  let w0 = Gc.minor_words () in
  let start = Unix.gettimeofday () in
  for _ = 1 to n do
    let t0 = Unix.gettimeofday () in
    kernel ();
    p.passes <- (Unix.gettimeofday () -. t0) :: p.passes
  done;
  let took = Unix.gettimeofday () -. start in
  p.words <- p.words +. (Gc.minor_words () -. w0);
  took

let mean = function
  | [] -> reference_s
  | passes -> List.fold_left ( +. ) 0.0 passes /. float_of_int (List.length passes)

(* Mean pass of [p]. *)
let mean_pass p = mean p.passes

(* Factor that turns a wall time measured under [p] into reference
   time. *)
let factor p = reference_s /. mean_pass p

(* The same, from the first [k] passes of [p] only: for a time that ends
   before the call does. *)
let factor_first p k = reference_s /. mean (List.filteri (fun i _ -> i < k) (List.rev p.passes))
