(* SplitMix64 (Steele, Lea, Flood; JDK SplittableRandom). The state is
   one int64 kept unboxed in an 8-byte buffer: reading and writing it
   through the bytes primitives, with [mix] inlined into each draw, lets
   the native compiler keep the arithmetic in registers, so [int] and
   [bool] allocate nothing. A mutable int64 field would box a fresh
   state on every draw. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  set t 0 seed;
  t

let copy = Bytes.copy

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] int64 t =
  let state = Int64.add (get t 0) golden_gamma in
  set t 0 state;
  mix state

let split t = create (int64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let v = Int64.to_int (Int64.logand (int64 t) (Int64.of_int max_int)) in
  v mod bound

let float t bound =
  (* 53 random bits scaled into [0, 1). *)
  let bits = Int64.shift_right_logical (int64 t) 11 in
  let unit = Int64.to_float bits /. 9007199254740992.0 in
  unit *. bound

let bool t = Int64.logand (int64 t) 1L = 1L

let chance t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let exponential t ~mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then epsilon_float else u in
  -.mean *. log u
