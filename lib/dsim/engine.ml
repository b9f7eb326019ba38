(* The timer is the heap entry: one record per scheduled event, kept in
   an array-based binary min-heap on the lexicographic (time, seq) key.
   [seq] is unique, so the pop order is total and independent of the
   heap's shape. Freed slots hold [vacant], so a popped timer (and the
   closure it carries) is collectable as soon as its caller drops it. *)
type timer = {
  time : int;
  seq : int;
  mutable cancelled : bool;
  action : unit -> unit;
  cause : int;  (* causal frontier captured when the timer was scheduled; 0 = none *)
}

(* Trace ids start at 1, so 0 encodes "no cause" without an option. *)
let no_cause = 0

let vacant = { time = max_int; seq = max_int; cancelled = true; action = ignore; cause = no_cause }

type t = {
  mutable clock : int;
  mutable seq : int;
  mutable heap : timer array;
  mutable size : int;
  rng : Rng.t;
  trace : Trace.t;
  metrics : Metrics.t;
  mutable cause : int;
}

let create ?(seed = 1L) () =
  let trace = Trace.create () in
  let metrics = Metrics.create () in
  { clock = 0; seq = 0; heap = [||]; size = 0; rng = Rng.create seed; trace; metrics;
    cause = no_cause }

let now t = t.clock

let rng t = t.rng

let trace t = t.trace

let metrics t = t.metrics

let current_cause t = if t.cause = no_cause then None else Some t.cause

let set_cause t cause = t.cause <- (match cause with Some id -> id | None -> no_cause)

let cause_arg t = function Some _ as c -> c | None -> current_cause t

let record ?cause t ~actor ~kind detail =
  Trace.record t.trace ~time:t.clock ~actor ~kind ?cause:(cause_arg t cause) detail

let emit ?cause t ~actor ~kind detail =
  let id = Trace.emit t.trace ~time:t.clock ~actor ~kind ?cause:(cause_arg t cause) detail in
  t.cause <- id;
  id

(* --- heap ------------------------------------------------------------ *)

let earlier a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

(* Both sifts move a hole instead of swapping: [x] is written once, at
   its final slot. *)
let rec sift_up heap x i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let p = heap.(parent) in
    if earlier x p then begin
      heap.(i) <- p;
      sift_up heap x parent
    end
    else heap.(i) <- x
  end
  else heap.(i) <- x

let rec sift_down heap size x i =
  let l = (2 * i) + 1 in
  if l >= size then heap.(i) <- x
  else begin
    let r = l + 1 in
    let c = if r < size && earlier heap.(r) heap.(l) then r else l in
    let child = heap.(c) in
    if earlier child x then begin
      heap.(i) <- child;
      sift_down heap size x c
    end
    else heap.(i) <- x
  end

let push t timer =
  let capacity = Array.length t.heap in
  if t.size = capacity then begin
    let grown = Array.make (max 16 (2 * capacity)) vacant in
    Array.blit t.heap 0 grown 0 t.size;
    t.heap <- grown
  end;
  t.size <- t.size + 1;
  sift_up t.heap timer (t.size - 1)

(* Requires [t.size > 0]. *)
let pop t =
  let heap = t.heap in
  let top = heap.(0) in
  let last = t.size - 1 in
  t.size <- last;
  let tail = heap.(last) in
  heap.(last) <- vacant;
  if last > 0 then sift_down heap last tail 0;
  top

(* --- scheduling ------------------------------------------------------- *)

let schedule_at t ~time action =
  let time = if time > t.clock then time else t.clock in
  t.seq <- t.seq + 1;
  let timer = { time; seq = t.seq; cancelled = false; action; cause = t.cause } in
  push t timer;
  timer

let schedule t ~delay action =
  schedule_at t ~time:(t.clock + if delay > 0 then delay else 0) action

let cancel timer = timer.cancelled <- true

let pending t = t.size

let step t =
  if t.size = 0 then false
  else begin
    let timer = pop t in
    if timer.time > t.clock then t.clock <- timer.time;
    if not timer.cancelled then begin
      t.cause <- timer.cause;
      timer.action ();
      t.cause <- no_cause
    end;
    true
  end

let run ?until ?max_events t =
  let executed = ref 0 in
  let continue () =
    match max_events with Some m -> !executed < m | None -> true
  in
  let within_horizon () =
    match until with None -> true | Some horizon -> t.heap.(0).time <= horizon
  in
  while t.size > 0 && continue () && within_horizon () do
    if step t then incr executed
  done;
  (* If we stopped on the horizon, advance the clock to it so that callers
     observe a consistent "ran until" time. *)
  match until with
  | Some horizon when t.clock < horizon && t.size = 0 -> ()
  | Some horizon when t.clock < horizon -> t.clock <- horizon
  | _ -> ()

let every t ~period f =
  let rec tick () =
    (* Remember the tick's own causal context: anything f emits must not
       leak into the *next* tick's capture, or periodic loops would grow
       spurious causal edges across unrelated periods. *)
    let root = t.cause in
    if f () then begin
      t.cause <- root;
      ignore (schedule t ~delay:period tick)
    end
  in
  ignore (schedule t ~delay:0 tick)
