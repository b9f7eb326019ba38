(* Events live in slots: parallel arrays hold each scheduled event's
   scheduling [seq], the causal frontier captured when it was scheduled,
   its index in the heap and its action. The heap is an array-based
   binary min-heap of slot ids on the lexicographic (time, seq) key, and
   it keeps each entry's key inline: [heap_time] and [heap_seq] run
   parallel to [heap], so a sift compares adjacent ints and never loads
   a key through a slot id. [seq] is unique, so the pop order is total
   and independent of the heap's shape. An event that fires or is
   cancelled leaves the heap and frees its slot at once: its seq becomes
   [free], so a handle to it no longer matches, and its action becomes
   [ignore], so the closure is collectable. Free slots form a list
   threaded through [slot_pos]. Once the arrays have grown, scheduling,
   firing and cancelling allocate nothing. *)

(* A handle is the event's seq above [slot_bits] bits of slot id. *)
type timer = int

let slot_bits = 24

let slot_mask = (1 lsl slot_bits) - 1

(* The largest seq whose handle is a non-negative int. *)
let max_seq = max_int lsr slot_bits

(* Seqs start at 1, so a slot whose seq is 0 holds no event. *)
let free = 0

(* Trace ids start at 1, so 0 encodes "no cause" without an option. *)
let no_cause = Trace.no_cause

type t = {
  mutable clock : int;
  mutable seq : int;
  mutable slot_seq : int array;
  mutable slot_cause : int array;
  mutable slot_pos : int array;  (* live: index in [heap]; free: next free slot, or -1 *)
  mutable slot_action : (unit -> unit) array;
  mutable free_slot : int;  (* head of the free list, or -1 *)
  mutable heap : int array;  (* slot ids; the first [size] are live *)
  mutable heap_time : int array;  (* deadline of the entry at the same index *)
  mutable heap_seq : int array;  (* seq of the entry at the same index *)
  mutable size : int;
  mutable tombstone : int;  (* latest deadline of a cancelled event *)
  rng : Rng.t;
  trace : Trace.t;
  metrics : Metrics.t;
  mutable cause : int;
}

let create ?(seed = 1L) () =
  let trace = Trace.create () in
  let metrics = Metrics.create () in
  {
    clock = 0;
    seq = 0;
    slot_seq = [||];
    slot_cause = [||];
    slot_pos = [||];
    slot_action = [||];
    free_slot = -1;
    heap = [||];
    heap_time = [||];
    heap_seq = [||];
    size = 0;
    tombstone = 0;
    rng = Rng.create seed;
    trace;
    metrics;
    cause = no_cause;
  }

let now t = t.clock

let rng t = t.rng

let trace t = t.trace

let metrics t = t.metrics

let current_cause t = if t.cause = no_cause then None else Some t.cause

let set_cause t cause = t.cause <- (match cause with Some id -> id | None -> no_cause)

let cause_id t = function Some c -> c | None -> t.cause

let record ?cause t ~actor ~kind detail =
  ignore (Trace.emit t.trace ~time:t.clock ~actor ~kind ~cause:(cause_id t cause) detail)

let emit_deferred t ~actor ~kind render =
  let id = Trace.emit_deferred t.trace ~time:t.clock ~actor ~kind ~cause:t.cause render in
  t.cause <- id;
  id

(* --- slots ------------------------------------------------------------ *)

(* Called with every slot live: doubles the arrays and chains the new
   slots into the free list, lowest first. *)
let grow t =
  let old = Array.length t.slot_seq in
  let capacity = max 16 (2 * old) in
  if capacity > slot_mask + 1 then failwith "Engine: too many pending events";
  let extend a fill =
    let b = Array.make capacity fill in
    Array.blit a 0 b 0 old;
    b
  in
  t.slot_seq <- extend t.slot_seq free;
  t.slot_cause <- extend t.slot_cause no_cause;
  t.slot_action <- extend t.slot_action ignore;
  t.heap <- extend t.heap 0;
  t.heap_time <- extend t.heap_time 0;
  t.heap_seq <- extend t.heap_seq 0;
  t.slot_pos <- extend t.slot_pos (-1);
  for s = old to capacity - 2 do
    t.slot_pos.(s) <- s + 1
  done;
  t.free_slot <- old

let release t s =
  t.slot_seq.(s) <- free;
  t.slot_action.(s) <- ignore;
  t.slot_pos.(s) <- t.free_slot;
  t.free_slot <- s

(* --- heap ------------------------------------------------------------- *)

let place t i s time seq =
  t.heap.(i) <- s;
  t.heap_time.(i) <- time;
  t.heap_seq.(i) <- seq;
  t.slot_pos.(s) <- i

(* Both sifts move a hole instead of swapping: the entry (s, time, seq)
   is placed once, at its final index. They run on every schedule, fire
   and cancel, so they are loops over the arrays held in locals, each
   step comparing the adjacent keys of the hole's parent or children. *)
let sift_up t s time seq i =
  let heap = t.heap and heap_time = t.heap_time and heap_seq = t.heap_seq in
  let hole = ref i and sifting = ref true in
  while !sifting && !hole > 0 do
    let i = !hole in
    let p = (i - 1) lsr 1 in
    let tp = heap_time.(p) in
    if time < tp || (time = tp && seq < heap_seq.(p)) then begin
      let sp = heap.(p) in
      heap.(i) <- sp;
      heap_time.(i) <- tp;
      heap_seq.(i) <- heap_seq.(p);
      t.slot_pos.(sp) <- i;
      hole := p
    end
    else sifting := false
  done;
  place t !hole s time seq

let sift_down t s time seq i =
  let heap = t.heap and heap_time = t.heap_time and heap_seq = t.heap_seq and size = t.size in
  let hole = ref i and sifting = ref true in
  while !sifting && (2 * !hole) + 1 < size do
    let i = !hole in
    let l = (2 * i) + 1 in
    let r = l + 1 in
    let c =
      if r < size then begin
        let tr = heap_time.(r) and tl = heap_time.(l) in
        if tr < tl || (tr = tl && heap_seq.(r) < heap_seq.(l)) then r else l
      end
      else l
    in
    let tc = heap_time.(c) in
    if time < tc || (time = tc && seq < heap_seq.(c)) then sifting := false
    else begin
      let sc = heap.(c) in
      heap.(i) <- sc;
      heap_time.(i) <- tc;
      heap_seq.(i) <- heap_seq.(c);
      t.slot_pos.(sc) <- i;
      hole := c
    end
  done;
  place t !hole s time seq

(* Takes the entry at heap index [i] out; the last entry fills the hole
   and moves whichever way restores the order. *)
let remove t i =
  let last = t.size - 1 in
  t.size <- last;
  if i < last then begin
    let s = t.heap.(last) and time = t.heap_time.(last) and seq = t.heap_seq.(last) in
    let p = (i - 1) lsr 1 in
    if i > 0 && (time < t.heap_time.(p) || (time = t.heap_time.(p) && seq < t.heap_seq.(p)))
    then sift_up t s time seq i
    else sift_down t s time seq i
  end

(* --- scheduling ------------------------------------------------------- *)

let schedule_at t ~time action =
  if t.free_slot < 0 then grow t;
  if t.seq = max_seq then failwith "Engine: sequence numbers exhausted";
  let s = t.free_slot in
  t.free_slot <- t.slot_pos.(s);
  t.seq <- t.seq + 1;
  t.slot_seq.(s) <- t.seq;
  t.slot_cause.(s) <- t.cause;
  t.slot_action.(s) <- action;
  t.size <- t.size + 1;
  sift_up t s (if time > t.clock then time else t.clock) t.seq (t.size - 1);
  (t.seq lsl slot_bits) lor s

let schedule t ~delay action =
  schedule_at t ~time:(t.clock + if delay > 0 then delay else 0) action

let cancel t timer =
  let s = timer land slot_mask in
  if t.slot_seq.(s) = timer lsr slot_bits then begin
    let i = t.slot_pos.(s) in
    let time = t.heap_time.(i) in
    if time > t.tombstone then t.tombstone <- time;
    remove t i;
    release t s
  end

let pending t = t.size

let step t =
  if t.size = 0 then false
  else begin
    let s = t.heap.(0) and time = t.heap_time.(0) in
    remove t 0;
    if time > t.clock then t.clock <- time;
    let action = t.slot_action.(s) in
    t.cause <- t.slot_cause.(s);
    release t s;
    action ();
    t.cause <- no_cause;
    true
  end

let run ?until ?max_events t =
  let horizon = match until with Some h -> h | None -> max_int in
  let budget = match max_events with Some m -> m | None -> max_int in
  let fired = ref 0 in
  while t.size > 0 && !fired < budget && t.heap_time.(0) <= horizon do
    ignore (step t);
    incr fired
  done;
  (* Clock rule: end where the run would have if cancelled events stayed
     in the heap until popped. A live event, or a cancelled deadline,
     beyond [until] would still be pending and pulls the clock to
     [until]; otherwise every cancelled event would have been popped,
     the last of them at [tombstone]. *)
  if t.clock < horizon then
    match until with
    | Some h when t.size > 0 || t.tombstone > h -> t.clock <- h
    | _ -> if t.size = 0 && t.tombstone > t.clock then t.clock <- t.tombstone

let every t ~period f =
  if period <= 0 then
    invalid_arg (Printf.sprintf "Engine.every: period must be positive, got %d" period);
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
