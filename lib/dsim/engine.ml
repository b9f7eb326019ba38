(* Events live in slots: parallel arrays hold each scheduled event's
   scheduling [seq], the causal frontier captured when it was scheduled,
   its action and its deadline. A pending event waits in one of two
   tiers:

   - The wheel: [wheel_size] buckets, each [1 lsl bucket_bits] us of
     virtual time wide, for events due within one lap (about 1.05 s) of
     the clock: network deliveries, RPC timeouts, periodic ticks. A
     bucket is a circular chain of slots linked through [slot_next] and
     sorted by (time, seq); the wheel stores its tail, whose successor
     is its head. A new event has the largest seq, so it goes after
     every entry due no later than it; for same-time bursts and rising
     deadlines that is the tail, reached in O(1). Other inserts walk
     the chain from its head.
   - The far heap: a binary min-heap of slot ids in [far], keyed by
     (time, seq) through the slot arrays, for the few events due beyond
     one lap (pre-scheduled fault-plan and workload actions, heals near
     [max_int / 2]).

   No pending event is due before the clock, and the wheel admits only
   ticks less than a lap past the clock's, so its events span less than
   one lap and each bucket holds one tick's events. The [cursor] lies
   between the clock's tick and the wheel's earliest tick: a scan from
   it finds the first non-empty bucket, whose head is the wheel's
   earliest event, and an insert into an earlier bucket lowers it. A
   pop takes the earlier of that head and the far heap's top, so events
   fire in the total (time, seq) order, [seq] being unique. An event
   that fires or is cancelled leaves its tier and frees its slot at
   once: its seq becomes [free], so a handle to it no longer matches,
   and its action becomes [ignore], so the closure is collectable. Free
   slots form a list threaded through [slot_next]. Once the arrays have
   grown, scheduling, firing and cancelling allocate nothing.

   Like the rest of a fresh engine, the bucket array fits in the minor
   heap, so a trial that fits in the minor heap puts nothing of its
   engine in the major heap. *)

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

(* A tick is a deadline shifted right by [bucket_bits]: 4,096 us. One
   lap, [wheel_size] ticks, is 1,048,576 us, so a 1 s RPC timeout stays
   in the wheel. At 256 words the bucket array is the largest block the
   minor heap takes. *)
let bucket_bits = 12

let wheel_size = 256

let wheel_mask = wheel_size - 1

(* [slot_where] of an event in the wheel; a far event's is its index in
   [far]. *)
let in_wheel = -1

type t = {
  mutable clock : int;
  mutable seq : int;
  mutable slot_seq : int array;
  mutable slot_cause : int array;
  mutable slot_action : (unit -> unit) array;
  mutable slot_time : int array;
  mutable slot_next : int array;  (* in the wheel: next in its bucket; free: next free, or -1 *)
  mutable slot_where : int array;
  mutable far : int array;  (* slot ids; the first [far_size] are live *)
  wheel : int array;  (* bucket tails, -1 for an empty bucket *)
  mutable cursor : int;  (* a tick, at most the wheel's earliest *)
  mutable near : int;  (* events in the wheel *)
  mutable far_size : int;  (* events in the far heap *)
  mutable free_slot : int;  (* head of the free list, or -1 *)
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
    slot_action = [||];
    slot_time = [||];
    slot_next = [||];
    slot_where = [||];
    far = [||];
    wheel = Array.make wheel_size (-1);
    cursor = 0;
    near = 0;
    far_size = 0;
    free_slot = -1;
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
  t.slot_time <- extend t.slot_time 0;
  t.slot_where <- extend t.slot_where in_wheel;
  t.far <- extend t.far 0;
  t.slot_next <- extend t.slot_next (-1);
  for s = old to capacity - 2 do
    t.slot_next.(s) <- s + 1
  done;
  t.free_slot <- old

let release t s =
  t.slot_seq.(s) <- free;
  t.slot_action.(s) <- ignore;
  t.slot_next.(s) <- t.free_slot;
  t.free_slot <- s

(* Whether slot [a] fires before slot [b]. *)
let precedes t a b =
  let ta = t.slot_time.(a) and tb = t.slot_time.(b) in
  ta < tb || (ta = tb && t.slot_seq.(a) < t.slot_seq.(b))

(* --- the far heap ----------------------------------------------------- *)

(* Both sifts move a hole instead of swapping: slot [s] is placed once,
   at its final index. *)
let far_sift_up t s i =
  let far = t.far and time = t.slot_time.(s) and seq = t.slot_seq.(s) in
  let hole = ref i and sifting = ref true in
  while !sifting && !hole > 0 do
    let i = !hole in
    let p = (i - 1) lsr 1 in
    let sp = far.(p) in
    let tp = t.slot_time.(sp) in
    if time < tp || (time = tp && seq < t.slot_seq.(sp)) then begin
      far.(i) <- sp;
      t.slot_where.(sp) <- i;
      hole := p
    end
    else sifting := false
  done;
  far.(!hole) <- s;
  t.slot_where.(s) <- !hole

let far_sift_down t s i =
  let far = t.far and size = t.far_size in
  let hole = ref i and sifting = ref true in
  while !sifting && (2 * !hole) + 1 < size do
    let i = !hole in
    let l = (2 * i) + 1 in
    let c = if l + 1 < size && precedes t far.(l + 1) far.(l) then l + 1 else l in
    let sc = far.(c) in
    if precedes t s sc then sifting := false
    else begin
      far.(i) <- sc;
      t.slot_where.(sc) <- i;
      hole := c
    end
  done;
  far.(!hole) <- s;
  t.slot_where.(s) <- !hole

(* Takes the entry at index [i] out; the last entry fills the hole and
   moves whichever way restores the order. *)
let far_remove t i =
  let last = t.far_size - 1 in
  t.far_size <- last;
  if i < last then begin
    let s = t.far.(last) in
    if i > 0 && precedes t s t.far.((i - 1) lsr 1) then far_sift_up t s i else far_sift_down t s i
  end

(* --- the queue -------------------------------------------------------- *)

let enqueue t s time =
  let wheel = t.wheel in
  let tick = time lsr bucket_bits in
  if tick - (t.clock lsr bucket_bits) < wheel_size then begin
    let next = t.slot_next and b = tick land wheel_mask in
    let tail = wheel.(b) in
    if tail < 0 then begin
      next.(s) <- s;
      wheel.(b) <- s
    end
    else if t.slot_time.(tail) <= time then begin
      next.(s) <- next.(tail);
      next.(tail) <- s;
      wheel.(b) <- s
    end
    else begin
      (* The tail is due later, so this walk from the head stops before
         it, at the last entry due no later than [time]. *)
      let p = ref tail in
      while t.slot_time.(next.(!p)) <= time do
        p := next.(!p)
      done;
      next.(s) <- next.(!p);
      next.(!p) <- s
    end;
    t.slot_where.(s) <- in_wheel;
    if t.near = 0 || tick < t.cursor then t.cursor <- tick;
    t.near <- t.near + 1
  end
  else begin
    let i = t.far_size in
    t.far_size <- i + 1;
    far_sift_up t s i
  end

(* Takes slot [s] out of its tier. A wheel chain is singly linked, so
   this walks it from the tail to [s]'s predecessor: one step for the
   head, which is the tail's successor, and a chain holds the events of
   one tick. *)
let unlink t s =
  let w = t.slot_where.(s) in
  if w = in_wheel then begin
    let wheel = t.wheel and next = t.slot_next in
    let b = (t.slot_time.(s) lsr bucket_bits) land wheel_mask in
    let tail = wheel.(b) in
    let p = ref tail in
    while next.(!p) <> s do
      p := next.(!p)
    done;
    let p = !p in
    if p = s then wheel.(b) <- -1
    else begin
      next.(p) <- next.(s);
      if s = tail then wheel.(b) <- p
    end;
    t.near <- t.near - 1
  end
  else far_remove t w

(* The slot of the next event to fire, or -1 when none is pending. Moves
   the cursor to the wheel's first non-empty bucket. *)
let next t =
  let far = if t.far_size > 0 then t.far.(0) else -1 in
  if t.near = 0 then far
  else begin
    let wheel = t.wheel in
    let c = ref t.cursor in
    while wheel.(!c land wheel_mask) < 0 do
      incr c
    done;
    t.cursor <- !c;
    let head = t.slot_next.(wheel.(!c land wheel_mask)) in
    if far >= 0 && precedes t far head then far else head
  end

(* Fires slot [s], which [next] just returned, so no pending event is due
   before it. *)
let fire t s =
  unlink t s;
  let time = t.slot_time.(s) in
  if time > t.clock then t.clock <- time;
  let action = t.slot_action.(s) in
  t.cause <- t.slot_cause.(s);
  release t s;
  action ();
  t.cause <- no_cause

(* --- scheduling ------------------------------------------------------- *)

let schedule_at t ~time action =
  if t.free_slot < 0 then grow t;
  if t.seq = max_seq then failwith "Engine: sequence numbers exhausted";
  let s = t.free_slot in
  t.free_slot <- t.slot_next.(s);
  t.seq <- t.seq + 1;
  t.slot_seq.(s) <- t.seq;
  t.slot_cause.(s) <- t.cause;
  t.slot_action.(s) <- action;
  let time = if time > t.clock then time else t.clock in
  t.slot_time.(s) <- time;
  enqueue t s time;
  (t.seq lsl slot_bits) lor s

let schedule t ~delay action =
  schedule_at t ~time:(t.clock + if delay > 0 then delay else 0) action

let cancel t timer =
  let s = timer land slot_mask in
  if t.slot_seq.(s) = timer lsr slot_bits then begin
    let time = t.slot_time.(s) in
    if time > t.tombstone then t.tombstone <- time;
    unlink t s;
    release t s
  end

let pending t = t.near + t.far_size

let step t =
  let s = next t in
  if s < 0 then false
  else begin
    fire t s;
    true
  end

let run ?until ?max_events t =
  let horizon = match until with Some h -> h | None -> max_int in
  let budget = match max_events with Some m -> m | None -> max_int in
  let fired = ref 0 and s = ref (next t) in
  while !s >= 0 && !fired < budget && t.slot_time.(!s) <= horizon do
    fire t !s;
    incr fired;
    s := next t
  done;
  (* Clock rule: a run cut by [max_events] ends at its last event, due no
     later than any still pending. Any other run ends where it would have
     if cancelled events stayed queued until popped. A live event, or a
     cancelled deadline, beyond [until] would still be pending and pulls
     the clock to [until]; otherwise every cancelled event would have
     been popped, the last of them at [tombstone]. *)
  if !fired < budget && t.clock < horizon then
    match until with
    | Some h when pending t > 0 || t.tombstone > h -> t.clock <- h
    | _ -> if pending t = 0 && t.tombstone > t.clock then t.clock <- t.tombstone

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
