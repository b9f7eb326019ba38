(* Events live in slots: parallel arrays hold each scheduled event's
   scheduling [seq], the causal frontier captured when it was scheduled,
   its action and its deadline. Every pending event waits in a hashed
   timing wheel: [wheel_size] buckets, each [1 lsl bucket_bits] us of
   virtual time wide, and an event due at tick [k] (its deadline shifted
   right by [bucket_bits]) waits in bucket [k land wheel_mask], however
   many laps ahead [k] is. A bucket is a circular chain of slots linked
   through [slot_next] and sorted by (time, seq); the wheel stores its
   tail, whose successor is its head. A new event has the largest seq,
   so it goes after every entry due no later than it; for same-time
   bursts and rising deadlines that is the tail, reached in O(1). Other
   inserts walk the chain from its head.

   Events scheduled with [schedule_first] (fault actions) take their
   seqs from a band below every other event's: [1] up to [first_band],
   while the others count up from [first_band]. So at its instant a
   first event fires before every other event, whenever either was
   scheduled, and first events keep their own scheduling order. Their
   inserts compare (time, seq) along the chain; nothing else does.

   Most events are due within one lap (about 1.05 s): network
   deliveries, RPC timeouts, periodic ticks. A few are due later
   (pre-scheduled fault-plan and workload actions, heals near
   [max_int / 2]); they share their bucket with nearer ticks, behind
   them in the chain. No pending event's tick is below the [cursor]: an
   insert below it, or into an empty queue, lowers it. [next] scans the
   ticks from the cursor for at most one lap, for the first whose
   bucket's head is due at that very tick; a head due later in its
   bucket is at least a lap ahead. If a whole lap finds none, every
   pending event is at least a lap ahead, and the earliest bucket head
   is the next event. Heads of different buckets differ in tick, so
   events fire in the total (time, seq) order, [seq] being unique.

   An event that fires or is cancelled leaves its bucket and frees its
   slot at once: its seq becomes [free], so a handle to it no longer
   matches, and its action becomes [ignore], so the closure is
   collectable. Free slots form a list threaded through [slot_next].
   Once the arrays have grown, scheduling, firing and cancelling
   allocate nothing.

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

(* First events take the seqs below [first_band], every other event
   those above it. *)
let first_band = 1 lsl 20

(* Trace ids start at 1, so 0 encodes "no cause" without an option. *)
let no_cause = Trace.no_cause

(* A tick is a deadline shifted right by [bucket_bits]: 4,096 us. One
   lap, [wheel_size] ticks, is 1,048,576 us, so the events due within a
   lap, a 1 s RPC timeout among them, hold one tick per bucket. At 256
   words the bucket array is the largest block the minor heap takes. *)
let bucket_bits = 12

let wheel_size = 256

let wheel_mask = wheel_size - 1

type t = {
  mutable clock : int;
  mutable seq : int;  (* the last seq taken above [first_band] *)
  mutable first_seq : int;  (* the last seq taken below it *)
  mutable slot_seq : int array;
  mutable slot_cause : int array;
  mutable slot_action : (unit -> unit) array;
  mutable slot_time : int array;
  mutable slot_next : int array;  (* pending: next in its bucket; free: next free, or -1 *)
  wheel : int array;  (* bucket tails, -1 for an empty bucket *)
  mutable cursor : int;  (* a tick, at most every pending event's *)
  mutable pending : int;
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
    seq = first_band;
    first_seq = 0;
    slot_seq = [||];
    slot_cause = [||];
    slot_action = [||];
    slot_time = [||];
    slot_next = [||];
    wheel = Array.make wheel_size (-1);
    cursor = 0;
    pending = 0;
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

(* --- the queue -------------------------------------------------------- *)

(* Whether the pending event in slot [p] fires before a new event due at
   [time]. A new event's seq is the largest of its band: a plain one
   goes after every event due no later than it, a [first] one only
   after the first events due at its instant. [precedes], [enqueue] and
   [take] are inlined into each scheduling function with a constant
   [first], so a plain event's insert compares deadlines only. *)
let[@inline] precedes t p time ~first =
  let tp = t.slot_time.(p) in
  if first then tp < time || (tp = time && t.slot_seq.(p) < first_band) else tp <= time

let[@inline] enqueue t s time ~first =
  let wheel = t.wheel and next = t.slot_next in
  let tick = time lsr bucket_bits in
  let b = tick land wheel_mask in
  let tail = wheel.(b) in
  if tail < 0 then begin
    next.(s) <- s;
    wheel.(b) <- s
  end
  else if precedes t tail time ~first then begin
    next.(s) <- next.(tail);
    next.(tail) <- s;
    wheel.(b) <- s
  end
  else begin
    (* The tail fires later, so this walk from the head stops before
       it, at the last entry that fires before the new one. *)
    let p = ref tail in
    while precedes t next.(!p) time ~first do
      p := next.(!p)
    done;
    next.(s) <- next.(!p);
    next.(!p) <- s
  end;
  if t.pending = 0 || tick < t.cursor then t.cursor <- tick;
  t.pending <- t.pending + 1

(* Takes slot [s] out of its bucket. A chain is singly linked, so this
   walks it from the tail to [s]'s predecessor: one step for the head,
   which is the tail's successor and the only entry that fires. *)
let unlink t s =
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
  t.pending <- t.pending - 1

(* The slot of the next event to fire, or -1 when none is pending. Moves
   the cursor to its tick. *)
let next t =
  if t.pending = 0 then -1
  else begin
    let wheel = t.wheel and next = t.slot_next and time = t.slot_time in
    let c = ref t.cursor and s = ref (-1) in
    let stop = !c + wheel_size in
    while !s < 0 && !c < stop do
      let tail = wheel.(!c land wheel_mask) in
      if tail >= 0 && time.(next.(tail)) lsr bucket_bits = !c then s := next.(tail) else incr c
    done;
    if !s < 0 then begin
      (* Every pending event is a lap or more past the cursor: the
         earliest bucket head fires next. *)
      for b = 0 to wheel_mask do
        let tail = wheel.(b) in
        if tail >= 0 && (!s < 0 || time.(next.(tail)) < time.(!s)) then s := next.(tail)
      done;
      c := time.(!s) lsr bucket_bits
    end;
    t.cursor <- !c;
    !s
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

(* Fills a free slot with a new event; returns the slot. *)
let[@inline] take t seq ~time action =
  if t.free_slot < 0 then grow t;
  let s = t.free_slot in
  t.free_slot <- t.slot_next.(s);
  t.slot_seq.(s) <- seq;
  t.slot_cause.(s) <- t.cause;
  t.slot_action.(s) <- action;
  t.slot_time.(s) <- (if time > t.clock then time else t.clock);
  s

let schedule_at t ~time action =
  if t.seq = max_seq then failwith "Engine: sequence numbers exhausted";
  t.seq <- t.seq + 1;
  let s = take t t.seq ~time action in
  enqueue t s t.slot_time.(s) ~first:false;
  (t.seq lsl slot_bits) lor s

let schedule_first t ~time action =
  if t.first_seq = first_band - 1 then failwith "Engine: first sequence numbers exhausted";
  t.first_seq <- t.first_seq + 1;
  let s = take t t.first_seq ~time action in
  enqueue t s t.slot_time.(s) ~first:true;
  (t.first_seq lsl slot_bits) lor s

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

let pending t = t.pending

let step t =
  let s = next t in
  if s < 0 then false
  else begin
    fire t s;
    true
  end

let run ?until t =
  let horizon = match until with Some h -> h | None -> max_int in
  let s = ref (next t) in
  while !s >= 0 && t.slot_time.(!s) <= horizon do
    fire t !s;
    s := next t
  done;
  (* Clock rule: a run ends where it would have if cancelled events
     stayed queued until popped. A live event, or a cancelled deadline,
     beyond [until] would still be pending and pulls the clock to
     [until]; otherwise every cancelled event would have been popped,
     the last of them at [tombstone]. *)
  if t.clock < horizon then
    match until with
    | Some h when t.pending > 0 || t.tombstone > h -> t.clock <- h
    | _ -> if t.pending = 0 && t.tombstone > t.clock then t.clock <- t.tombstone

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
