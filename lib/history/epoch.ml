let epoch_of ~granularity ~rev =
  if granularity <= 0 then invalid_arg "Epoch.epoch_of: granularity must be positive";
  (rev - 1) / granularity

let epoch_end ~granularity ~epoch = (epoch + 1) * granularity

let deliverable_frontier ~granularity ~head_rev =
  if granularity <= 0 then invalid_arg "Epoch.deliverable_frontier";
  head_rev / granularity * granularity

type 'v t = {
  granularity : int;
  deliver : 'v Event.t list -> unit;
  buffer : (int, 'v Event.t) Hashtbl.t;  (* rev -> event, not yet delivered *)
  mutable frontier : int;  (* last delivered revision *)
}

let create ~granularity ~deliver =
  if granularity <= 0 then invalid_arg "Epoch.create: granularity must be positive";
  { granularity; deliver; buffer = Hashtbl.create 64; frontier = 0 }

let buffered t = Hashtbl.length t.buffer

let delivered_frontier t = t.frontier

let epoch_complete t epoch =
  let first = (epoch * t.granularity) + 1 in
  let last = epoch_end ~granularity:t.granularity ~epoch in
  let rec all rev = rev > last || (Hashtbl.mem t.buffer rev && all (rev + 1)) in
  all first

let release_epoch t epoch =
  let first = (epoch * t.granularity) + 1 in
  let last = epoch_end ~granularity:t.granularity ~epoch in
  let batch = ref [] in
  for rev = last downto first do
    batch := Hashtbl.find t.buffer rev :: !batch;
    Hashtbl.remove t.buffer rev
  done;
  t.frontier <- last;
  t.deliver !batch

let offer t (e : 'v Event.t) =
  if e.Event.rev > t.frontier && not (Hashtbl.mem t.buffer e.Event.rev) then begin
    Hashtbl.replace t.buffer e.Event.rev e;
    let rec drain () =
      let next_epoch = epoch_of ~granularity:t.granularity ~rev:(t.frontier + 1) in
      if epoch_complete t next_epoch && Hashtbl.length t.buffer > 0 then begin
        release_epoch t next_epoch;
        drain ()
      end
    in
    drain ()
  end
