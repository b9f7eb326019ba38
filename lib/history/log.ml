(* Revisions are assigned densely (1, 2, 3, ...), so the retained events
   are exactly the revisions in (compacted_rev, rev] and the event with
   revision r lives at window offset r - compacted_rev - 1. Locating a
   revision is therefore index arithmetic — the degenerate case of a
   binary search over a sorted revision column — and [since] is a
   sub-window slice, O(k) in the answer size instead of a full filter. *)

type 'v t = {
  window : 'v Window.t;
  mutable rev : int;
  mutable compacted_rev : int;
  mutable state : 'v State.t;
}

let create () = { window = Window.create (); rev = 0; compacted_rev = 0; state = State.empty }

let append t ~key ~op value =
  t.rev <- t.rev + 1;
  let event = Event.make ~rev:t.rev ~key ~op value in
  Window.push t.window event;
  t.state <- State.apply t.state event;
  event

let rev t = t.rev

let compacted_rev t = t.compacted_rev

let state t = t.state

let events t = Window.to_list t.window

let length t = Window.length t.window

let since t ~rev =
  if rev < t.compacted_rev then Error (`Compacted t.compacted_rev)
  else begin
    (* First retained event with revision > rev sits at this offset. *)
    let start = max 0 (rev - t.compacted_rev) in
    let out = ref [] in
    for i = Window.length t.window - 1 downto start do
      out := Window.get t.window i :: !out
    done;
    Ok !out
  end

let compact t ~before =
  let before = min before t.rev in
  if before > t.compacted_rev then begin
    Window.drop_oldest t.window (before - t.compacted_rev);
    t.compacted_rev <- before
  end

let compact_keep_last t n =
  if length t > n then compact t ~before:(t.rev - n)
