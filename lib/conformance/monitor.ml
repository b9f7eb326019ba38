type code = Density | Future_rev | Non_monotone | Gap | Content | State_divergence

let code_to_string = function
  | Density -> "density"
  | Future_rev -> "future-rev"
  | Non_monotone -> "non-monotone"
  | Gap -> "gap"
  | Content -> "content"
  | State_divergence -> "state-divergence"

type violation = { code : code; subject : string; rev : int; detail : string }

let describe v =
  Printf.sprintf "[%s] %s @%d: %s" (code_to_string v.code) v.subject v.rev v.detail

type stream = { mutable frontier : int }

type divergence_kind = Skip | Rewind | Lag

let divergence_kind_to_string = function Skip -> "skip" | Rewind -> "rewind" | Lag -> "lag"

type divergence = {
  d_stream : string;  (* base stream name, generation suffix stripped *)
  d_kind : divergence_kind;
  d_rev : int;
  d_key : string;
  d_frontier : int;
  d_detail : string;
}

type 'v t = {
  mutable strict_mode : bool;
  track : bool;
  on_violation : violation -> unit;
  (* Mirror of the committed history: the event at revision r sits at
     window offset r-1, and states.(r-1) is S after applying it. The
     mirror never compacts (snapshots are persistent maps sharing
     structure, so a snapshot per revision is cheap), which keeps every
     check an O(1) lookup even after the store compacts its own log. *)
  window : 'v History.Window.t;
  mutable states : 'v History.State.t array;
  mutable n_revs : int;
  streams : (string, stream) Hashtbl.t;
  seen : (code * string, unit) Hashtbl.t;
  mutable violations : violation list;  (* newest first *)
  mutable total : int;
  (* Divergence-point record, one per base stream (the '@generation'
     suffix stripped, so a re-listed informer keeps its record): the
     first delivery where the stream's observed (H', S') left the
     committed subsequence. *)
  divs : (string, divergence) Hashtbl.t;
  mutable divs_order : divergence list;  (* newest first *)
  base_frontiers : (string, int) Hashtbl.t;  (* base stream -> max frontier ever *)
}

let create ?(track_divergence = false) ?(on_violation = fun _ -> ()) () =
  {
    strict_mode = true;
    track = track_divergence;
    on_violation;
    window = History.Window.create ();
    states = [||];
    n_revs = 0;
    streams = Hashtbl.create 32;
    seen = Hashtbl.create 16;
    violations = [];
    total = 0;
    divs = Hashtbl.create 8;
    divs_order = [];
    base_frontiers = Hashtbl.create 32;
  }

let strict t = t.strict_mode

let relax t = t.strict_mode <- false

let tracking t = t.track

(* Generations partition a stream's life for frontier monotonicity, but
   a divergence belongs to the consumer, not the incarnation. *)
let base_of stream =
  match String.index_opt stream '@' with Some i -> String.sub stream 0 i | None -> stream

let divergences t = List.rev t.divs_order

let record_divergence t ~stream ~kind ~rev ~key ~frontier detail =
  if t.track then begin
    let base = base_of stream in
    match Hashtbl.find_opt t.divs base with
    | None ->
        let d =
          { d_stream = base; d_kind = kind; d_rev = rev; d_key = key; d_frontier = frontier;
            d_detail = detail }
        in
        Hashtbl.add t.divs base d;
        t.divs_order <- d :: t.divs_order
    | Some prior when prior.d_kind = Lag && kind = Skip ->
        (* A lagging stream whose frontier later jumps the delayed event
           was not merely slow: upgrade in place, keeping the earliest
           revision and the record's detection-order slot. *)
        let d =
          if rev <= prior.d_rev then
            { prior with d_kind = Skip; d_rev = rev; d_key = key; d_frontier = frontier;
              d_detail = detail }
          else { prior with d_kind = Skip }
        in
        Hashtbl.replace t.divs base d;
        t.divs_order <- List.map (fun e -> if e == prior then d else e) t.divs_order
    | Some prior when prior.d_kind = Lag && kind = Rewind ->
        (* A lagging stream that then re-lists into a different revision
           numbering has left the committed order entirely; the rewind
           subsumes the lag that caused it.  The rewind's own revision and
           detail carry the story, but the record keeps its slot. *)
        let d = { prior with d_kind = Rewind; d_rev = rev; d_key = key; d_frontier = frontier;
                  d_detail = detail }
        in
        Hashtbl.replace t.divs base d;
        t.divs_order <- List.map (fun e -> if e == prior then d else e) t.divs_order
    | Some _ -> ()
  end

let note_frontier t ~stream rev =
  if t.track then begin
    let base = base_of stream in
    let prev = Option.value (Hashtbl.find_opt t.base_frontiers base) ~default:0 in
    if rev > prev then Hashtbl.replace t.base_frontiers base rev
  end

let mirror_rev t = t.n_revs

let violations t = List.rev t.violations

let total t = t.total

let report t ~code ~subject ~rev detail =
  t.total <- t.total + 1;
  if not (Hashtbl.mem t.seen (code, subject)) then begin
    Hashtbl.add t.seen (code, subject) ();
    let v = { code; subject; rev; detail } in
    t.violations <- v :: t.violations;
    t.on_violation v
  end

let event_at t rev = History.Window.get t.window (rev - 1)

let state_at t rev = if rev <= 0 then History.State.empty else t.states.(rev - 1)

let push_state t state =
  let capacity = Array.length t.states in
  if t.n_revs = capacity then begin
    let next = Array.make (max 64 (2 * capacity)) state in
    Array.blit t.states 0 next 0 t.n_revs;
    t.states <- next
  end;
  t.states.(t.n_revs) <- state;
  t.n_revs <- t.n_revs + 1

let note_commit t (e : 'v History.Event.t) =
  if e.History.Event.rev <> t.n_revs + 1 then
    report t ~code:Density ~subject:"store" ~rev:e.History.Event.rev
      (Printf.sprintf "committed revision %d where %d was expected" e.History.Event.rev
         (t.n_revs + 1));
  History.Window.push t.window e;
  push_state t (History.State.apply (state_at t t.n_revs) e)

let stream_of t name =
  match Hashtbl.find_opt t.streams name with
  | Some s -> s
  | None ->
      let s = { frontier = 0 } in
      Hashtbl.add t.streams name s;
      s

let same_event (a : 'v History.Event.t) (b : 'v History.Event.t) =
  a.History.Event.rev = b.History.Event.rev
  && String.equal a.History.Event.key b.History.Event.key
  && a.History.Event.op = b.History.Event.op
  && a.History.Event.value = b.History.Event.value

(* First committed event matching [prefix] with revision in (lo, hi),
   both bounds exclusive and clamped to the mirror. *)
let first_skipped t ?prefix ~lo ~hi () =
  let hi = min hi (t.n_revs + 1) in
  let rec scan r =
    if r >= hi then None
    else
      let e = event_at t r in
      if History.Event.matches_prefix prefix e then Some e else scan (r + 1)
  in
  scan (max 1 (lo + 1))

let observe_event t ~stream ?prefix (e : 'v History.Event.t) =
  let s = stream_of t stream in
  let rev = e.History.Event.rev in
  if rev > t.n_revs then
    report t ~code:Future_rev ~subject:stream ~rev
      (Printf.sprintf "delivered event at revision %d; store has only committed %d" rev t.n_revs)
  else begin
    let committed = event_at t rev in
    if not (same_event committed e) then
      report t ~code:Content ~subject:stream ~rev
        (Printf.sprintf "delivered %s differs from committed %s" (History.Event.describe e)
           (History.Event.describe committed))
  end;
  if not (History.Event.matches_prefix prefix e) then
    report t ~code:Content ~subject:stream ~rev
      (Printf.sprintf "%s delivered outside the stream's prefix filter"
         (History.Event.describe e));
  if rev <= s.frontier then
    report t ~code:Non_monotone ~subject:stream ~rev
      (Printf.sprintf "delivered revision %d at or behind the stream frontier %d" rev s.frontier)
  else begin
    (if t.strict_mode || t.track then
       match first_skipped t ?prefix ~lo:s.frontier ~hi:rev () with
       | Some skipped ->
           if t.strict_mode then
             report t ~code:Gap ~subject:stream ~rev
               (Printf.sprintf "stream skipped committed %s" (History.Event.describe skipped));
           record_divergence t ~stream ~kind:Skip ~rev:skipped.History.Event.rev
             ~key:skipped.History.Event.key ~frontier:s.frontier
             (Printf.sprintf "delivery at revision %d jumped over committed %s" rev
                (History.Event.describe skipped))
       | None -> ());
    s.frontier <- rev;
    note_frontier t ~stream rev
  end

let observe_advance t ~stream ?prefix ~rev () =
  let s = stream_of t stream in
  if rev > t.n_revs then
    report t ~code:Future_rev ~subject:stream ~rev
      (Printf.sprintf "frontier advanced to revision %d; store has only committed %d" rev
         t.n_revs)
  else if rev > s.frontier then begin
    (if t.strict_mode || t.track then
       (* Advance means "nothing matching in (frontier, rev] was or will
          be delivered" — so anything matching there was skipped. *)
       match first_skipped t ?prefix ~lo:s.frontier ~hi:(rev + 1) () with
       | Some skipped ->
           if t.strict_mode then
             report t ~code:Gap ~subject:stream ~rev
               (Printf.sprintf "frontier advanced over committed %s"
                  (History.Event.describe skipped));
           record_divergence t ~stream ~kind:Skip ~rev:skipped.History.Event.rev
             ~key:skipped.History.Event.key ~frontier:s.frontier
             (Printf.sprintf "frontier advance to %d jumped over committed %s" rev
                (History.Event.describe skipped))
       | None -> ());
    s.frontier <- rev;
    note_frontier t ~stream rev
  end

let bindings_under prefix state =
  match prefix with
  | None -> History.State.bindings state
  | Some prefix -> History.State.bindings_with_prefix state ~prefix

(* Every binding a view exposes must trace to a committed create/update:
   true under any fault we can inject (drops lose events and stale lists
   resurrect old states, but neither invents a binding), so this stays on
   even when strict mode is off. *)
let check_bindings t ~subject ?prefix ~rev state =
  List.iter
    (fun (key, (value, mod_rev)) ->
      if mod_rev > rev then
        report t ~code:Future_rev ~subject ~rev
          (Printf.sprintf "binding %s carries mod-revision %d beyond the claimed revision %d" key
             mod_rev rev)
      else if mod_rev > t.n_revs then
        report t ~code:Future_rev ~subject ~rev
          (Printf.sprintf "binding %s carries mod-revision %d beyond the committed %d" key mod_rev
             t.n_revs)
      else if mod_rev < 1 then
        report t ~code:State_divergence ~subject ~rev
          (Printf.sprintf "binding %s carries impossible mod-revision %d" key mod_rev)
      else
        let e = event_at t mod_rev in
        if
          (not (String.equal e.History.Event.key key))
          || e.History.Event.op = History.Event.Delete
          || e.History.Event.value <> Some value
        then
          report t ~code:State_divergence ~subject ~rev
            (Printf.sprintf "binding %s@%d does not match committed %s" key mod_rev
               (History.Event.describe e)))
    (bindings_under prefix state)

let check_state t ~subject ?prefix ~rev state =
  if rev > t.n_revs then
    report t ~code:Future_rev ~subject ~rev
      (Printf.sprintf "cache claims revision %d; store has only committed %d" rev t.n_revs)
  else begin
    check_bindings t ~subject ?prefix ~rev state;
    if t.strict_mode then begin
      let expected = bindings_under prefix (state_at t rev) in
      let actual = bindings_under prefix state in
      if expected <> actual then begin
        let missing =
          List.filter (fun (k, _) -> not (List.mem_assoc k actual)) expected |> List.length
        and extra =
          List.filter (fun (k, _) -> not (List.mem_assoc k expected)) actual |> List.length
        in
        report t ~code:State_divergence ~subject ~rev
          (Printf.sprintf
             "cache at claimed revision %d differs from the committed state (%d bindings vs %d \
              expected; %d missing, %d extra)"
             rev (List.length actual) (List.length expected) missing extra)
      end
    end
  end

let observe_reset t ~stream ?prefix ~rev state =
  let s = stream_of t stream in
  (* A reset is a legal discontinuity: the frontier may move backwards
     (informer time travel). The adopted state still has to be authentic
     — and, in strict mode, exactly the committed state at [rev]. *)
  (if t.track then
     let prev = Option.value (Hashtbl.find_opt t.base_frontiers (base_of stream)) ~default:0 in
     if rev < prev then
       record_divergence t ~stream ~kind:Rewind ~rev ~key:(Option.value prefix ~default:"")
         ~frontier:prev
         (Printf.sprintf "re-listed at revision %d behind the stream's previous frontier %d" rev
            prev));
  s.frontier <- rev;
  note_frontier t ~stream rev;
  check_state t ~subject:stream ?prefix ~rev state

(* Pure delay never trips the frontier checks above (FIFO pipes keep the
   subsequence intact), so staleness-by-lag is reported from outside: the
   sweep in {!Hooks} measures the age of the first undelivered committed
   event and calls this when it exceeds the grace period. *)
let note_lag t ~stream ~rev ~key detail =
  let frontier =
    Option.value (Hashtbl.find_opt t.base_frontiers (base_of stream)) ~default:0
  in
  record_divergence t ~stream ~kind:Lag ~rev ~key ~frontier detail

(* Revision-domain time travel is likewise invisible to the frontier
   checks: a full-state resync is a legal reset, yet if the replica keeps
   numbering events in its own local domain the observed history has
   stepped outside the committed one. The substrate hooks detect the
   drift (they can see both numbering domains) and report it here. *)
let note_rewind t ~stream ~rev ~key detail =
  let frontier =
    Option.value (Hashtbl.find_opt t.base_frontiers (base_of stream)) ~default:0
  in
  record_divergence t ~stream ~kind:Rewind ~rev ~key ~frontier detail

let first_undelivered t ?prefix ~after () = first_skipped t ?prefix ~lo:after ~hi:(t.n_revs + 1) ()

let committed_at t rev = if rev >= 1 && rev <= t.n_revs then Some (event_at t rev) else None
