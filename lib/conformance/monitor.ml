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

(* A stream's base — its consumer, the '@generation' suffix stripped —
   with the highest frontier any of its generations reached. *)
type base = { mutable max_frontier : int }

type stream = { mutable frontier : int; base : base }

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

module Sset = Set.Make (String)

(* What the last completed {!check_state} of one cache left behind. *)
type subject = {
  mutable s_prefix : string option;
  mutable s_rev : int;  (* its claimed revision *)
  mutable whole : bool;  (* the cache was replaced wholesale since *)
  mutable touched : string list;  (* keys whose binding changed since; may repeat *)
  mutable bad : Sset.t;  (* keys whose cached binding is inauthentic *)
  mutable unequal : Sset.t;  (* keys whose binding differs from the committed one *)
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
  subjects : (string, subject) Hashtbl.t;
  seen : (code * string, unit) Hashtbl.t;
  mutable violations : violation list;  (* newest first *)
  mutable total : int;
  (* Divergence-point record, one per base stream (the '@generation'
     suffix stripped, so a re-listed informer keeps its record): the
     first delivery where the stream's observed (H', S') left the
     committed subsequence. *)
  divs : (string, divergence) Hashtbl.t;
  mutable divs_order : divergence list;  (* newest first *)
  bases : (string, base) Hashtbl.t;  (* base stream name -> its record *)
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
    subjects = Hashtbl.create 32;
    seen = Hashtbl.create 16;
    violations = [];
    total = 0;
    divs = Hashtbl.create 8;
    divs_order = [];
    bases = Hashtbl.create 32;
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

let note_frontier t s rev = if t.track && rev > s.base.max_frontier then s.base.max_frontier <- rev

let base_frontier t stream =
  match Hashtbl.find_opt t.bases (base_of stream) with Some b -> b.max_frontier | None -> 0

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
  match Hashtbl.find t.streams name with
  | s -> s
  | exception Not_found ->
      let base_name = base_of name in
      let base =
        match Hashtbl.find t.bases base_name with
        | b -> b
        | exception Not_found ->
            let b = { max_frontier = 0 } in
            Hashtbl.add t.bases base_name b;
            b
      in
      let s = { frontier = 0; base } in
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
    note_frontier t s rev
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
    note_frontier t s rev
  end

let bindings_under prefix state =
  match prefix with
  | None -> History.State.bindings state
  | Some prefix -> History.State.bindings_with_prefix state ~prefix

(* Structural equality, short-cut when a cached value is the very value
   of the committed event it was delivered from. *)
let same_value a b = a == b || a = b

(* Every binding a view exposes must trace to a committed create/update:
   true under any fault we can inject (drops lose events and stale lists
   resurrect old states, but neither invents a binding), so this stays on
   even when strict mode is off. [None] for an authentic binding, else
   the code and the report text; allocates only for a bad binding. *)
let binding_fault t ~rev key (value, mod_rev) =
  if mod_rev > rev then
    Some
      ( Future_rev,
        Printf.sprintf "binding %s carries mod-revision %d beyond the claimed revision %d" key
          mod_rev rev )
  else if mod_rev > t.n_revs then
    Some
      ( Future_rev,
        Printf.sprintf "binding %s carries mod-revision %d beyond the committed %d" key mod_rev
          t.n_revs )
  else if mod_rev < 1 then
    Some
      (State_divergence, Printf.sprintf "binding %s carries impossible mod-revision %d" key mod_rev)
  else
    let e = event_at t mod_rev in
    if
      (not (String.equal e.History.Event.key key))
      || e.History.Event.op = History.Event.Delete
      || match e.History.Event.value with Some v -> not (same_value v value) | None -> true
    then
      Some
        ( State_divergence,
          Printf.sprintf "binding %s@%d does not match committed %s" key mod_rev
            (History.Event.describe e) )
    else None

let touch t ~subject key =
  match Hashtbl.find t.subjects subject with
  | s -> if not s.whole then s.touched <- key :: s.touched
  | exception Not_found -> ()

let touch_all t ~subject =
  match Hashtbl.find t.subjects subject with
  | s ->
      s.whole <- true;
      s.touched <- []
  | exception Not_found -> ()

(* The strict-equality report: a full diff of the two sorted binding
   lists, taken only once the kept count says they differ. *)
let report_unequal t ~subject ?prefix ~rev state =
  let expected = bindings_under prefix (state_at t rev) in
  let actual = bindings_under prefix state in
  let rec count missing extra e a =
    match e, a with
    | [], rest -> (missing, extra + List.length rest)
    | rest, [] -> (missing + List.length rest, extra)
    | (ke, _) :: e', (ka, _) :: a' ->
        let c = String.compare ke ka in
        if c = 0 then count missing extra e' a'
        else if c < 0 then count (missing + 1) extra e' a
        else count missing (extra + 1) e a'
  in
  let missing, extra = count 0 0 expected actual in
  report t ~code:State_divergence ~subject ~rev
    (Printf.sprintf
       "cache at claimed revision %d differs from the committed state (%d bindings vs %d \
        expected; %d missing, %d extra)"
       rev (List.length actual) (List.length expected) missing extra)

let same_binding cached committed =
  match cached, committed with
  | Some (v, r), Some (v', r') -> r = r' && same_value v v'
  | None, None -> true
  | Some _, None | None, Some _ -> false

(* Re-derives one key's two verdicts — authenticity of the cached
   binding, equality with the committed binding at [rev] — from scratch;
   a key outside the subject's prefix is outside its keyspace. *)
let judge_binding t s ~rev key cached committed =
  let bad =
    match cached with
    | Some binding -> ( match binding_fault t ~rev key binding with Some _ -> true | None -> false)
    | None -> false
  in
  if bad then s.bad <- Sset.add key s.bad
  else if Sset.mem key s.bad then s.bad <- Sset.remove key s.bad;
  if same_binding cached committed then begin
    if Sset.mem key s.unequal then s.unequal <- Sset.remove key s.unequal
  end
  else s.unequal <- Sset.add key s.unequal

let judge t s ~prefix ~rev state key =
  if History.Event.matches_key prefix key then
    judge_binding t s ~rev key (History.State.find state key)
      (History.State.find (state_at t rev) key)
  else judge_binding t s ~rev key None None

let rec judge_keys t s ~prefix ~rev state = function
  | [] -> ()
  | key :: keys ->
      judge t s ~prefix ~rev state key;
      judge_keys t s ~prefix ~rev state keys

(* Whether the touched keys, newest first, are exactly the keys of the
   matching committed events from [r] down to [lo] + 1 — what a faithful
   cache touches as it applies them. Then judging the interval's keys
   judges every touched key too. *)
let rec touched_interval t ~prefix touched r lo =
  if r <= lo then (match touched with [] -> true | _ :: _ -> false)
  else
    let e = event_at t r in
    if not (History.Event.matches_prefix prefix e) then
      touched_interval t ~prefix touched (r - 1) lo
    else
      match touched with
      | key :: touched when String.equal key e.History.Event.key ->
          touched_interval t ~prefix touched (r - 1) lo
      | _ :: _ | [] -> false

(* Every verdict from scratch, in folds that allocate only for a bad or
   unequal key: authenticity and equality over the cache's bindings,
   then — only if the committed state has more keys under the prefix
   than the cache shares with it — the committed keys the cache lacks. *)
let judge_all t s ~prefix ~rev state =
  let committed = state_at t rev in
  s.bad <- Sset.empty;
  s.unequal <- Sset.empty;
  let shared =
    History.State.fold
      (fun key binding shared ->
        if History.Event.matches_key prefix key then begin
          (match binding_fault t ~rev key binding with
          | Some _ -> s.bad <- Sset.add key s.bad
          | None -> ());
          match History.State.find committed key with
          | Some (v, r) ->
              if not (r = snd binding && same_value v (fst binding)) then
                s.unequal <- Sset.add key s.unequal;
              shared + 1
          | None ->
              s.unequal <- Sset.add key s.unequal;
              shared
        end
        else shared)
      state 0
  in
  let expected =
    History.State.fold
      (fun key _ n -> if History.Event.matches_key prefix key then n + 1 else n)
      committed 0
  in
  if expected > shared then
    History.State.fold
      (fun key _ () ->
        if History.Event.matches_key prefix key && not (History.State.mem state key) then
          s.unequal <- Sset.add key s.unequal)
      committed ()

(* A binding's two verdicts are functions of the binding, the claimed
   revision and the committed events up to it, which never change once
   mirrored. So between two checks a verdict can move only when (a) a
   tap changed the cached binding ({!touch}; {!touch_all} for a
   wholesale replacement), (b) a committed event on the key lies between
   the two claimed revisions, or (c) the binding is inauthentic, whose
   verdict and report text read the claimed revision and the committed
   frontier — and every inauthentic binding is re-judged anyway, since it
   is reported at every check. An authentic binding that a lower claim
   would put in the future has its own committed write in the interval,
   so (b) covers it. *)
let check_state t ~subject ?prefix ~rev state =
  if rev > t.n_revs then
    report t ~code:Future_rev ~subject ~rev
      (Printf.sprintf "cache claims revision %d; store has only committed %d" rev t.n_revs)
  else begin
    let s =
      match Hashtbl.find t.subjects subject with
      | s -> s
      | exception Not_found ->
          let s =
            { s_prefix = prefix; s_rev = 0; whole = true; touched = []; bad = Sset.empty;
              unequal = Sset.empty }
          in
          Hashtbl.add t.subjects subject s;
          s
    in
    if s.whole || not (Option.equal String.equal s.s_prefix prefix) then
      judge_all t s ~prefix ~rev state
    else begin
      let lo = Int.min s.s_rev rev and hi = Int.max s.s_rev rev in
      for r = lo + 1 to hi do
        let e = event_at t r in
        if History.Event.matches_prefix prefix e then
          judge t s ~prefix ~rev state e.History.Event.key
      done;
      if not (touched_interval t ~prefix s.touched hi lo) then
        judge_keys t s ~prefix ~rev state s.touched;
      if not (Sset.is_empty s.bad) then judge_keys t s ~prefix ~rev state (Sset.elements s.bad)
    end;
    s.s_prefix <- prefix;
    s.s_rev <- rev;
    s.whole <- false;
    s.touched <- [];
    if not (Sset.is_empty s.bad) then
      Sset.iter
        (fun key ->
          match History.State.find state key with
          | Some binding -> (
              match binding_fault t ~rev key binding with
              | Some (code, detail) -> report t ~code ~subject ~rev detail
              | None -> ())
          | None -> ())
        s.bad;
    if t.strict_mode && not (Sset.is_empty s.unequal) then
      report_unequal t ~subject ?prefix ~rev state
  end

let observe_reset t ~stream ?prefix ~rev state =
  let s = stream_of t stream in
  (* A reset is a legal discontinuity: the frontier may move backwards
     (informer time travel). The adopted state still has to be authentic
     — and, in strict mode, exactly the committed state at [rev]. *)
  (if t.track then
     let prev = s.base.max_frontier in
     if rev < prev then
       record_divergence t ~stream ~kind:Rewind ~rev ~key:(Option.value prefix ~default:"")
         ~frontier:prev
         (Printf.sprintf "re-listed at revision %d behind the stream's previous frontier %d" rev
            prev));
  s.frontier <- rev;
  note_frontier t s rev;
  touch_all t ~subject:stream;
  check_state t ~subject:stream ?prefix ~rev state

(* Pure delay never trips the frontier checks above (FIFO pipes keep the
   subsequence intact), so staleness-by-lag is reported from outside: the
   sweep in {!Hooks} measures the age of the first undelivered committed
   event and calls this when it exceeds the grace period. *)
let note_lag t ~stream ~rev ~key ~frontier detail =
  record_divergence t ~stream ~kind:Lag ~rev ~key ~frontier detail

(* Revision-domain time travel is likewise invisible to the frontier
   checks: a full-state resync is a legal reset, yet if the replica keeps
   numbering events in its own local domain the observed history has
   stepped outside the committed one. The substrate hooks detect the
   drift (they can see both numbering domains) and report it here. *)
let note_rewind t ~stream ~rev ~key detail =
  let frontier = base_frontier t stream in
  record_divergence t ~stream ~kind:Rewind ~rev ~key ~frontier detail

let frontier t ~stream =
  match Hashtbl.find_opt t.streams stream with Some s -> s.frontier | None -> 0

let first_undelivered t ?prefix ~after () = first_skipped t ?prefix ~lo:after ~hi:(t.n_revs + 1) ()

let committed_at t rev = if rev >= 1 && rev <= t.n_revs then Some (event_at t rev) else None
