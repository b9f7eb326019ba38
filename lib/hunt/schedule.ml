let order ?priority coverage (plans : Sieve.Planner.plan array) =
  let n = Array.length plans in
  let prio =
    match priority with
    | None -> Array.make n 0
    | Some f -> Array.init n (fun i -> f plans.(i))
  in
  let footprints =
    Array.map (fun (p : Sieve.Planner.plan) -> Sieve.Coverage.footprint coverage p.strategy) plans
  in
  let gain = Array.map (Sieve.Coverage.fresh coverage) footprints in
  (* [covered] when gain.(i) was computed: the marked set only grows, so
     an unchanged count means the cached gain is still exact. *)
  let stamp = Array.make n (Sieve.Coverage.covered coverage) in
  let above i j =
    prio.(i) > prio.(j)
    || (prio.(i) = prio.(j) && (gain.(i) > gain.(j) || (gain.(i) = gain.(j) && i < j)))
  in
  (* Binary max-heap of pending candidates under [above]. *)
  let heap = Array.init n Fun.id in
  let size = ref n in
  let rec sift k =
    let l = (2 * k) + 1 and r = (2 * k) + 2 in
    let top = if l < !size && above heap.(l) heap.(k) then l else k in
    let top = if r < !size && above heap.(r) heap.(top) then r else top in
    if top <> k then begin
      let x = heap.(k) in
      heap.(k) <- heap.(top);
      heap.(top) <- x;
      sift top
    end
  in
  for k = (n / 2) - 1 downto 0 do
    sift k
  done;
  let out = ref [] in
  while !size > 0 do
    let best = heap.(0) in
    let now = Sieve.Coverage.covered coverage in
    if stamp.(best) = now then begin
      (* Exact gain on top of upper bounds: no pending candidate beats it. *)
      Sieve.Coverage.mark coverage footprints.(best);
      out := best :: !out;
      decr size;
      heap.(0) <- heap.(!size)
    end
    else begin
      gain.(best) <- Sieve.Coverage.fresh coverage footprints.(best);
      stamp.(best) <- now
    end;
    sift 0
  done;
  List.rev !out
