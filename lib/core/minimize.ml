let halve_gap ~from ~until = from + ((until - from) / 2)

(* Strictly smaller variants of one node. Time windows shrink from both
   ends; magnitudes halve; combos lose parts. *)
let rec shrink_candidates strategy =
  match strategy with
  | Strategy.No_perturbation -> []
  | Strategy.Combo parts ->
      let drop_one =
        List.mapi
          (fun i _ ->
            let rest = List.filteri (fun j _ -> j <> i) parts in
            match rest with [ single ] -> single | rest -> Strategy.Combo rest)
          parts
      in
      let shrink_one =
        List.concat
          (List.mapi
             (fun i part ->
               List.map
                 (fun part' ->
                   Strategy.Combo (List.mapi (fun j p -> if j = i then part' else p) parts))
                 (shrink_candidates part))
             parts)
      in
      drop_one @ shrink_one
  | Strategy.Drop_events ({ from; until; _ } as d) ->
      let narrower = halve_gap ~from ~until in
      (if until - from > 200_000 then
         [
           Strategy.Drop_events { d with until = narrower };
           Strategy.Drop_events { d with from = narrower };
         ]
       else [])
      @
      (match d.matching.Strategy.limit with
      | None -> [ Strategy.Drop_events { d with matching = { d.matching with Strategy.limit = Some 1 } } ]
      | Some l when l > 1 ->
          [ Strategy.Drop_events { d with matching = { d.matching with Strategy.limit = Some (l / 2) } } ]
      | Some _ -> [])
  | Strategy.Delay_stream ({ from; until; extra; _ } as d) ->
      (if until - from > 200_000 then
         let narrower = halve_gap ~from ~until in
         [
           Strategy.Delay_stream { d with until = narrower };
           Strategy.Delay_stream { d with from = narrower };
         ]
       else [])
      @ (if extra > 100_000 then [ Strategy.Delay_stream { d with extra = extra / 2 } ]
         else [])
  | Strategy.Crash_restart ({ downtime; _ } as c) ->
      if downtime > 50_000 then
        [ Strategy.Crash_restart { c with downtime = downtime / 2 } ]
      else []
  | Strategy.Partition_window ({ from; until; _ } as p) ->
      if until = max_int then
        (* Unbounded cuts shrink to something finite first. *)
        [ Strategy.Partition_window { p with until = from + 8_000_000 } ]
      else if until - from > 200_000 then
        [
          Strategy.Partition_window { p with until = halve_gap ~from ~until };
          Strategy.Partition_window { p with from = halve_gap ~from ~until };
        ]
      else []

(* A repeat still counts as an execution, so the budget and the returned
   count are those of a loop that re-ran every candidate. *)
let greedy ~budget ~fails strategy =
  let verdicts = Hashtbl.create 64 in
  let fails strategy =
    match Hashtbl.find_opt verdicts strategy with
    | Some verdict -> verdict
    | None ->
        let verdict = fails strategy in
        Hashtbl.add verdicts strategy verdict;
        verdict
  in
  let executions = ref 1 in
  if not (fails strategy) then (strategy, !executions)
  else begin
    let current = ref strategy in
    let progress = ref true in
    while !progress && !executions < budget do
      progress := false;
      let candidates = shrink_candidates !current in
      let rec try_candidates = function
        | [] -> ()
        | candidate :: rest ->
            if !executions >= budget then ()
            else begin
              incr executions;
              if fails candidate then begin
                current := candidate;
                progress := true
              end
              else try_candidates rest
            end
      in
      try_candidates candidates
    done;
    (!current, !executions)
  end

type shrunk = {
  test : Runner.test;
  executions : int;
  simulated : int;
  forked : int;
  stopped : int;
}

let shrink ~prefix ~test ~target ~budget ~exposed =
  let simulated = ref 0 and forked = ref 0 and stopped = ref 0 in
  (* The greedy loop evaluates the test's own strategy first, and only
     then fresh candidates: with [exposed], that first verdict is the
     caller's. *)
  let fails strategy =
    (exposed && strategy == test.Runner.strategy)
    ||
    let outcome = Runner.run_test ?prefix ~stop_at:target { test with Runner.strategy } in
    incr simulated;
    if outcome.Runner.forked then incr forked;
    if outcome.Runner.stopped then incr stopped;
    List.exists (fun (_, v) -> target v) outcome.Runner.violations
  in
  let strategy, executions = greedy ~budget ~fails test.Runner.strategy in
  {
    test = { test with Runner.strategy };
    executions;
    simulated = !simulated;
    forked = !forked;
    stopped = !stopped;
  }

let minimize ~test ~target ?(budget = 200) () =
  let shrunk = shrink ~prefix:None ~test ~target ~budget ~exposed:false in
  (shrunk.test, shrunk.executions)
