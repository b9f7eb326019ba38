let map_ordered (type b) ~jobs ~(tasks : 'a array) ~(f : int -> 'a -> b)
    ~(emit : int -> b -> unit) =
  let n = Array.length tasks in
  if n = 0 then ()
  else if jobs <= 1 then
    (* Each task starts on an empty minor heap, so a trial whose world
       fits there dies there: no minor collection lands mid-trial to
       promote it, and no major collection has to mark and sweep it.
       The parallel branch must not do this: in OCaml 5 a minor
       collection stops every domain, so one worker's reset would stall
       the others. *)
    for i = 0 to n - 1 do
      Gc.minor ();
      emit i (f i tasks.(i))
    done
  else begin
    let mutex = Mutex.create () in
    let completed = Condition.create () in
    let next = ref 0 in
    let results : b option array = Array.make n None in
    let failure : exn option ref = ref None in
    let worker () =
      let rec loop () =
        Mutex.lock mutex;
        let i = !next in
        if i >= n || !failure <> None then Mutex.unlock mutex
        else begin
          incr next;
          Mutex.unlock mutex;
          (match f i tasks.(i) with
          | result ->
              Mutex.lock mutex;
              results.(i) <- Some result;
              Condition.broadcast completed;
              Mutex.unlock mutex
          | exception exn ->
              Mutex.lock mutex;
              if !failure = None then failure := Some exn;
              Condition.broadcast completed;
              Mutex.unlock mutex);
          loop ()
        end
      in
      loop ()
    in
    let domains = List.init (min jobs n) (fun _ -> Domain.spawn worker) in
    (* Under [mutex]: wait until a worker failed or task [i] completed. *)
    let rec await i =
      match (!failure, results.(i)) with
      | Some exn, _ -> Error exn
      | None, Some result -> Ok result
      | None, None ->
          Condition.wait completed mutex;
          await i
    in
    let raised =
      try
        for i = 0 to n - 1 do
          Mutex.lock mutex;
          let outcome = await i in
          results.(i) <- None;
          Mutex.unlock mutex;
          match outcome with Error exn -> raise exn | Ok result -> emit i result
        done;
        None
      with exn ->
        (* Let workers drain: claiming is cheap and each claimed task
           completes, so join below terminates. *)
        Mutex.lock mutex;
        if !failure = None then failure := Some exn;
        Mutex.unlock mutex;
        Some exn
    in
    List.iter Domain.join domains;
    match raised with Some exn -> raise exn | None -> ()
  end
