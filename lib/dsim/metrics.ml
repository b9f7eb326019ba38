(* Every metric lives in a cell owned by the registry's table for its
   kind. A handle is the cell itself, found or created once; the by-name
   functions resolve a handle per call. A cell joins snapshots on its
   first write ([written]), so resolving a handle that is never written
   adds no name. *)

type level = { mutable value : float }  (* all-float record: stored unboxed *)

type counter = { mutable count : int; mutable c_written : bool }

type gauge = { level : level; mutable g_written : bool }

type histogram = {
  mutable data : float array;
  mutable n : int;
  sum : level;
  mutable sorted : float array option;  (* cache, invalidated by observe *)
  mutable h_written : bool;
}

type series = {
  mutable times : int array;
  mutable values : float array;
  mutable len : int;
  mutable s_written : bool;
}

type t = {
  counts : (string, counter) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  series : (string, series) Hashtbl.t;
}

type registry = t

let create () =
  {
    counts = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    series = Hashtbl.create 16;
  }

let resolve tbl name fresh =
  match Hashtbl.find_opt tbl name with
  | Some cell -> cell
  | None ->
      let cell = fresh () in
      Hashtbl.replace tbl name cell;
      cell

let written_names tbl written =
  Hashtbl.fold (fun name cell acc -> if written cell then name :: acc else acc) tbl []
  |> List.sort String.compare

(* --- counters ------------------------------------------------------- *)

module Counter = struct
  type t = counter

  let resolve (m : registry) name =
    resolve m.counts name (fun () -> { count = 0; c_written = false })

  let incr c =
    c.c_written <- true;
    c.count <- c.count + 1

  let add c n =
    c.c_written <- true;
    c.count <- c.count + n
end

let incr t name = Counter.incr (Counter.resolve t name)

let add t name n = Counter.add (Counter.resolve t name) n

let count t name = match Hashtbl.find_opt t.counts name with Some c -> c.count | None -> 0

let counters t =
  List.map (fun name -> (name, count t name)) (written_names t.counts (fun c -> c.c_written))

(* --- gauges --------------------------------------------------------- *)

module Gauge = struct
  type t = gauge

  let resolve (m : registry) name =
    resolve m.gauges name (fun () -> { level = { value = 0.0 }; g_written = false })

  let set_int g n =
    g.g_written <- true;
    g.level.value <- float_of_int n

  let add g delta =
    g.g_written <- true;
    g.level.value <- g.level.value +. delta
end

let gauge t name =
  match Hashtbl.find_opt t.gauges name with Some g -> g.level.value | None -> 0.0

let gauges t =
  List.map (fun name -> (name, gauge t name)) (written_names t.gauges (fun g -> g.g_written))

(* --- histograms ----------------------------------------------------- *)

module Histogram = struct
  type t = histogram

  let resolve (m : registry) name =
    resolve m.histograms name (fun () ->
        { data = Array.make 16 0.0; n = 0; sum = { value = 0.0 }; sorted = None; h_written = false })

  let observe h sample =
    h.h_written <- true;
    if h.n = Array.length h.data then begin
      let bigger = Array.make (2 * Array.length h.data) 0.0 in
      Array.blit h.data 0 bigger 0 h.n;
      h.data <- bigger
    end;
    h.data.(h.n) <- sample;
    h.n <- h.n + 1;
    h.sum.value <- h.sum.value +. sample;
    h.sorted <- None
end

let observe t name sample = Histogram.observe (Histogram.resolve t name) sample

let samples t name =
  match Hashtbl.find_opt t.histograms name with Some h -> h.n | None -> 0

let mean t name =
  match Hashtbl.find_opt t.histograms name with
  | None -> 0.0
  | Some h -> if h.n = 0 then 0.0 else h.sum.value /. float_of_int h.n

let sorted_samples h =
  match h.sorted with
  | Some s -> s
  | None ->
      let s = Array.sub h.data 0 h.n in
      Array.sort compare s;
      h.sorted <- Some s;
      s

(* Nearest-rank with explicit edges: p clamped to [0,1], p=0 is the
   minimum, p=1 the maximum; otherwise the 1-based rank ceil(p*n). *)
let percentile t name p =
  match Hashtbl.find_opt t.histograms name with
  | None -> 0.0
  | Some h ->
      if h.n = 0 then 0.0
      else begin
        let s = sorted_samples h in
        let p = Float.min 1.0 (Float.max 0.0 p) in
        if p = 0.0 then s.(0)
        else if p = 1.0 then s.(h.n - 1)
        else begin
          let rank = int_of_float (ceil (p *. float_of_int h.n)) in
          s.(min (h.n - 1) (max 0 (rank - 1)))
        end
      end

let histograms t = written_names t.histograms (fun h -> h.h_written)

(* --- series --------------------------------------------------------- *)

module Series = struct
  type t = series

  let resolve (m : registry) name =
    resolve m.series name (fun () -> { times = [||]; values = [||]; len = 0; s_written = false })

  let grow s =
    s.s_written <- true;
    if s.len = Array.length s.times then begin
      let capacity = max 16 (2 * s.len) in
      let times = Array.make capacity 0 and values = Array.make capacity 0.0 in
      Array.blit s.times 0 times 0 s.len;
      Array.blit s.values 0 values 0 s.len;
      s.times <- times;
      s.values <- values
    end

  let sample s ~time v =
    grow s;
    s.times.(s.len) <- time;
    s.values.(s.len) <- v;
    s.len <- s.len + 1

  let sample_int s ~time n =
    grow s;
    s.times.(s.len) <- time;
    s.values.(s.len) <- float_of_int n;
    s.len <- s.len + 1
end

let sample t name ~time v = Series.sample (Series.resolve t name) ~time v

let series t name =
  match Hashtbl.find_opt t.series name with
  | Some s -> List.init s.len (fun i -> (s.times.(i), s.values.(i)))
  | None -> []

let series_names t = written_names t.series (fun s -> s.s_written)

(* --- export --------------------------------------------------------- *)

let to_json t =
  let hist_summary name =
    let h = Hashtbl.find t.histograms name in
    Json.Obj
      [
        ("count", Json.Int h.n);
        ("mean", Json.Float (mean t name));
        ("min", Json.Float (percentile t name 0.0));
        ("p50", Json.Float (percentile t name 0.5));
        ("p90", Json.Float (percentile t name 0.9));
        ("p99", Json.Float (percentile t name 0.99));
        ("max", Json.Float (percentile t name 1.0));
      ]
  in
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters t)));
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) (gauges t)));
      ( "histograms",
        Json.Obj (List.map (fun name -> (name, hist_summary name)) (histograms t)) );
      ( "series",
        Json.Obj
          (List.map
             (fun name ->
               ( name,
                 Json.List
                   (List.map
                      (fun (time, v) -> Json.List [ Json.Int time; Json.Float v ])
                      (series t name)) ))
             (series_names t)) );
    ]
