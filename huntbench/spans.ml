(* In-memory span recorder for the traced run.

   A span is one call into a layer's public function, made from the
   benchmark: name, start, end, the enclosing span, the trial it belongs
   to, and the minor words allocated inside it. Spans stay in memory
   until [write]; self time (a span's duration minus its children's) is
   computed from them afterwards. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  trial : int;  (** -1 outside any trial *)
  start : float;  (** seconds since the recorder's origin *)
  stop : float;
  words : float;
}

let origin = Unix.gettimeofday ()
let recorded : span list ref = ref []
let next_id = ref 0

(* Open spans, innermost first, with the trial each belongs to. *)
let stack : (int * int) list ref = ref []

let with_span ?trial name f =
  let id = !next_id in
  incr next_id;
  let parent, inherited = match !stack with (p, t) :: _ -> (p, t) | [] -> (-1, -1) in
  let trial = Option.value trial ~default:inherited in
  stack := (id, trial) :: !stack;
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let close () =
    let stop = Unix.gettimeofday () -. origin in
    let words = Gc.minor_words () -. w0 in
    stack := List.tl !stack;
    recorded := { id; name; parent; trial; start = t0 -. origin; stop; words } :: !recorded
  in
  match f () with
  | r ->
      close ();
      r
  | exception e ->
      close ();
      raise e

let named name = List.filter (fun s -> String.equal s.name name) !recorded
let durations name = List.map (fun s -> s.stop -. s.start) (named name)
let words name = List.map (fun s -> s.words) (named name)
let total name = List.fold_left ( +. ) 0.0 (durations name)

(* Per span name: (count, total seconds, self seconds). Children run
   strictly inside their parent and never overlap each other, so the
   part of a parent they cover is the sum of their durations. *)
let self_times () =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.0 +. (s.stop -. s.start)))
    !recorded;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      let self = d -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.0 in
      let n, tot, slf = Option.value (Hashtbl.find_opt by_name s.name) ~default:(0, 0.0, 0.0) in
      Hashtbl.replace by_name s.name (n + 1, tot +. d, slf +. self))
    !recorded;
  List.sort compare (Hashtbl.fold (fun name (n, tot, slf) acc -> (name, n, tot, slf) :: acc) by_name [])

let to_json s =
  Dsim.Json.Obj
    [
      ("id", Dsim.Json.Int s.id);
      ("name", Dsim.Json.String s.name);
      ("parent", Dsim.Json.Int s.parent);
      ("trial", Dsim.Json.Int s.trial);
      ("start_us", Dsim.Json.Float (s.start *. 1e6));
      ("end_us", Dsim.Json.Float (s.stop *. 1e6));
      ("words", Dsim.Json.Float s.words);
    ]

let write path =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          output_string oc (Dsim.Json.to_string (to_json s));
          output_char oc '\n')
        (List.rev !recorded))
