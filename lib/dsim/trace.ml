type entry = {
  id : int;
  time : int;
  actor : string;
  kind : string;
  detail : string;
  cause : int option;
}

let pp_entry ppf e =
  Format.fprintf ppf "[%8d us] %-14s %-22s %s" e.time e.actor e.kind e.detail;
  match e.cause with
  | Some c -> Format.fprintf ppf "  (#%d <- #%d)" e.id c
  | None -> Format.fprintf ppf "  (#%d)" e.id

(* What the buffer stores. A detail is either text or a renderer that
   the reads call, so a hot writer pays for a closure instead of a
   formatted string; a renderer must close only over values fixed when
   the entry is recorded, so every read renders the same bytes. The
   cause is an id, [no_cause] for none. *)
type cell =
  | Text of { id : int; time : int; actor : string; kind : string; cause : int; text : string }
  | Deferred of {
      id : int;
      time : int;
      actor : string;
      kind : string;
      cause : int;
      render : unit -> string;
    }

let no_cause = 0

let cell_id = function Text c -> c.id | Deferred c -> c.id

let cell_kind = function Text c -> c.kind | Deferred c -> c.kind

let option_of_cause c = if c = no_cause then None else Some c

let entry_of_cell = function
  | Text { id; time; actor; kind; cause; text } ->
      { id; time; actor; kind; detail = text; cause = option_of_cause cause }
  | Deferred { id; time; actor; kind; cause; render } ->
      { id; time; actor; kind; detail = render (); cause = option_of_cause cause }

(* Live cells sit in recording order, so their ids ascend; for a trace
   the engine wrote they are also dense, which makes {!find} index
   arithmetic. Free slots hold [vacant]. *)
type t = {
  mutable buf : cell array;
  mutable start : int;  (* physical index of the oldest live cell *)
  mutable len : int;
  capacity : int option;
  mutable next_id : int;
  mutable dropped : int;
}

let vacant = Text { id = 0; time = 0; actor = ""; kind = ""; cause = no_cause; text = "" }

let create ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Trace.create: capacity must be positive"
  | _ -> ());
  let initial = match capacity with Some c -> c | None -> 64 in
  { buf = Array.make initial vacant; start = 0; len = 0; capacity; next_id = 1; dropped = 0 }

let push t e =
  match t.capacity with
  | None ->
      if t.len = Array.length t.buf then begin
        let bigger = Array.make (2 * Array.length t.buf) vacant in
        Array.blit t.buf 0 bigger 0 t.len;
        t.buf <- bigger
      end;
      t.buf.(t.len) <- e;
      t.len <- t.len + 1
  | Some cap ->
      if t.len < cap then begin
        t.buf.((t.start + t.len) mod cap) <- e;
        t.len <- t.len + 1
      end
      else begin
        t.buf.(t.start) <- e;
        t.start <- (t.start + 1) mod cap;
        t.dropped <- t.dropped + 1
      end

let next_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let emit t ~time ~actor ~kind ~cause text =
  let id = next_id t in
  push t (Text { id; time; actor; kind; cause; text });
  id

let emit_deferred t ~time ~actor ~kind ~cause render =
  let id = next_id t in
  push t (Deferred { id; time; actor; kind; cause; render });
  id

let nth_cell t i = t.buf.((t.start + i) mod Array.length t.buf)

let entries t = List.init t.len (fun i -> entry_of_cell (nth_cell t i))

let length t = t.len

let recorded t = t.next_id - 1

let dropped t = t.dropped

let capacity t = t.capacity

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) vacant;
  t.start <- 0;
  t.len <- 0;
  t.next_id <- 1;
  t.dropped <- 0

(* Index of the live cell with this id: a direct offset from the oldest
   live id; an imported trace with gaps misses it and falls back to
   binary search over the ascending ids. *)
let index t ~id =
  if t.len = 0 then None
  else begin
    let i = id - cell_id (nth_cell t 0) in
    if i >= 0 && i < t.len && cell_id (nth_cell t i) = id then Some i
    else begin
      let rec search lo hi =
        if lo >= hi then None
        else begin
          let mid = (lo + hi) / 2 in
          let m = cell_id (nth_cell t mid) in
          if m = id then Some mid else if m < id then search (mid + 1) hi else search lo mid
        end
      in
      search 0 t.len
    end
  end

let find t ~id = Option.map (fun i -> entry_of_cell (nth_cell t i)) (index t ~id)

let find_first t ~kind =
  let rec go i =
    if i >= t.len then None
    else
      let c = nth_cell t i in
      if String.equal (cell_kind c) kind then Some (entry_of_cell c) else go (i + 1)
  in
  go 0

let find_all t ~kind = List.filter (fun e -> String.equal e.kind kind) (entries t)


(* Every cycle has an edge whose cause does not precede its entry, so
   stopping at such an edge bounds the walk. *)
let chain t ~id =
  let rec go acc id =
    match find t ~id with
    | None -> acc
    | Some e -> (
        let acc = e :: acc in
        match e.cause with Some c when c < e.id -> go acc c | Some _ | None -> acc)
  in
  go [] id

let entry_to_json e =
  Json.Obj
    [
      ("id", Json.Int e.id);
      ("time", Json.Int e.time);
      ("actor", Json.String e.actor);
      ("kind", Json.String e.kind);
      ("detail", Json.String e.detail);
      ("cause", match e.cause with Some c -> Json.Int c | None -> Json.Null);
    ]

let entry_of_json j =
  let int_field name = Option.bind (Json.member name j) Json.to_int in
  let str_field name = Option.bind (Json.member name j) Json.to_str in
  match (int_field "id", int_field "time", str_field "actor", str_field "kind",
         str_field "detail")
  with
  | Some id, Some time, Some actor, Some kind, Some detail -> begin
      match Json.member "cause" j with
      | None | Some Json.Null -> Ok { id; time; actor; kind; detail; cause = None }
      | Some c -> (
          match Json.to_int c with
          | Some c when c > no_cause -> Ok { id; time; actor; kind; detail; cause = Some c }
          | Some _ | None -> Error "trace entry: \"cause\" must be a positive integer or null")
    end
  | _ -> Error "trace entry: missing or ill-typed field (need id/time/actor/kind/detail)"

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Json.to_string (entry_to_json e));
      Buffer.add_char buf '\n')
    (entries t);
  Buffer.contents buf

let of_jsonl input =
  let t = create () in
  let err = ref None in
  let line_no = ref 0 in
  List.iter
    (fun line ->
      incr line_no;
      if !err = None && String.trim line <> "" then
        match Json.parse line with
        | Error msg -> err := Some (Printf.sprintf "line %d: %s" !line_no msg)
        | Ok j -> (
            match entry_of_json j with
            | Error msg -> err := Some (Printf.sprintf "line %d: %s" !line_no msg)
            | Ok e when e.id < t.next_id ->
                err :=
                  Some
                    (Printf.sprintf "line %d: trace entry id %d is not increasing (ids ascend from 1)"
                       !line_no e.id)
            | Ok e ->
                push t
                  (Text
                     {
                       id = e.id;
                       time = e.time;
                       actor = e.actor;
                       kind = e.kind;
                       cause = Option.value e.cause ~default:no_cause;
                       text = e.detail;
                     });
                t.next_id <- e.id + 1))
    (String.split_on_char '\n' input);
  match !err with Some msg -> Error msg | None -> Ok t

let pp ppf t =
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_entry e) (entries t)
