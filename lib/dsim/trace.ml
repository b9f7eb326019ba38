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

(* Live entries sit in recording order, so their ids ascend; for a
   trace the engine wrote they are also dense, which makes {!find} index
   arithmetic. Free slots hold [vacant]. *)
type t = {
  mutable buf : entry array;
  mutable start : int;  (* physical index of the oldest live entry *)
  mutable len : int;
  capacity : int option;
  mutable next_id : int;
  mutable dropped : int;
}

let vacant = { id = 0; time = 0; actor = ""; kind = ""; detail = ""; cause = None }

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

let emit t ~time ~actor ~kind ?cause detail =
  let id = t.next_id in
  t.next_id <- id + 1;
  push t { id; time; actor; kind; detail; cause };
  id

let record t ~time ~actor ~kind ?cause detail =
  ignore (emit t ~time ~actor ~kind ?cause detail)

let nth_live t i = t.buf.((t.start + i) mod Array.length t.buf)

let entries t = List.init t.len (nth_live t)

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

(* Direct offset from the oldest live id; an imported trace with gaps
   misses it and falls back to binary search over the ascending ids. *)
let find t ~id =
  if t.len = 0 then None
  else begin
    let i = id - (nth_live t 0).id in
    if i >= 0 && i < t.len && (nth_live t i).id = id then Some (nth_live t i)
    else begin
      let rec search lo hi =
        if lo >= hi then None
        else begin
          let mid = (lo + hi) / 2 in
          let e = nth_live t mid in
          if e.id = id then Some e else if e.id < id then search (mid + 1) hi else search lo mid
        end
      in
      search 0 t.len
    end
  end

let find_first t ~kind =
  let rec go i =
    if i >= t.len then None
    else
      let e = nth_live t i in
      if String.equal e.kind kind then Some e else go (i + 1)
  in
  go 0

let find_all t ~kind = List.filter (fun e -> String.equal e.kind kind) (entries t)

let filter t f = List.filter f (entries t)

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
          | Some c -> Ok { id; time; actor; kind; detail; cause = Some c }
          | None -> Error "trace entry: \"cause\" must be an integer or null")
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
                push t e;
                t.next_id <- e.id + 1))
    (String.split_on_char '\n' input);
  match !err with Some msg -> Error msg | None -> Ok t

let pp ppf t =
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_entry e) (entries t)
