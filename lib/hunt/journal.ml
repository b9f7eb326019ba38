type violation_record = { time : int; bug : string; signature : string; detail : string }

type entry =
  | Header of { version : int; seed : int64; trials : int; cases : string list }
  | Trial of {
      trial : int;
      case : string;
      origin : string;
      seed : int64;
      strategy : string;
      violations : violation_record list;
    }
  | Finding of {
      signature : string;
      trial : int;
      case : string;
      time : int;
      bug : string;
      detail : string;
      strategy : string;
      minimized : string;
      shrink_runs : int;
    }

(* Seeds are raw 64-bit values; OCaml's [int] (and Json.Int) only holds
   63 bits, so they travel as decimal strings. *)
let json_of_seed seed = Dsim.Json.String (Int64.to_string seed)

let entry_to_json = function
  | Header { version; seed; trials; cases } ->
      Dsim.Json.Obj
        [
          ("hunt", Dsim.Json.Int version);
          ("seed", json_of_seed seed);
          ("trials", Dsim.Json.Int trials);
          ("cases", Dsim.Json.List (List.map (fun c -> Dsim.Json.String c) cases));
        ]
  | Trial { trial; case; origin; seed; strategy; violations } ->
      Dsim.Json.Obj
        [
          ("trial", Dsim.Json.Int trial);
          ("case", Dsim.Json.String case);
          ("origin", Dsim.Json.String origin);
          ("seed", json_of_seed seed);
          ("strategy", Dsim.Json.String strategy);
          ( "violations",
            Dsim.Json.List
              (List.map
                 (fun r ->
                   Dsim.Json.Obj
                     [
                       ("time", Dsim.Json.Int r.time);
                       ("bug", Dsim.Json.String r.bug);
                       ("sig", Dsim.Json.String r.signature);
                       ("detail", Dsim.Json.String r.detail);
                     ])
                 violations) );
        ]
  | Finding { signature; trial; case; time; bug; detail; strategy; minimized; shrink_runs } ->
      Dsim.Json.Obj
        [
          ("finding", Dsim.Json.String signature);
          ("trial", Dsim.Json.Int trial);
          ("case", Dsim.Json.String case);
          ("time", Dsim.Json.Int time);
          ("bug", Dsim.Json.String bug);
          ("detail", Dsim.Json.String detail);
          ("strategy", Dsim.Json.String strategy);
          ("minimized", Dsim.Json.String minimized);
          ("shrink_runs", Dsim.Json.Int shrink_runs);
        ]

let ( let* ) = Option.bind

let field_str name j = let* f = Dsim.Json.member name j in Dsim.Json.to_str f
let field_int name j = let* f = Dsim.Json.member name j in Dsim.Json.to_int f

let field_seed j =
  let* s = field_str "seed" j in
  Int64.of_string_opt s

let violation_of_json j =
  let* time = field_int "time" j in
  let* bug = field_str "bug" j in
  let* signature = field_str "sig" j in
  let* detail = field_str "detail" j in
  Some { time; bug; signature; detail }

let entry_of_json j =
  match Dsim.Json.member "hunt" j with
  | Some _ ->
      let* version = field_int "hunt" j in
      let* seed = field_seed j in
      let* trials = field_int "trials" j in
      let* cases = Dsim.Json.member "cases" j in
      let* cases = Dsim.Json.to_list cases in
      let cases = List.filter_map Dsim.Json.to_str cases in
      Some (Header { version; seed; trials; cases })
  | None -> (
      match Dsim.Json.member "finding" j with
      | Some _ ->
          let* signature = field_str "finding" j in
          let* trial = field_int "trial" j in
          let* case = field_str "case" j in
          let* time = field_int "time" j in
          let* bug = field_str "bug" j in
          let* detail = field_str "detail" j in
          let* strategy = field_str "strategy" j in
          let* minimized = field_str "minimized" j in
          let* shrink_runs = field_int "shrink_runs" j in
          Some (Finding { signature; trial; case; time; bug; detail; strategy; minimized; shrink_runs })
      | None ->
          let* trial = field_int "trial" j in
          let* case = field_str "case" j in
          let* origin = field_str "origin" j in
          let* seed = field_seed j in
          let* strategy = field_str "strategy" j in
          let* violations = Dsim.Json.member "violations" j in
          let* violations = Dsim.Json.to_list violations in
          let violations = List.filter_map violation_of_json violations in
          Some (Trial { trial; case; origin; seed; strategy; violations }))

let entry_of_line line =
  match Dsim.Json.parse line with
  | Error _ -> None
  | Ok j -> entry_of_json j

(* --- reading ------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* A record is valid only if it parses AND is newline-terminated: a
   crash mid-append leaves a partial last line, which must not count.
   Returns the decoded valid prefix and its byte length. *)
let load path =
  if not (Sys.file_exists path) then ([], 0)
  else begin
    let contents = read_file path in
    let total = String.length contents in
    let entries = ref [] in
    let valid = ref 0 in
    let pos = ref 0 in
    (try
       while !pos < total do
         match String.index_from_opt contents !pos '\n' with
         | None -> raise Exit (* unterminated tail: a torn append *)
         | Some nl ->
             let line = String.sub contents !pos (nl - !pos) in
             (match entry_of_line line with
             | None -> raise Exit (* torn or corrupt record: stop here *)
             | Some entry ->
                 entries := entry :: !entries;
                 valid := nl + 1;
                 pos := nl + 1)
       done
     with Exit -> ());
    (List.rev !entries, !valid)
  end

(* --- writing ------------------------------------------------------- *)

type writer = { oc : out_channel; path : string }

let create ~path =
  let oc = open_out_bin path in
  { oc; path }

let append w entry =
  output_string w.oc (Dsim.Json.to_string (entry_to_json entry));
  output_char w.oc '\n';
  flush w.oc

let close w = close_out w.oc

let open_resume ~path =
  let entries, valid = load path in
  (* Drop any torn tail so appends always start at a record boundary —
     this is what makes the resumed journal byte-identical to an
     uninterrupted run's. *)
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  Unix.ftruncate fd valid;
  ignore (Unix.lseek fd valid Unix.SEEK_SET);
  let oc = Unix.out_channel_of_descr fd in
  set_binary_mode_out oc true;
  (entries, { oc; path })
