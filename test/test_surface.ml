(* Surface guard: the libraries export only what their callers use.

   Declarations come from parsing every lib/**/*.mli (nested signatures
   included); references come from lexing every .ml/.mli under lib, bin,
   bench, examples, huntbench and test, so text in comments and strings
   never counts. Four rules:
   1. every val is named outside its own module by lib, bin, bench,
      examples or huntbench, or has a line in fixtures/surface.allow;
   2. every optional parameter is passed (as ~l:, ?l: or ~l) by an .ml
      file outside its module, tests included. A punned ?l forwards the
      caller's own option and sets nothing, so it does not count: a
      caller that computes the value it forwards writes ?l:expr;
   3. every allowlist line names a val or field that rule 1 or rule 4
      would otherwise fail;
   4. every field of the configuration records below is set by a
      production file outside its module, in a record literal or a
      [{ r with f = ... }] update, or has a line in
      fixtures/surface.allow. Record expressions are found by parsing,
      so patterns, types and line breaks do not matter; one counts for
      Kube.Cluster.config when it writes one of its fields qualified as
      [Kube.Cluster.f], as code outside the library must, and then every
      field it names counts as set.
   Vals and labels match by name alone: a common name can hide a dead
   export, but a live one never fails. *)

let root = ".."
let production_dirs = [ "lib"; "bin"; "bench"; "examples"; "huntbench" ]
let allow_file = Filename.concat "fixtures" "surface.allow"

(* Rule 4's records: the settings a workload chooses. *)
let config_records =
  [
    ("lib/kube/cluster.mli", "config");
    ("lib/hbase/cluster.mli", "config");
    ("lib/kube/etcd.mli", "replication");
  ]

(* .ml/.mli files under [dir], relative to [root]. Dune's hidden
   directories and the lint fixtures (analyzer inputs, not callers) are
   skipped. *)
let rec sources dir =
  let full = Filename.concat root dir in
  if not (Sys.file_exists full && Sys.is_directory full) then []
  else
    Sys.readdir full |> Array.to_list |> List.sort compare
    |> List.concat_map (fun entry ->
           let rel = Filename.concat dir entry in
           if Sys.is_directory (Filename.concat root rel) then
             if entry.[0] = '.' || entry.[0] = '_' || entry = "fixtures" then [] else sources rel
           else if Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli" then
             [ rel ]
           else [])

let read rel = In_channel.with_open_bin (Filename.concat root rel) In_channel.input_all

(* A module's .ml and .mli share this key ("lib/kube/informer"). *)
let module_key rel = Filename.remove_extension rel
let top_dir rel = List.hd (String.split_on_char '/' rel)

(* --- declarations --------------------------------------------------- *)

type decl = {
  file : string;  (** the .mli *)
  path : string;  (** Library.Module[.Sub].name, or Library.Module.type.field *)
  name : string;  (** as callers write it: the val's name, or Library.Module.field *)
  optional : string list;  (** optional labels of its type *)
}

let library_name dir =
  let dune = read (Filename.concat dir "dune") in
  let marker = "(name " in
  let rec find i =
    if String.sub dune i (String.length marker) = marker then i + String.length marker
    else find (i + 1)
  in
  let start = find 0 in
  String.capitalize_ascii (String.sub dune start (String.index_from dune start ')' - start))

let rec optional_labels (ty : Parsetree.core_type) =
  match ty.ptyp_desc with
  | Ptyp_arrow (Optional l, _, rest) -> l :: optional_labels rest
  | Ptyp_arrow (_, _, rest) | Ptyp_poly (_, rest) -> optional_labels rest
  | _ -> []

let rec signature_decls file prefix (sg : Parsetree.signature) =
  List.concat_map
    (fun (item : Parsetree.signature_item) ->
      match item.psig_desc with
      | Psig_value vd ->
          [
            {
              file;
              path = prefix ^ "." ^ vd.pval_name.txt;
              name = vd.pval_name.txt;
              optional = optional_labels vd.pval_type;
            };
          ]
      | Psig_module { pmd_name = { txt = Some m; _ }; pmd_type = { pmty_desc = Pmty_signature s; _ }; _ }
        ->
          signature_decls file (prefix ^ "." ^ m) s
      | _ -> [])
    sg

(* "Library.Module" of a lib/**/*.mli, and its parsed signature. *)
let interface rel =
  let lib = library_name (Filename.dirname rel) in
  let m = String.capitalize_ascii (Filename.basename (module_key rel)) in
  let lexbuf = Lexing.from_string (read rel) in
  Location.init lexbuf rel;
  ((if m = lib then lib else lib ^ "." ^ m), Parse.interface lexbuf)

let declarations () =
  List.filter (fun rel -> Filename.check_suffix rel ".mli") (sources "lib")
  |> List.concat_map (fun rel ->
         let prefix, sg = interface rel in
         signature_decls rel prefix sg)

(* The fields of [config_records], as decls with no optional labels. *)
let config_fields () =
  List.concat_map
    (fun (rel, ty) ->
      let prefix, sg = interface rel in
      List.concat_map
        (fun (item : Parsetree.signature_item) ->
          match item.psig_desc with
          | Psig_type (_, decls) ->
              List.concat_map
                (fun (td : Parsetree.type_declaration) ->
                  match td.ptype_kind with
                  | Ptype_record labels when td.ptype_name.txt = ty ->
                      List.map
                        (fun (l : Parsetree.label_declaration) ->
                          {
                            file = rel;
                            path = String.concat "." [ prefix; ty; l.pld_name.txt ];
                            name = prefix ^ "." ^ l.pld_name.txt;
                            optional = [];
                          })
                        labels
                  | _ -> [])
                decls
          | _ -> [])
        sg)
    config_records

(* --- references ----------------------------------------------------- *)

(* Every file naming an identifier, every .ml file passing a label, and
   every production .ml file setting a field of a record it qualifies
   (keyed "Module.Path.field", one key per qualifier the record uses). *)
type index = {
  idents : (string, string) Hashtbl.t;
  labels : (string, string) Hashtbl.t;
  fields : (string, string) Hashtbl.t;
}

let index () =
  let idx =
    { idents = Hashtbl.create 4096; labels = Hashtbl.create 512; fields = Hashtbl.create 512 }
  in
  let add tbl k rel = if not (List.mem rel (Hashtbl.find_all tbl k)) then Hashtbl.add tbl k rel in
  List.iter
    (fun rel ->
      let is_ml = Filename.check_suffix rel ".ml" in
      let lexbuf = Lexing.from_string (read rel) in
      Location.init lexbuf rel;
      Lexer.init ();
      let rec loop (prev : Parser.token) =
        match Lexer.token lexbuf with
        | Parser.EOF -> ()
        | tok ->
            (match (prev, tok) with
            | TILDE, LIDENT l when is_ml -> add idx.labels l rel
            | _, (LABEL l | OPTLABEL l) when is_ml -> add idx.labels l rel
            | _ -> ());
            (match tok with LIDENT s -> add idx.idents s rel | _ -> ());
            loop tok
      in
      (try loop Parser.EOF with Lexer.Error _ -> Alcotest.failf "%s: does not lex" rel);
      if is_ml && List.mem (top_dir rel) production_dirs then begin
        let lexbuf = Lexing.from_string (read rel) in
        Location.init lexbuf rel;
        let expr (self : Ast_iterator.iterator) (e : Parsetree.expression) =
          (match e.pexp_desc with
          | Pexp_record (fields, _) ->
              let labels = List.map (fun ((f : Longident.t Location.loc), _) -> f.txt) fields in
              List.iter
                (function
                  | Longident.Ldot (m, _) ->
                      let m = String.concat "." (Longident.flatten m) in
                      List.iter (fun l -> add idx.fields (m ^ "." ^ Longident.last l) rel) labels
                  | _ -> ())
                labels
          | _ -> ());
          Ast_iterator.default_iterator.expr self e
        in
        let it = { Ast_iterator.default_iterator with expr } in
        it.structure it (Parse.implementation lexbuf)
      end)
    (List.concat_map sources (production_dirs @ [ "test" ]));
  idx

let outside (d : decl) files =
  List.filter (fun rel -> module_key rel <> module_key d.file) files

let production files = List.filter (fun rel -> List.mem (top_dir rel) production_dirs) files

(* --- allowlist ------------------------------------------------------ *)

(* "Module.name  reason" lines; blank lines and # comments are skipped. *)
let allowlist () =
  In_channel.with_open_bin allow_file In_channel.input_lines
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter (fun (_, line) -> line <> "" && line.[0] <> '#')
  |> List.map (fun (n, line) ->
         match String.index_opt line ' ' with
         | Some i -> (n, String.sub line 0 i, String.trim (String.sub line i (String.length line - i)))
         | None -> (n, line, ""))

(* --- rules ---------------------------------------------------------- *)

let decls = lazy (declarations ())
let fields = lazy (config_fields ())
let idx = lazy (index ())

let unreferenced () =
  let idx = Lazy.force idx in
  List.filter
    (fun d -> production (outside d (Hashtbl.find_all idx.idents d.name)) = [])
    (Lazy.force decls)

let unset () =
  let idx = Lazy.force idx in
  List.filter
    (fun d -> production (outside d (Hashtbl.find_all idx.fields d.name)) = [])
    (Lazy.force fields)

let allowed () = List.map (fun (_, path, _) -> path) (allowlist ())

let fail_on what = function
  | [] -> ()
  | errors -> Alcotest.failf "%d %s:\n%s" (List.length errors) what (String.concat "\n" errors)

let test_referenced () =
  let decls = Lazy.force decls in
  if List.length decls < 300 || not (List.exists (fun d -> d.path = "Dsim.Engine.create") decls)
  then Alcotest.failf "scan found only %d vals in lib/**/*.mli" (List.length decls);
  let allowed = allowed () in
  let idx = Lazy.force idx in
  unreferenced ()
  |> List.filter (fun d -> not (List.mem d.path allowed))
  |> List.map (fun d ->
         let where =
           match outside d (Hashtbl.find_all idx.idents d.name) with
           | [] -> "named in no other file"
           | tests -> "named only in " ^ String.concat ", " (List.sort compare tests)
         in
         Printf.sprintf "%s: %s has no production caller (%s); delete it or allowlist it in test/%s"
           d.file d.path where allow_file)
  |> fail_on "exports without a production caller"

let test_optional_passed () =
  let idx = Lazy.force idx in
  Lazy.force decls
  |> List.concat_map (fun d ->
         List.filter_map
           (fun l ->
             if outside d (Hashtbl.find_all idx.labels l) = [] then
               Some
                 (Printf.sprintf "%s: %s ?%s is passed by no caller outside its module; make it a constant"
                    d.file d.path l)
             else None)
           d.optional)
  |> fail_on "optional parameters nobody passes"

let test_fields_set () =
  let fields = Lazy.force fields in
  if not (List.exists (fun d -> d.path = "Kube.Cluster.config.seed") fields) then
    Alcotest.failf "scan found no Kube.Cluster.config.seed among %d fields" (List.length fields);
  let allowed = allowed () in
  unset ()
  |> List.filter (fun d -> not (List.mem d.path allowed))
  |> List.map (fun d ->
         Printf.sprintf
           "%s: %s is set by no production record literal or update outside its module (one \
            that writes a field as %s); make it a constant or allowlist it in test/%s"
           d.file d.path d.name allow_file)
  |> fail_on "config fields no workload sets"

let test_allowlist_live () =
  let known = Lazy.force decls @ Lazy.force fields in
  let flagged = List.map (fun d -> d.path) (unreferenced () @ unset ()) in
  let seen = Hashtbl.create 64 in
  allowlist ()
  |> List.filter_map (fun (n, path, reason) ->
         let at = Printf.sprintf "test/%s:%d: %s" allow_file n path in
         let dup = Hashtbl.mem seen path in
         Hashtbl.replace seen path ();
         if not (List.exists (fun d -> d.path = path) known) then
           Some (at ^ " names no val in lib/**/*.mli and no checked config field")
         else if not (List.mem path flagged) then
           Some (at ^ " is used in production; delete the stale line")
         else if reason = "" then Some (at ^ " gives no reason")
         else if dup then Some (at ^ " is listed twice")
         else None)
  |> fail_on "stale allowlist lines"

let suites =
  [
    ( "surface",
      [
        Alcotest.test_case "every export has a production caller or a reason" `Quick
          test_referenced;
        Alcotest.test_case "every optional parameter is passed" `Quick test_optional_passed;
        Alcotest.test_case "every allowlist line is live" `Quick test_allowlist_live;
        Alcotest.test_case "every config field is set by a workload" `Quick test_fields_set;
      ] );
  ]
