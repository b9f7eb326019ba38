(* Surface guard: the libraries export only what their callers use.

   Declarations come from parsing every lib/**/*.mli (nested signatures
   included); references come from parsing every .ml under lib, bin,
   bench, examples, huntbench and test, so text in comments and strings
   never counts. A reference counts for the export its module path names
   (Library.Module.name, or Module.name inside the library, through the
   file's opens and module aliases), never for a same-named export of
   another module. Four rules:
   1. every val is named outside its own module by lib, bin, bench,
      examples or huntbench, or has a line in fixtures/surface.allow;
   2. every optional parameter is passed (as ~l:, ?l:expr or ~l) to its
      function by an .ml file outside its module, tests included. A
      punned ?l forwards the caller's own option, so it counts only when
      the caller is a library function whose own ?l is passed;
   3. every allowlist line names a val or field that rule 1 or rule 4
      would otherwise fail;
   4. every field of the configuration records below is set by a
      production file outside its module, in a record literal or a
      [{ r with f = ... }] update, or has a line in
      fixtures/surface.allow. Record expressions are found by parsing,
      so patterns, types and line breaks do not matter; one counts for
      Kube.Cluster.config when it writes one of its fields qualified as
      [Kube.Cluster.f], as code outside the library must, and then every
      field it names counts as set. *)

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
(* "Library.Module" of a lib/**/*.ml or .mli. *)
let module_path rel =
  let lib = library_name (Filename.dirname rel) in
  let m = String.capitalize_ascii (Filename.basename (module_key rel)) in
  if m = lib then lib else lib ^ "." ^ m

(* A lib/**/*.mli's module path and parsed signature. *)
let interface rel =
  let lexbuf = Lexing.from_string (read rel) in
  Location.init lexbuf rel;
  (module_path rel, Parse.interface lexbuf)

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

(* A module path's possible readings in one file. Inside a library a
   sibling module is named without the library ([Streams.publish] in
   lib/kube is Kube.Streams.publish); [open M], [let open M in] and
   [M.(e)] put M's members in reach, and [module X = M] names M as X.
   Each counts from where it appears to the end of the file, and every
   reading is kept: a reference may resolve to a path that does not
   exist as well, but never misses the one it means. Only modules that
   declare vals are opened or aliased, so [Alcotest.(...)] adds
   nothing. *)
type scope = {
  modules : (string list, unit) Hashtbl.t;  (* every module path with a val, libraries too *)
  mutable contexts : string list list;  (* module paths a shorter path may sit under *)
  mutable aliases : (string * string list list) list;  (* X -> its readings *)
}

let rec flatten : Longident.t -> string list option = function
  | Lident s -> Some [ s ]
  | Ldot (m, s) -> Option.map (fun m -> m @ [ s ]) (flatten m)
  | Lapply _ -> None

let readings scope path =
  let expanded =
    match path with
    | m :: rest when List.mem_assoc m scope.aliases ->
        List.map (fun target -> target @ rest) (List.assoc m scope.aliases)
    | _ -> [ path ]
  in
  List.concat_map (fun p -> p :: List.map (fun c -> c @ p) scope.contexts) expanded

(* "Library.Module.name" readings of a value identifier. *)
let value_paths scope lid =
  match flatten lid with
  | None -> []
  | Some parts ->
      let rev = List.rev parts in
      let name = List.hd rev and m = List.rev (List.tl rev) in
      List.map (fun p -> String.concat "." (p @ [ name ])) (readings scope m)

let module_readings scope (me : Parsetree.module_expr) =
  match me.pmod_desc with
  | Pmod_ident { txt; _ } ->
      Option.fold ~none:[] ~some:(readings scope) (flatten txt)
      |> List.filter (Hashtbl.mem scope.modules)
      |> List.sort_uniq compare
  | _ -> []

(* Everything one .ml file names: value paths; "path ?label" for each
   label passed to a resolved function; the forwards, pairs ("callee
   ?l", "caller ?l") for each punned [?l] that a top-level function of
   the library module [self] passes on from its own option; and (keyed
   "Module.Path.field", one key per qualifier a record uses) the fields
   its record literals and updates set. *)
let scan ~modules ~lib ~self source =
  let scope = { modules; contexts = Option.to_list (Option.map (fun l -> [ l ]) lib); aliases = [] } in
  let vals = ref [] and labels = ref [] and forwards = ref [] and fields = ref [] in
  let enclosing = ref None in
  let open_ me =
    List.iter
      (fun m -> if not (List.mem m scope.contexts) then scope.contexts <- m :: scope.contexts)
      (module_readings scope me)
  in
  let alias name me =
    match (name, module_readings scope me) with
    | Some x, (_ :: _ as targets) -> scope.aliases <- (x, targets) :: scope.aliases
    | _ -> ()
  in
  let expr (self : Ast_iterator.iterator) (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> vals := value_paths scope txt @ !vals
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
        let fns = value_paths scope txt in
        List.iter
          (fun ((label : Asttypes.arg_label), (arg : Parsetree.expression)) ->
            match (label, arg.pexp_desc) with
            | Optional l, Pexp_ident { txt = Lident v; _ } when v = l ->
                Option.iter
                  (fun caller ->
                    List.iter (fun f -> forwards := (f ^ " ?" ^ l, caller ^ " ?" ^ l) :: !forwards) fns)
                  !enclosing
            | (Labelled l | Optional l), _ ->
                List.iter (fun f -> labels := (f ^ " ?" ^ l) :: !labels) fns
            | Nolabel, _ -> ())
          args
    | Pexp_open (od, _) -> open_ od.popen_expr
    | Pexp_letmodule ({ txt; _ }, me, _) -> alias txt me
    | Pexp_record (record, _) ->
        let names = List.map (fun ((f : Longident.t Location.loc), _) -> f.txt) record in
        List.iter
          (function
            | Longident.Ldot (m, _) ->
                let m = String.concat "." (Longident.flatten m) in
                List.iter (fun l -> fields := (m ^ "." ^ Longident.last l) :: !fields) names
            | _ -> ())
          names
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let structure_item (it : Ast_iterator.iterator) (item : Parsetree.structure_item) =
    match item.pstr_desc with
    | Pstr_open od -> open_ od.popen_expr
    | Pstr_module { pmb_name = { txt; _ }; pmb_expr; _ } ->
        alias txt pmb_expr;
        Ast_iterator.default_iterator.structure_item it item
    | Pstr_value (_, bindings) ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            enclosing :=
              (match (self, vb.pvb_pat.ppat_desc) with
              | Some m, Ppat_var { txt; _ } -> Some (m ^ "." ^ txt)
              | _ -> None);
            it.value_binding it vb)
          bindings;
        enclosing := None
    | _ -> Ast_iterator.default_iterator.structure_item it item
  in
  let it = { Ast_iterator.default_iterator with expr; structure_item } in
  it.structure it (Parse.implementation (Lexing.from_string source));
  (!vals, !labels, !forwards, !fields)

(* Which files name each value path, pass each label to each function,
   forward each label (callee key -> caller key and file), and
   (production files only) set each qualified field. *)
type index = {
  vals : (string, string) Hashtbl.t;
  labels : (string, string) Hashtbl.t;
  forwards : (string, string * string) Hashtbl.t;
  fields : (string, string) Hashtbl.t;
}

(* Every module path that declares a val, with its enclosing ones. *)
let modules decls =
  let tbl = Hashtbl.create 256 in
  let rec enclosing acc = function
    | [] | [ _ ] -> ()
    | m :: rest ->
        let acc = acc @ [ m ] in
        Hashtbl.replace tbl acc ();
        enclosing acc rest
  in
  List.iter (fun d -> enclosing [] (String.split_on_char '.' d.path)) decls;
  tbl

let index decls =
  let modules = modules decls in
  let idx =
    {
      vals = Hashtbl.create 8192;
      labels = Hashtbl.create 1024;
      forwards = Hashtbl.create 64;
      fields = Hashtbl.create 512;
    }
  in
  let add tbl v k = if not (List.mem v (Hashtbl.find_all tbl k)) then Hashtbl.add tbl k v in
  List.iter
    (fun rel ->
      let in_lib = top_dir rel = "lib" in
      let lib = if in_lib then Some (library_name (Filename.dirname rel)) else None in
      let self = if in_lib then Some (module_path rel) else None in
      let vals, labels, forwards, fields =
        try scan ~modules ~lib ~self (read rel)
        with Syntaxerr.Error _ | Lexer.Error _ -> Alcotest.failf "%s: does not parse" rel
      in
      List.iter (add idx.vals rel) vals;
      List.iter (add idx.labels rel) labels;
      List.iter (fun (callee, caller) -> add idx.forwards (caller, rel) callee) forwards;
      if List.mem (top_dir rel) production_dirs then List.iter (add idx.fields rel) fields)
    (List.filter
       (fun rel -> Filename.check_suffix rel ".ml")
       (List.concat_map sources (production_dirs @ [ "test" ])));
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
let idx = lazy (index (Lazy.force decls))

let unreferenced () =
  let idx = Lazy.force idx in
  List.filter
    (fun d -> production (outside d (Hashtbl.find_all idx.vals d.path)) = [])
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
           match outside d (Hashtbl.find_all idx.vals d.path) with
           | [] -> "named in no other file"
           | tests -> "named only in " ^ String.concat ", " (List.sort compare tests)
         in
         Printf.sprintf "%s: %s has no production caller (%s); delete it or allowlist it in test/%s"
           d.file d.path where allow_file)
  |> fail_on "exports without a production caller"

(* A label [key] ("path ?l") of a function in module [home] is passed
   when a file outside [home] passes it, or when a function outside
   [home] forwards its own [?l] to it and that label is passed. *)
let rec label_passed idx ~home ~seen key =
  List.exists (fun rel -> module_key rel <> home) (Hashtbl.find_all idx.labels key)
  || List.exists
       (fun (caller, rel) ->
         module_key rel <> home
         && (not (List.mem caller seen))
         && label_passed idx ~home:(module_key rel) ~seen:(caller :: seen) caller)
       (Hashtbl.find_all idx.forwards key)

let test_optional_passed () =
  let idx = Lazy.force idx in
  Lazy.force decls
  |> List.concat_map (fun d ->
         List.filter_map
           (fun l ->
             let key = d.path ^ " ?" ^ l in
             if label_passed idx ~home:(module_key d.file) ~seen:[ key ] key then None
             else
               Some
                 (Printf.sprintf "%s: %s ?%s is passed by no caller outside its module; make it a constant"
                    d.file d.path l))
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

(* The resolution itself: two modules' same-named exports count
   separately, through the library a file is in, an [open] and a
   [module X = ...] alias, and a label counts only for the function it
   is passed to. *)
let test_resolution () =
  let decls = Lazy.force decls in
  let paths = List.map (fun d -> d.path) decls in
  List.iter
    (fun p -> if not (List.mem p paths) then Alcotest.failf "no val %s to resolve against" p)
    [ "Dsim.Engine.create"; "Dsim.Network.create"; "Kube.Streams.publish"; "Kube.Etcd.create" ];
  let modules = modules decls in
  let vals, labels, _, _ =
    scan ~modules ~lib:None ~self:None
      "open Dsim
module S = Kube.Streams
let _ = Engine.create ~seed:1L ()
let _ = S.publish
"
  in
  let check what expected path list = Alcotest.(check bool) (what ^ " " ^ path) expected (List.mem path list) in
  check "named" true "Dsim.Engine.create" vals;
  check "not named" false "Dsim.Network.create" vals;
  check "passed" true "Dsim.Engine.create ?seed" labels;
  check "not passed" false "Dsim.Network.create ?seed" labels;
  check "named through the alias" true "Kube.Streams.publish" vals;
  let vals, _, _, _ = scan ~modules ~lib:(Some "Kube") ~self:None "let _ = Etcd.create
" in
  check "named inside the library" true "Kube.Etcd.create" vals;
  check "not named inside the library" false "Dsim.Engine.create" vals

let suites =
  [
    ( "surface",
      [
        Alcotest.test_case "every export has a production caller or a reason" `Quick
          test_referenced;
        Alcotest.test_case "every optional parameter is passed" `Quick test_optional_passed;
        Alcotest.test_case "every allowlist line is live" `Quick test_allowlist_live;
        Alcotest.test_case "every config field is set by a workload" `Quick test_fields_set;
        Alcotest.test_case "same-named exports of two modules count separately" `Quick
          test_resolution;
      ] );
  ]
