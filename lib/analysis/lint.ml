(* The lint driver: turns the stale-taint engine's evidence paths and
   structural sites into findings.

   Dataflow rules (from {!Taint.result.complete} / [reproposals]):

   - stale-write            cached view -> destructive write, unguarded
   - follower-read-then-write  replica/follower read -> proposal or
                            leader write, unguarded
   - stale-region-assign    follower read -> Zk CAS on a region key
                            whose [~expected_mod_rev] lives in the
                            follower's revision domain (HBASE-3136)
   - retry-no-dedup         fresh proposal issued from an error branch
                            of another proposal's continuation, with no
                            proposal-id dedup or revision precondition

   Shape rules (from the sites the same walk collects):

   - edge-trigger           watch handler matches event constructors,
                            nothing periodically re-lists the prefix
   - zk-one-shot-watch      ZooKeeper watch handler that neither
                            re-registers the watch nor re-reads the key
                            (one-shot semantics: edge-trigger dialect)
   - stale-resync           [~on_restart] handler resumes from a
                            remembered pre-crash revision

   Every finding carries its evidence path; [sieve lint --explain]
   renders it and [Hazard.of_lint] scores per path. *)

open Parsetree

type finding = {
  rule : string;
  pattern : Sieve.Coverage.pattern;
  file : string;
  func : string;
  line : int;
  message : string;
  path : Taint.path;
}

(* Baseline keys are (file, pattern, function): stable across rule
   renames and message edits. *)
let key f =
  Printf.sprintf "%s:%s:%s" f.file (Sieve.Coverage.pattern_to_string f.pattern) f.func

let explain f = Taint.render ~file:f.file f.path

let explain_lines f = String.split_on_char '\n' (explain f)

(* ------------------------------------------------------------------ *)
(* Dataflow findings                                                   *)

let rule_of_path (p : Taint.path) =
  match (p.Taint.sink_class, p.Taint.kind) with
  | Taint.Reproposal, _ -> ("retry-no-dedup", `Staleness)
  | Taint.Region_assign, _ -> ("stale-region-assign", `Staleness)
  | _, Taint.Cache -> ("stale-write", `Staleness)
  | _, (Taint.Kv_replica | Taint.Zk_follower) -> ("follower-read-then-write", `Staleness)

let message_of_rule = function
  | "stale-write" ->
      "cached informer view reaches a destructive write with no quorum re-read or revision \
       precondition on the path (cassandra-operator-400/402 shape)"
  | "follower-read-then-write" ->
      "data read from a lagging replica reaches a write/proposal with no leader re-read or \
       revision-compare precondition (follower-read-then-write shape)"
  | "stale-region-assign" ->
      "region reassignment decided from the follower's view; the CAS revision comes from the \
       follower's own numbering domain, so it cannot guard the leader write (HBASE-3136 shape)"
  | "retry-no-dedup" ->
      "a failed proposal is retried as a fresh proposal: without proposal-id dedup the original \
       may also have applied, doubling the effect (Replicated.Kv pending discipline)"
  | _ -> ""

let dataflow_findings ~file (r : Taint.result) =
  let mk (s : Taint.summary) (p : Taint.path) =
    let rule, pattern = rule_of_path p in
    {
      rule;
      pattern;
      file;
      func = s.Taint.fn_name;
      line = p.Taint.sink.Taint.line;
      message = message_of_rule rule;
      path = p;
    }
  in
  List.map (fun (s, p) -> mk s p) r.Taint.complete
  @ List.map (fun (s, p) -> mk s p) r.Taint.reproposals

(* ------------------------------------------------------------------ *)
(* Shape findings                                                      *)

let resolve_handler (r : Taint.result) = function
  | Taint.Hinline body -> Some ("", body)
  | Taint.Hname n -> (
      match List.find_opt (fun (s : Taint.summary) -> String.equal s.Taint.fn_name n) r.Taint.funcs with
      | Some s -> Some (n, s.Taint.fn_body)
      | None -> None)
  | Taint.Habsent -> None

let matches_event_constructors body =
  let found = ref false in
  let pat (it : Ast_iterator.iterator) (p : pattern) =
    (match p.ppat_desc with
    | Ppat_construct ({ txt; _ }, _)
      when List.mem (Taint.last_of (Longident.flatten txt)) [ "Create"; "Update"; "Delete"; "Put" ]
      ->
        found := true
    | _ -> ());
    Ast_iterator.default_iterator.pat it p
  in
  let it = { Ast_iterator.default_iterator with pat } in
  it.expr it body;
  !found

let edge_trigger_findings ~file (r : Taint.result) =
  List.filter_map
    (fun (site : Taint.informer_site) ->
      match (site.Taint.i_prefix, resolve_handler r site.Taint.i_handler) with
      | Some prefix, Some (hname, body)
        when matches_event_constructors body && not (List.mem prefix r.Taint.periodic_scanned) ->
          let func = if String.equal hname "" then site.Taint.i_enclosing else hname in
          Some
            {
              rule = "edge-trigger";
              pattern = `Obs_gap;
              file;
              func;
              line = site.Taint.i_line;
              message =
                Printf.sprintf
                  "watch handler matches specific event constructors but nothing periodically \
                   re-lists %s; one dropped event desynchronizes the derived state forever \
                   (Kubernetes-56261 shape)"
                  prefix;
              path =
                {
                  Taint.kind = Taint.Cache;
                  source =
                    { Taint.line = site.Taint.i_line; what = "Informer.create with ~on_event" };
                  steps =
                    [
                      {
                        Taint.line = site.Taint.i_line;
                        what = Printf.sprintf "handler %s matches Create/Update/Delete" func;
                      };
                    ];
                  sink =
                    {
                      Taint.line = site.Taint.i_line;
                      what = "derived state updated only on event edges";
                    };
                  sink_class = Taint.Destructive;
                  missing_guard =
                    Printf.sprintf
                      "periodic re-list of %s reachable from Engine.every or Controller.every"
                      prefix;
                };
            }
      | _ -> None)
    r.Taint.informers

(* ZooKeeper watches are one-shot: a handler that neither re-registers
   the watch nor re-reads the key goes blind after the first fire. *)
let zk_watch_findings ~file (r : Taint.result) =
  let body_has pred body =
    let found = ref false in
    let expr (it : Ast_iterator.iterator) (e : expression) =
      (match e.pexp_desc with
      | Pexp_apply (fn, _) -> if pred (Taint.fn_path fn) then found := true
      | _ -> ());
      Ast_iterator.default_iterator.expr it e
    in
    let it = { Ast_iterator.default_iterator with expr } in
    it.expr it body;
    !found
  in
  List.filter_map
    (fun (site : Taint.watch_site) ->
      match resolve_handler r site.Taint.w_handler with
      | None -> None
      | Some (hname, body) ->
          let func = if String.equal hname "" then site.Taint.w_enclosing else hname in
          let reregisters = body_has Taint.is_zk_watch body in
          let rereads =
            body_has Taint.is_zk_read body
            || body_has (fun p -> List.mem (Taint.last_of p) [ "get_quorum"; "list_quorum" ]) body
          in
          let missing =
            match (reregisters, rereads) with
            | true, true -> None
            | false, false -> Some "re-register the watch and re-read the key"
            | false, true -> Some "re-register the watch (one fire consumed it)"
            | true, false -> Some "re-read the key (events between fire and re-register are lost)"
          in
          Option.map
            (fun missing ->
              {
                rule = "zk-one-shot-watch";
                pattern = `Obs_gap;
                file;
                func;
                line = site.Taint.w_line;
                message =
                  Printf.sprintf
                    "ZooKeeper watches are one-shot: the handler must %s, or every event after \
                     the first fire is silently missed (edge-trigger dialect)"
                    missing;
                path =
                  {
                    Taint.kind = Taint.Zk_follower;
                    source =
                      {
                        Taint.line = site.Taint.w_line;
                        what =
                          (match site.Taint.w_key with
                          | Some k -> Printf.sprintf "Zk watch registered on %s" k
                          | None -> "Zk watch registered");
                      };
                    steps =
                      [
                        {
                          Taint.line = site.Taint.w_line;
                          what = Printf.sprintf "handler %s fires once" func;
                        };
                      ];
                    sink =
                      { Taint.line = site.Taint.w_line; what = "watch not re-armed / key not re-read" };
                    sink_class = Taint.Destructive;
                    missing_guard = missing ^ " inside the handler";
                  };
              })
            missing)
    r.Taint.watches

let stale_resync_findings ~file (r : Taint.result) =
  let rev_tainted_expr e =
    let found = ref false in
    let expr (it : Ast_iterator.iterator) (x : expression) =
      (match x.pexp_desc with
      | Pexp_ident { txt; _ } when List.exists Taint.is_rev_name (Longident.flatten txt) ->
          found := true
      | Pexp_field (_, { txt; _ }) when Taint.is_rev_name (Taint.last_of (Longident.flatten txt))
        ->
          found := true
      | _ -> ());
      Ast_iterator.default_iterator.expr it x
    in
    let it = { Ast_iterator.default_iterator with expr } in
    it.expr it e;
    !found
  in
  let findings = ref [] in
  List.iter
    (fun (site : Taint.restart_site) ->
      match resolve_handler r site.Taint.r_handler with
      | None -> ()
      | Some (hname, body) ->
          let func = if String.equal hname "" then site.Taint.r_enclosing else hname in
          let expr (it : Ast_iterator.iterator) (e : expression) =
            (match e.pexp_desc with
            | Pexp_apply (fn, args)
              when List.mem (Taint.last_of (Taint.fn_path fn)) Taint.resync_names ->
                let tainted (l, a) =
                  (match l with
                  | Asttypes.Labelled l | Asttypes.Optional l -> Taint.is_rev_name l
                  | Asttypes.Nolabel -> false)
                  || rev_tainted_expr a
                in
                if List.exists tainted args then begin
                  let line = Taint.line_of e.pexp_loc in
                  findings :=
                    {
                      rule = "stale-resync";
                      pattern = `Time_travel;
                      file;
                      func;
                      line;
                      message =
                        "post-restart resync reuses a pre-crash resource version; the view is \
                         pinned to the old frontier instead of rediscovering the current one \
                         (Kubernetes-59848 shape)";
                      path =
                        {
                          Taint.kind = Taint.Cache;
                          source = { Taint.line; what = "pre-crash revision remembered across restart" };
                          steps = [];
                          sink =
                            {
                              Taint.line;
                              what =
                                Printf.sprintf "resync %s pinned to the remembered revision"
                                  (Taint.last_of (Taint.fn_path fn));
                            };
                          sink_class = Taint.Destructive;
                          missing_guard =
                            "generation reset: restart must re-list fresh instead of resuming \
                             from a remembered revision";
                        };
                    }
                    :: !findings
                end
            | _ -> ());
            Ast_iterator.default_iterator.expr it e
          in
          let it = { Ast_iterator.default_iterator with expr } in
          it.expr it body)
    r.Taint.restarts;
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let analyze ~file (str : structure) =
  let r = Taint.analyze str in
  dataflow_findings ~file r
  @ edge_trigger_findings ~file r
  @ zk_watch_findings ~file r
  @ stale_resync_findings ~file r

let file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | src -> (
      let lexbuf = Lexing.from_string src in
      Location.init lexbuf path;
      match Parse.implementation lexbuf with
      | exception exn -> Error (Printf.sprintf "%s: parse error (%s)" path (Printexc.to_string exn))
      | str -> Ok (analyze ~file:(Filename.basename path) str))

let files paths =
  let findings, errors =
    List.fold_left
      (fun (fs, es) path ->
        match file path with Ok f -> (f :: fs, es) | Error e -> (fs, e :: es))
      ([], []) paths
  in
  ( List.sort
      (fun a b -> match String.compare a.file b.file with 0 -> compare a.line b.line | c -> c)
      (List.concat (List.rev findings)),
    List.rev errors )

let load_baseline path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let keys = ref [] in
    (try
       while true do
         let line = input_line ic in
         let line =
           match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line
         in
         let line = String.trim line in
         if not (String.equal line "") then keys := line :: !keys
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !keys
  end

let suppress ~baseline findings =
  List.partition (fun f -> not (List.mem (key f) baseline)) findings

let save_baseline ~path findings =
  let oc = open_out path in
  output_string oc
    "# sieve lint baseline — one key per line, format file:pattern:func.\n\
     # Regenerate with: sieve lint --save-baseline.\n";
  List.iter
    (fun k -> output_string oc (k ^ "\n"))
    (List.sort_uniq String.compare (List.map key findings));
  close_out oc

let to_json f =
  Dsim.Json.Obj
    [
      ("rule", Dsim.Json.String f.rule);
      ("pattern", Dsim.Json.String (Sieve.Coverage.pattern_to_string f.pattern));
      ("file", Dsim.Json.String f.file);
      ("func", Dsim.Json.String f.func);
      ("line", Dsim.Json.Int f.line);
      ("message", Dsim.Json.String f.message);
      ("key", Dsim.Json.String (key f));
      ("path", Taint.path_to_json f.path);
    ]
