(* Stale-taint dataflow core.

   Values derived from *cached* reads — informer stores, [State] views
   rebuilt from watch streams, ZooKeeper follower reads, replicated-KV
   replica reads — are tainted at their source with the flavor of
   staleness they carry. Taint propagates through let-bindings, tuple /
   record / constructor shapes, inline callbacks, and interprocedurally
   through the local call graph via per-function summaries (does the
   return value carry taint? does a parameter reach a sink?). Sinks are
   destructive writes, proposals against the replicated store, and
   ZooKeeper CAS / region-assignment writes. Recognized guards kill
   taint along the path:

   - a quorum re-read ([get_quorum] / [list_quorum]) kills every kind;
   - a revision-compare precondition ([*_if_unchanged] / [*_if_absent] /
     [~expected_mod_rev]) kills cache and replica taint — replica
     revisions live in the leader's numbering domain, so an optimistic
     precondition is sound even when the revision came from the cache —
     but NOT ZooKeeper-follower taint when the revision itself was read
     from the follower (the follower assigns its own revisions;
     see lib/hbase/zk.ml);
   - a sync leader catch-up read ([Zk.read ~sync:true]) yields fresh,
     untainted data;
   - a Section 6.2 epoch seal (a call whose name mentions [seal]) kills
     every kind.

   The engine is parse-only (compiler-libs [Parsetree], no typing): it
   under-approximates on purpose and its misses are documented in
   MODELING.md. Everything here is off the execution path — the
   simulator never calls into it. *)

open Parsetree

(* ------------------------------------------------------------------ *)
(* Names                                                               *)

let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.equal (String.sub haystack i nn) needle || go (i + 1)) in
  nn = 0 || go 0

let destructive_words = [ "delete"; "decommission"; "evict"; "drain"; "purge" ]

let is_guard_name name = contains_sub name "if_unchanged" || contains_sub name "if_absent"

let is_seal_name name = contains_sub (String.lowercase_ascii name) "seal"

let is_destructive_name name =
  (not (is_guard_name name))
  && List.exists (contains_sub (String.lowercase_ascii name)) destructive_words

let is_rev_name name =
  let n = String.lowercase_ascii name in
  contains_sub n "rev" || contains_sub n "version"

let is_quorum_name name = List.mem name [ "get_quorum"; "list_quorum" ]

let resync_names = [ "start"; "watch"; "watch_from"; "relist"; "resync"; "list_from"; "sync_from" ]

let fn_path (e : expression) =
  match e.pexp_desc with Pexp_ident { txt; _ } -> Longident.flatten txt | _ -> []

let last_of path = match List.rev path with [] -> "" | x :: _ -> x

let parent_of path =
  match List.rev path with _ :: parent :: _ -> parent | _ -> ""

let grandparent_of path =
  match List.rev path with _ :: _ :: gp :: _ -> gp | _ -> ""

let is_cached_read path =
  match List.rev path with
  | name :: parent :: _ ->
      (String.equal parent "Informer" && List.mem name [ "store"; "get" ])
      || String.equal parent "State"
         && List.mem name
              [ "find"; "get"; "mem"; "keys_with_prefix"; "iter_prefix"; "fold"; "iter" ]
  | _ -> false

(* [Replicated.Kv.route/get/range/since ~src] — the read is routed to
   whatever replica serves [src], per the configured read_mode; [route]
   hands back that replica's store, so whatever is read from it is a
   replica read too. The [~src] label is the discriminator against
   [Etcdlike.Kv.range] (leader-local). *)
let is_replica_read path args =
  String.equal (parent_of path) "Kv"
  && (not (String.equal (grandparent_of path) "Etcdlike"))
  && List.mem (last_of path) [ "route"; "get"; "range"; "since" ]
  && List.exists
       (function
         | Asttypes.Labelled "src", _ | Asttypes.Optional "src", _ -> true | _ -> false)
       args

(* Periodic tasks: the engine's own loop, and the kube components'
   shared reconcile loop on top of it. *)
let is_periodic path =
  String.equal (last_of path) "every"
  && List.exists (fun m -> List.mem m path) [ "Engine"; "Controller" ]

let is_zk_read path = String.equal (parent_of path) "Zk" && String.equal (last_of path) "read"

let is_zk_watch path =
  String.equal (parent_of path) "Zk"
  && List.mem (last_of path) [ "watch"; "watch_data"; "watch_children"; "exists_watch" ]

(* Proposal-shaped calls: replicated-store writes and client txns whose
   retry discipline matters (see retry-no-dedup). *)
let is_proposal_name path =
  let name = last_of path and parent = parent_of path in
  (List.mem parent [ "Kv"; "Zk"; "Client" ]
  && List.mem name [ "put"; "delete"; "txn"; "txn_"; "cas"; "write"; "propose"; "submit" ])
  || List.mem name [ "propose"; "submit" ]

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

let labelled_arg label args =
  List.find_map
    (fun (l, e) ->
      match l with
      | Asttypes.Labelled l when String.equal l label -> Some e
      | Asttypes.Optional l when String.equal l label -> Some e
      | _ -> None)
    args

let token_of_expr (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (last_of (Longident.flatten txt))
  | Pexp_constant (Pconst_string (s, _, _)) -> Some s
  | _ -> None

(* A literal (or literal-concat) string mentioning "region" marks a
   region-assignment key. *)
let rec mentions_region (e : expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> contains_sub s "region"
  | Pexp_apply (_, args) -> List.exists (fun (_, a) -> mentions_region a) args
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)

type kind = Cache | Kv_replica | Zk_follower

type sink_class = Destructive | Record_destroy | Region_assign | Zk_write | Proposal | Reproposal

type span = { line : int; what : string }

type path = {
  kind : kind;
  source : span;
  steps : span list;  (* source -> sink order *)
  sink : span;
  sink_class : sink_class;
  missing_guard : string;
}

let kind_to_string = function
  | Cache -> "cached-view"
  | Kv_replica -> "replica-read"
  | Zk_follower -> "follower-read"

let sink_class_to_string = function
  | Destructive -> "destructive-write"
  | Record_destroy -> "destructive-record"
  | Region_assign -> "region-assign"
  | Zk_write -> "zk-write"
  | Proposal -> "proposal"
  | Reproposal -> "re-proposal"

let missing_guard_of kind sink_class =
  match (sink_class, kind) with
  | Reproposal, _ ->
      "proposal-id dedup: resubmit the pending pid (Replicated.Kv discipline) or carry a \
       revision precondition instead of issuing a fresh proposal"
  | _, Cache ->
      "quorum re-read (get_quorum/list_quorum) or revision precondition (*_if_unchanged \
       ~expected_mod_rev)"
  | _, Kv_replica ->
      "leader-routed read (read_mode = Leader), quorum re-read, or revision-compare txn \
       precondition"
  | _, Zk_follower ->
      "sync leader catch-up read (~sync:true); a follower mod_rev cannot guard a leader CAS \
       (the follower assigns its own revisions)"

(* Which taint kinds a sink class fires on. Proposal-shaped sinks only
   fire on replica-domain taint: writing intent derived from the cache
   is the normal reconcile loop, not a bug. *)
let sink_fires sink_class kind =
  match sink_class with
  | Destructive | Record_destroy -> true
  | Region_assign | Zk_write | Proposal | Reproposal -> kind <> Cache

let max_steps = 16

let render ~file p =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "source  %s:%d  %s [%s]" file p.source.line p.source.what
       (kind_to_string p.kind));
  let steps =
    if List.length p.steps <= max_steps then p.steps
    else
      let rec take n = function x :: tl when n > 0 -> x :: take (n - 1) tl | _ -> [] in
      take max_steps p.steps @ [ { line = p.sink.line; what = "..." } ]
  in
  List.iter
    (fun s -> Buffer.add_string b (Printf.sprintf "\n   ->   %s:%d  %s" file s.line s.what))
    steps;
  Buffer.add_string b
    (Printf.sprintf "\nsink    %s:%d  %s [%s]" file p.sink.line p.sink.what
       (sink_class_to_string p.sink_class));
  Buffer.add_string b (Printf.sprintf "\nmissing guard: %s" p.missing_guard);
  Buffer.contents b

let path_to_json p =
  let span s = Dsim.Json.Obj [ ("line", Dsim.Json.Int s.line); ("what", Dsim.Json.String s.what) ] in
  Dsim.Json.Obj
    [
      ("kind", Dsim.Json.String (kind_to_string p.kind));
      ("source", span p.source);
      ("steps", Dsim.Json.List (List.map span p.steps));
      ("sink", span p.sink);
      ("sink_class", Dsim.Json.String (sink_class_to_string p.sink_class));
      ("missing_guard", Dsim.Json.String p.missing_guard);
    ]

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)

(* What a value carries: external taint (with the full path back to its
   source) or a dependence on an enclosing function parameter (with the
   steps accumulated so far — completed into a path at a call site that
   passes tainted data for that parameter). *)
type origin =
  | Ext of kind * span * span list  (* kind, source, steps in reverse *)
  | Par of string * span list  (* parameter name, steps in reverse *)

type prov = origin list

let origin_key = function
  | Ext (k, s, _) -> Printf.sprintf "e:%s:%d" (kind_to_string k) s.line
  | Par (p, _) -> "p:" ^ p

let union (a : prov) (b : prov) : prov =
  let seen = Hashtbl.create 8 in
  let keep o =
    let k = origin_key o in
    if Hashtbl.mem seen k then false
    else begin
      Hashtbl.replace seen k ();
      true
    end
  in
  let merged = List.filter keep (a @ b) in
  let rec cap n = function x :: tl when n > 0 -> x :: cap (n - 1) tl | _ -> [] in
  cap 8 merged

let add_step span (p : prov) : prov =
  List.map
    (function
      | Ext (k, s, steps) -> (
          match steps with
          | top :: _ when top.line = span.line -> Ext (k, s, steps)
          | _ -> Ext (k, s, span :: steps))
      | Par (name, steps) -> (
          match steps with
          | top :: _ when top.line = span.line -> Par (name, steps)
          | _ -> Par (name, span :: steps)))
    p

(* ------------------------------------------------------------------ *)
(* Summaries and module-level sites                                    *)

type stub = { st_steps : span list (* source -> sink order *); st_sink : span; st_class : sink_class }

type summary = {
  fn_name : string;
  fn_line : int;
  fn_body : expression;
  fn_params : (Asttypes.arg_label * string option) list;
  mutable fn_returns : (kind * span * span list) option;  (* steps in reverse *)
  mutable fn_param_sinks : (string * stub) list;  (* first stub per param *)
  mutable fn_complete : path list;
  mutable fn_calls : string list;
  mutable fn_scans : string list;
}

type handler = Hname of string | Hinline of expression | Habsent

type informer_site = {
  i_line : int;
  i_enclosing : string;
  i_prefix : string option;
  i_handler : handler;
}

type restart_site = { r_enclosing : string; r_handler : handler }

type watch_site = { w_line : int; w_enclosing : string; w_key : string option; w_handler : handler }

type result = {
  funcs : summary list;
  complete : (summary * path) list;  (* after first-combine dedup *)
  reproposals : (summary * path) list;
  informers : informer_site list;
  restarts : restart_site list;
  watches : watch_site list;
  periodic_scanned : string list;
}

module Env = Map.Make (String)

(* Guard context, threaded immutably through the walk. [kp] covers
   parameter-dependence: any recognized guard discharges a parameter's
   would-be sink (the caller's taint has been re-validated here). *)
type ctx = {
  kc : bool;  (* cache taint killed *)
  kr : bool;  (* replica taint killed *)
  kz : bool;  (* zk-follower taint killed *)
  kp : bool;  (* parameter dependence killed *)
  every : bool;  (* inside a periodic callback: Engine.every or Controller.every *)
  cont_of : span option;  (* inside a continuation of this proposal *)
  retry : span option;  (* inside an Error branch of that continuation *)
}

let ctx0 = { kc = false; kr = false; kz = false; kp = false; every = false; cont_of = None; retry = None }

let killed ctx = function Cache -> ctx.kc | Kv_replica -> ctx.kr | Zk_follower -> ctx.kz

type st = {
  summaries : (string, summary) Hashtbl.t;
  mutable cur : summary;
  mutable informers : informer_site list;
  mutable restarts : restart_site list;
  mutable watches : watch_site list;
  mutable periodic_roots : string list;
  mutable periodic_scans : string list;
  mutable reproposals : (string * path) list;  (* enclosing fn, path *)
}

let handler_of_expr (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Hname (last_of (Longident.flatten txt))
  | Pexp_apply (fn, _) -> ( match fn_path fn with [] -> Habsent | path -> Hname (last_of path))
  | Pexp_fun (_, _, _, body) -> Hinline body
  | Pexp_function _ -> Hinline e
  | _ -> Habsent

(* Bind every variable in [pat] to [prov] (value-level: components of a
   tainted aggregate are tainted). *)
let rec bind_pattern env (pat : pattern) (prov : prov) =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } -> Env.add txt prov env
  | Ppat_alias (p, { txt; _ }) -> bind_pattern (Env.add txt prov env) p prov
  | Ppat_tuple ps -> List.fold_left (fun env p -> bind_pattern env p prov) env ps
  | Ppat_construct (_, Some (_, p)) -> bind_pattern env p prov
  | Ppat_variant (_, Some p) -> bind_pattern env p prov
  | Ppat_record (fields, _) ->
      List.fold_left (fun env (_, p) -> bind_pattern env p prov) env fields
  | Ppat_or (a, b) -> bind_pattern (bind_pattern env a prov) b prov
  | Ppat_constraint (p, _) -> bind_pattern env p prov
  | Ppat_open (_, p) -> bind_pattern env p prov
  | Ppat_array ps -> List.fold_left (fun env p -> bind_pattern env p prov) env ps
  | _ -> env

(* Does a case pattern look like an error / unavailability branch? *)
let is_error_pattern (pat : pattern) =
  let found = ref false in
  let check name = if List.mem name [ "Error"; "Unavailable"; "Timeout" ] then found := true in
  let p (it : Ast_iterator.iterator) (x : pattern) =
    (match x.ppat_desc with
    | Ppat_construct ({ txt; _ }, _) -> check (last_of (Longident.flatten txt))
    | Ppat_variant (l, _) -> check l
    | _ -> ());
    Ast_iterator.default_iterator.pat it x
  in
  let it = { Ast_iterator.default_iterator with pat = p } in
  it.pat it pat;
  !found

(* Dedup evidence on a re-proposal: an explicit proposal id, a resubmit
   API, or a revision precondition all make the retry idempotent. *)
let has_dedup_evidence path args =
  let name = last_of path in
  List.exists
    (fun l -> Option.is_some (labelled_arg l args))
    [ "pid"; "proposal_id"; "dedup"; "idempotency_key" ]
  || contains_sub name "resubmit" || contains_sub name "repropose"
  || is_guard_name name
  || Option.is_some (labelled_arg "expected_mod_rev" args)

(* ------------------------------------------------------------------ *)
(* The walk                                                            *)

let record_complete st (p : path) =
  if
    not
      (List.exists
         (fun q -> q.sink.line = p.sink.line && q.kind = p.kind && q.sink_class = p.sink_class)
         st.cur.fn_complete)
  then st.cur.fn_complete <- st.cur.fn_complete @ [ p ]

let record_param_sink st param (stub : stub) =
  if not (List.exists (fun (p, _) -> String.equal p param) st.cur.fn_param_sinks) then
    st.cur.fn_param_sinks <- st.cur.fn_param_sinks @ [ (param, stub) ]

let record_returns st = function
  | [] -> ()
  | origins -> (
      match
        List.find_map (function Ext (k, s, steps) -> Some (k, s, steps) | Par _ -> None) origins
      with
      | Some _ as r when st.cur.fn_returns = None -> st.cur.fn_returns <- r
      | _ -> ())

(* Tainted data reaches a sink: complete external paths, extend
   parameter stubs. *)
let hit_sink st ctx ~sink ~cls (prov : prov) =
  List.iter
    (function
      | Ext (k, src, rsteps) ->
          if sink_fires cls k && not (killed ctx k) then
            record_complete st
              {
                kind = k;
                source = src;
                steps = List.rev rsteps;
                sink;
                sink_class = cls;
                missing_guard = missing_guard_of k cls;
              }
      | Par (param, rsteps) ->
          if not ctx.kp then
            record_param_sink st param { st_steps = List.rev rsteps; st_sink = sink; st_class = cls })
    prov

let lookup env name = match Env.find_opt name env with Some p -> p | None -> []

let scan_token st ctx tok =
  if ctx.every then begin
    if not (List.mem tok st.periodic_scans) then st.periodic_scans <- tok :: st.periodic_scans
  end
  else if not (List.mem tok st.cur.fn_scans) then st.cur.fn_scans <- st.cur.fn_scans @ [ tok ]

(* Positional/labelled argument -> callee parameter matching over
   already-evaluated arguments: labelled args match parameter labels by
   name, unlabelled args consume unlabelled parameters in order
   (unnamed parameters still consume a position). *)
let match_args params evaled =
  let positional = ref (List.filter (fun (l, _) -> l = Asttypes.Nolabel) params) in
  List.filter_map
    (fun (l, _, (prov : prov)) ->
      match l with
      | Asttypes.Nolabel -> (
          match !positional with
          | (_, name) :: rest ->
              positional := rest;
              Option.map (fun n -> (n, prov)) name
          | [] -> None)
      | Asttypes.Labelled l | Asttypes.Optional l ->
          List.find_map
            (fun (pl, name) ->
              match pl with
              | (Asttypes.Labelled pl' | Asttypes.Optional pl') when String.equal pl' l ->
                  Option.map (fun n -> (n, prov)) name
              | _ -> None)
            params)
    evaled

let rec eval st ctx env (e : expression) : prov =
  let line = line_of e.pexp_loc in
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident name; _ } -> lookup env name
  | Pexp_ident _ | Pexp_constant _ -> []
  | Pexp_let (_, vbs, body) ->
      let env =
        List.fold_left
          (fun env' vb ->
            let p = eval st ctx env vb.pvb_expr in
            let p =
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ } ->
                  add_step { line = line_of vb.pvb_loc; what = Printf.sprintf "bound to %s" txt } p
              | _ -> p
            in
            bind_pattern env' vb.pvb_pat p)
          env vbs
      in
      eval st ctx env body
  | Pexp_fun (_, _, pat, body) ->
      (* A lambda evaluated as a value: its parameters are unknown here
         (call sites bind them); walk the body for sinks and sites. *)
      ignore (eval st ctx (bind_pattern env pat []) body);
      []
  | Pexp_function cases -> eval_cases st ctx env [] cases
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      let sp = eval st ctx env scrut in
      eval_cases st ctx env sp cases
  | Pexp_apply (fn, args) -> eval_apply st ctx env e fn args
  | Pexp_tuple es | Pexp_array es ->
      List.fold_left (fun acc x -> union acc (eval st ctx env x)) [] es
  | Pexp_construct (_, arg) -> ( match arg with Some a -> eval st ctx env a | None -> [])
  | Pexp_variant (_, arg) -> ( match arg with Some a -> eval st ctx env a | None -> [])
  | Pexp_record (fields, base) ->
      let prov =
        List.fold_left
          (fun acc (_, v) -> union acc (eval st ctx env v))
          (match base with Some b -> eval st ctx env b | None -> [])
          fields
      in
      (* Constructing a deletion marker or a Failed phase is a
         destructive write in record form. *)
      let destroys =
        List.exists
          (fun ((lid : Longident.t Asttypes.loc), (v : expression)) ->
            match (last_of (Longident.flatten lid.Asttypes.txt), v.pexp_desc) with
            | "deletion_timestamp", Pexp_construct ({ txt = Longident.Lident "Some"; _ }, _) ->
                true
            | "phase", Pexp_construct ({ txt; _ }, _)
              when String.equal (last_of (Longident.flatten txt)) "Failed" ->
                true
            | _ -> false)
          fields
      in
      if destroys then
        hit_sink st ctx
          ~sink:{ line; what = "record marked for deletion/failure" }
          ~cls:Record_destroy prov;
      prov
  | Pexp_field (x, _) -> eval st ctx env x
  | Pexp_setfield (x, _, v) ->
      ignore (eval st ctx env x);
      ignore (eval st ctx env v);
      []
  | Pexp_ifthenelse (c, t, f) ->
      ignore (eval st ctx env c);
      let pt = eval st ctx env t in
      let pf = match f with Some f -> eval st ctx env f | None -> [] in
      union pt pf
  | Pexp_sequence (a, b) ->
      ignore (eval st ctx env a);
      eval st ctx env b
  | Pexp_while (c, body) ->
      ignore (eval st ctx env c);
      ignore (eval st ctx env body);
      []
  | Pexp_for (pat, lo, hi, _, body) ->
      ignore (eval st ctx env lo);
      ignore (eval st ctx env hi);
      ignore (eval st ctx (bind_pattern env pat []) body);
      []
  | Pexp_constraint (x, _) | Pexp_coerce (x, _, _) | Pexp_assert x | Pexp_lazy x ->
      eval st ctx env x
  | Pexp_open (_, x) | Pexp_letmodule (_, _, x) | Pexp_letexception (_, x) -> eval st ctx env x
  | _ -> []

and eval_cases st ctx env scrut_prov cases =
  List.fold_left
    (fun acc (case : case) ->
      let prov =
        add_step
          { line = line_of case.pc_lhs.ppat_loc; what = "matched" }
          scrut_prov
      in
      let env = bind_pattern env case.pc_lhs prov in
      (match case.pc_guard with Some g -> ignore (eval st ctx env g) | None -> ());
      let ctx =
        if ctx.cont_of <> None && is_error_pattern case.pc_lhs then
          { ctx with retry = ctx.cont_of }
        else ctx
      in
      union acc (eval st ctx env case.pc_rhs))
    [] cases

and eval_fun_arg st ctx env ~param_prov (e : expression) =
  (* Descend into a callback, binding its parameters to [param_prov]. *)
  match e.pexp_desc with
  | Pexp_fun (_, _, pat, body) ->
      eval_fun_arg st ctx (bind_pattern env pat param_prov) ~param_prov body
  | Pexp_function cases -> ignore (eval_cases st ctx env param_prov cases)
  | _ -> ignore (eval st ctx env e)

and eval_apply st ctx env (e : expression) fn args =
  let line = line_of e.pexp_loc in
  let path = fn_path fn in
  let name = last_of path in
  let local = List.length path = 1 && Hashtbl.mem st.summaries name in
  (* Site collection (informers / restart handlers / one-shot watches /
     periodic scans) — same recognizers as the shape lint had; a walk of
     a cached prefix re-lists it as a key list does. *)
  (if List.mem name [ "keys_with_prefix"; "iter_prefix"; "list_quorum" ] then
     match Option.bind (labelled_arg "prefix" args) token_of_expr with
     | Some tok -> scan_token st ctx tok
     | None -> ());
  if String.equal name "create" && List.mem "Informer" path then
    st.informers <-
      {
        i_line = line;
        i_enclosing = st.cur.fn_name;
        i_prefix = Option.bind (labelled_arg "prefix" args) token_of_expr;
        i_handler =
          (match labelled_arg "on_event" args with
          | Some h -> handler_of_expr h
          | None -> Habsent);
      }
      :: st.informers;
  (match labelled_arg "on_restart" args with
  | Some h ->
      st.restarts <- { r_enclosing = st.cur.fn_name; r_handler = handler_of_expr h } :: st.restarts
  | None -> ());
  if is_zk_watch path then begin
    let handler =
      match
        List.find_map
          (fun l -> labelled_arg l args)
          [ "on_fire"; "on_event"; "on_change"; "watcher" ]
      with
      | Some h -> handler_of_expr h
      | None -> (
          match
            List.rev
              (List.filter_map
                 (fun (l, (a : expression)) ->
                   match (l, a.pexp_desc) with
                   | Asttypes.Nolabel, (Pexp_fun _ | Pexp_function _) -> Some a
                   | _ -> None)
                 args)
          with
          | h :: _ -> handler_of_expr h
          | [] -> Habsent)
    in
    st.watches <-
      {
        w_line = line;
        w_enclosing = st.cur.fn_name;
        w_key = Option.bind (labelled_arg "key" args) token_of_expr;
        w_handler = handler;
      }
      :: st.watches
  end;
  (* Classification, most specific first. *)
  let sync_literal_true =
    match labelled_arg "sync" args with
    | Some { pexp_desc = Pexp_construct ({ txt = Longident.Lident "true"; _ }, None); _ } -> true
    | _ -> false
  in
  let arg_prov (l, a) =
    match a.pexp_desc with
    | Pexp_fun _ | Pexp_function _ -> ((l, a), [])
    | _ -> ((l, a), eval st ctx env a)
  in
  let rev_arg_follower () =
    (* A revision precondition whose revision was itself read from the
       ZK follower lives in the wrong numbering domain: no guard. *)
    match labelled_arg "expected_mod_rev" args with
    | Some rev ->
        List.exists (function Ext (Zk_follower, _, _) -> true | _ -> false) (eval st ctx env rev)
    | None -> false
  in
  let descend_funs ?(ctx = ctx) ~param_prov () =
    List.iter
      (fun (_, (a : expression)) ->
        match a.pexp_desc with
        | Pexp_fun _ | Pexp_function _ -> eval_fun_arg st ctx env ~param_prov a
        | _ -> ())
      args
  in
  if is_quorum_name name then begin
    (* Linearizable re-read: the callback's data is fresh, and anything
       it does is quorum-guarded. *)
    let gctx = { ctx with kc = true; kr = true; kz = true; kp = true } in
    List.iter
      (fun (_, (a : expression)) ->
        match a.pexp_desc with
        | Pexp_fun _ | Pexp_function _ -> eval_fun_arg st gctx env ~param_prov:[] a
        | _ -> ignore (eval st ctx env a))
      args;
    []
  end
  else if is_seal_name name && not local then begin
    let gctx = { ctx with kc = true; kr = true; kz = true; kp = true } in
    List.iter (fun (_, a) -> ignore (eval st gctx env a)) args;
    []
  end
  else if is_zk_read path then begin
    if sync_literal_true then begin
      (* Leader catch-up before serving: fresh data. *)
      descend_funs ~param_prov:[] ();
      List.iter
        (fun (_, (a : expression)) ->
          match a.pexp_desc with Pexp_fun _ | Pexp_function _ -> () | _ -> ignore (eval st ctx env a))
        args;
      []
    end
    else begin
      let src =
        {
          line;
          what =
            (match labelled_arg "sync" args with
            | None | Some { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, _); _ }
              ->
                "Zk.read from the follower (no sync)"
            | _ -> "Zk.read with non-literal ~sync (follower path possible)");
        }
      in
      let prov = [ Ext (Zk_follower, src, []) ] in
      List.iter
        (fun (_, (a : expression)) ->
          match a.pexp_desc with
          | Pexp_fun _ | Pexp_function _ -> eval_fun_arg st ctx env ~param_prov:prov a
          | _ -> ignore (eval st ctx env a))
        args;
      prov
    end
  end
  else if is_replica_read path args then begin
    let src = { line; what = Printf.sprintf "Replicated.Kv.%s routed by ~src (read_mode)" name } in
    let prov = [ Ext (Kv_replica, src, []) ] in
    List.iter
      (fun (_, (a : expression)) ->
        match a.pexp_desc with
        | Pexp_fun _ | Pexp_function _ -> eval_fun_arg st ctx env ~param_prov:prov a
        | _ -> ignore (eval st ctx env a))
      args;
    prov
  end
  else if is_cached_read path then begin
    let src = { line; what = Printf.sprintf "cached read %s" (String.concat "." path) } in
    let prov = [ Ext (Cache, src, []) ] in
    List.iter
      (fun (_, (a : expression)) ->
        match a.pexp_desc with
        | Pexp_fun _ | Pexp_function _ -> eval_fun_arg st ctx env ~param_prov:prov a
        | _ -> ignore (eval st ctx env a))
      args;
    prov
  end
  else begin
    let guard_call = is_guard_name name || Option.is_some (labelled_arg "expected_mod_rev" args) in
    let guard_valid = guard_call && not (rev_arg_follower ()) in
    if guard_valid then begin
      (* Revision-compare precondition: kills cache/replica taint (and
         discharges parameter dependences) for the guarded payload. *)
      let gctx = { ctx with kc = true; kr = true; kp = true } in
      List.iter
        (fun (_, (a : expression)) ->
          match a.pexp_desc with
          | Pexp_fun _ | Pexp_function _ -> eval_fun_arg st gctx env ~param_prov:[] a
          | _ -> ignore (eval st gctx env a))
        args;
      []
    end
    else if local then begin
      if not (List.mem name st.cur.fn_calls) then st.cur.fn_calls <- st.cur.fn_calls @ [ name ];
      if ctx.every && not (List.mem name st.periodic_roots) then
        st.periodic_roots <- name :: st.periodic_roots;
      let callee = Hashtbl.find st.summaries name in
      let evaled =
        List.map
          (fun (l, (a : expression)) ->
            match a.pexp_desc with
            | Pexp_fun _ | Pexp_function _ -> (l, a, [])
            | _ -> (l, a, eval st ctx env a))
          args
      in
      (* Tainted argument meets a callee parameter that reaches a sink:
         the halves combine here. *)
      (if not ctx.kp then
         List.iter
           (fun (param, (aprov : prov)) ->
             match List.assoc_opt param callee.fn_param_sinks with
             | None -> ()
             | Some stub ->
                 let hop = { line; what = Printf.sprintf "argument %s to %s" param name } in
                 List.iter
                   (function
                     | Ext (k, src, rsteps) ->
                         if sink_fires stub.st_class k && not (killed ctx k) then
                           record_complete st
                             {
                               kind = k;
                               source = src;
                               steps = List.rev rsteps @ (hop :: stub.st_steps);
                               sink = stub.st_sink;
                               sink_class = stub.st_class;
                               missing_guard = missing_guard_of k stub.st_class;
                             }
                     | Par (p, rsteps) ->
                         record_param_sink st p
                           {
                             st_steps = List.rev rsteps @ (hop :: stub.st_steps);
                             st_sink = stub.st_sink;
                             st_class = stub.st_class;
                           })
                   aprov)
           (match_args callee.fn_params evaled));
      (* Callbacks passed to a local callee: walk them with the union of
         the sibling data arguments (conservative). *)
      let data = List.fold_left (fun acc (_, _, p) -> union acc p) [] evaled in
      descend_funs ~param_prov:data ();
      match callee.fn_returns with
      | Some (k, src, rsteps) ->
          [ Ext (k, src, { line; what = Printf.sprintf "returned by %s" name } :: rsteps) ]
      | None -> []
    end
    else begin
      (* External call. Retry discipline first: a proposal issued inside
         an error branch of another proposal's continuation, with no
         dedup evidence, re-executes a possibly-applied effect. *)
      let proposal = is_proposal_name path in
      (if proposal && not guard_call then
         match ctx.retry with
         | Some orig when not (has_dedup_evidence path args || ctx.kc || ctx.kr || ctx.kz) ->
             st.reproposals <-
               ( st.cur.fn_name,
                 {
                   kind = Kv_replica;
                   source = orig;
                   steps = [ { line; what = "retried in the Error branch" } ];
                   sink = { line; what = Printf.sprintf "fresh proposal %s" (String.concat "." path) };
                   sink_class = Reproposal;
                   missing_guard = missing_guard_of Kv_replica Reproposal;
                 } )
               :: st.reproposals
         | _ -> ());
      let pairs = List.map arg_prov args in
      let data = List.fold_left (fun acc (_, p) -> union acc p) [] pairs in
      (* Sink checks. *)
      (if is_destructive_name name && not guard_call then
         hit_sink st ctx
           ~sink:{ line; what = Printf.sprintf "destructive write %s" (String.concat "." path) }
           ~cls:Destructive data
       else if String.equal (parent_of path) "Zk" && List.mem name [ "cas"; "write" ] then begin
         let cls =
           if List.exists (fun (_, a) -> mentions_region a) args then Region_assign else Zk_write
         in
         hit_sink st ctx
           ~sink:{ line; what = Printf.sprintf "Zk.%s at the leader" name }
           ~cls data
       end
       else if proposal then
         hit_sink st ctx
           ~sink:{ line; what = Printf.sprintf "proposal %s" (String.concat "." path) }
           ~cls:Proposal data);
      (* Callbacks: continuation of a proposal (for retry tracking), and
         data taint flows into callback parameters. *)
      let cb_ctx =
        let base = if proposal then { ctx with cont_of = Some { line; what = Printf.sprintf "proposal %s" (String.concat "." path) } } else { ctx with cont_of = None } in
        if is_periodic path then { base with every = true } else base
      in
      List.iter
        (fun (((_, a) : Asttypes.arg_label * expression), _) ->
          match a.pexp_desc with
          | Pexp_fun _ | Pexp_function _ -> eval_fun_arg st cb_ctx env ~param_prov:data a
          | _ -> ())
        pairs;
      data
    end
  end

(* ------------------------------------------------------------------ *)
(* Module driver                                                       *)

let peel_params (e : expression) =
  let rec go acc (e : expression) =
    match e.pexp_desc with
    | Pexp_fun (label, _, pat, body) ->
        let name =
          match pat.ppat_desc with
          | Ppat_var { txt; _ } -> Some txt
          | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> Some txt
          | _ -> None
        in
        go ((label, name, pat) :: acc) body
    | Pexp_newtype (_, body) -> go acc body
    | _ -> (List.rev acc, e)
  in
  go [] e

let analyze (str : structure) : result =
  let bindings =
    List.concat_map
      (fun (item : structure_item) ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.filter_map
              (fun vb ->
                match vb.pvb_pat.ppat_desc with
                | Ppat_var { txt; _ } -> Some (txt, line_of vb.pvb_loc, vb.pvb_expr)
                | _ -> None)
              vbs
        | _ -> [])
      str
  in
  let summaries = Hashtbl.create 64 in
  let funcs =
    List.map
      (fun (name, line, expr) ->
        let params, body = peel_params expr in
        let s =
          {
            fn_name = name;
            fn_line = line;
            fn_body = body;
            fn_params = List.map (fun (l, n, _) -> (l, n)) params;
            fn_returns = None;
            fn_param_sinks = [];
            fn_complete = [];
            fn_calls = [];
            fn_scans = [];
          }
        in
        Hashtbl.replace summaries name s;
        (s, params))
      bindings
  in
  let dummy =
    {
      fn_name = "";
      fn_line = 0;
      fn_body =
        {
          pexp_desc = Pexp_unreachable;
          pexp_loc = Location.none;
          pexp_loc_stack = [];
          pexp_attributes = [];
        };
      fn_params = [];
      fn_returns = None;
      fn_param_sinks = [];
      fn_complete = [];
      fn_calls = [];
      fn_scans = [];
    }
  in
  let st =
    {
      summaries;
      cur = dummy;
      informers = [];
      restarts = [];
      watches = [];
      periodic_roots = [];
      periodic_scans = [];
      reproposals = [];
    }
  in
  let signature () =
    List.map
      (fun (s, _) ->
        ( s.fn_name,
          s.fn_returns <> None,
          List.map fst s.fn_param_sinks,
          List.length s.fn_complete ))
      funcs
  in
  let pass () =
    st.informers <- [];
    st.restarts <- [];
    st.watches <- [];
    st.periodic_roots <- [];
    st.periodic_scans <- [];
    st.reproposals <- [];
    List.iter
      (fun (s, params) ->
        s.fn_complete <- [];
        s.fn_calls <- [];
        s.fn_scans <- [];
        s.fn_returns <- None;
        s.fn_param_sinks <- [];
        st.cur <- s;
        let env =
          List.fold_left
            (fun env (_, n, _) ->
              match n with
              | Some n ->
                  Env.add n
                    [ Par (n, [ { line = s.fn_line; what = Printf.sprintf "parameter %s of %s" n s.fn_name } ]) ]
                    env
              | None -> env)
            Env.empty params
        in
        record_returns st (eval st ctx0 env s.fn_body))
      funcs
  in
  let prev = ref [] in
  let iterations = ref 0 in
  let continue = ref true in
  while !continue && !iterations < 8 do
    incr iterations;
    pass ();
    let s = signature () in
    if s = !prev then continue := false else prev := s
  done;
  (* Prefixes re-listed by anything reachable from a periodic task. *)
  let find name = Hashtbl.find_opt summaries name in
  let visited = Hashtbl.create 16 in
  let scanned = ref st.periodic_scans in
  let rec visit name =
    if not (Hashtbl.mem visited name) then begin
      Hashtbl.replace visited name ();
      match find name with
      | None -> ()
      | Some s ->
          List.iter
            (fun tok -> if not (List.mem tok !scanned) then scanned := tok :: !scanned)
            s.fn_scans;
          List.iter visit s.fn_calls
    end
  in
  List.iter visit st.periodic_roots;
  (* First-combine dedup: a function whose callee already owns a
     complete path is just forwarding — report the deepest combiner. *)
  let summaries_list = List.map fst funcs in
  let complete =
    List.concat_map
      (fun s ->
        if
          s.fn_complete <> []
          && not
               (List.exists
                  (fun callee ->
                    match find callee with Some c -> c.fn_complete <> [] | None -> false)
                  s.fn_calls)
        then List.map (fun p -> (s, p)) s.fn_complete
        else [])
      summaries_list
  in
  let reproposals =
    List.filter_map
      (fun (fname, p) ->
        match find fname with Some s -> Some (s, p) | None -> None)
      (List.rev st.reproposals)
  in
  {
    funcs = summaries_list;
    complete;
    reproposals;
    informers = List.rev st.informers;
    restarts = List.rev st.restarts;
    watches = List.rev st.watches;
    periodic_scanned = !scanned;
  }
