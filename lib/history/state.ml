module Smap = Map.Make (String)

type 'v t = { bindings : ('v * int) Smap.t; rev : int }

let empty = { bindings = Smap.empty; rev = 0 }

let rev t = t.rev

let apply t (e : 'v Event.t) =
  let bindings =
    match e.op, e.value with
    | Event.Delete, _ -> Smap.remove e.key t.bindings
    | (Event.Create | Event.Update), Some v -> Smap.add e.key (v, e.rev) t.bindings
    | (Event.Create | Event.Update), None -> t.bindings
  in
  { bindings; rev = max t.rev e.rev }

let find t key = Smap.find_opt key t.bindings

let get t key = Option.map fst (find t key)

let mem t key = Smap.mem key t.bindings

let bindings t = Smap.bindings t.bindings

let keys t = List.map fst (bindings t)

let cardinal t = Smap.cardinal t.bindings

(* The keys sharing [prefix] form one contiguous run of the ordered map
   starting at the first key >= [prefix], so a range scan cut at the
   first non-matching key visits O(log n + k) nodes instead of
   materializing and filtering the whole keyspace. *)
let bindings_with_prefix t ~prefix =
  let rec take seq acc =
    match seq () with
    | Seq.Cons ((key, binding), rest) when String.starts_with ~prefix key ->
        take rest ((key, binding) :: acc)
    | Seq.Cons _ | Seq.Nil -> List.rev acc
  in
  take (Smap.to_seq_from prefix t.bindings) []

(* [Smap.iter] goes in ascending key order. The filter closure is the
   walk's one allocation; a binding costs nothing. *)
let iter_prefix t ~prefix f =
  Smap.iter
    (fun key (v, mod_rev) -> if Event.has_prefix prefix key then f key v mod_rev)
    t.bindings

let fold f t acc = Smap.fold f t.bindings acc

let diff before after =
  let changes = ref [] in
  Smap.iter
    (fun key (_, rev_b) ->
      match Smap.find_opt key after.bindings with
      | None -> changes := (key, `Removed) :: !changes
      | Some (_, rev_a) -> if rev_a <> rev_b then changes := (key, `Changed) :: !changes)
    before.bindings;
  Smap.iter
    (fun key _ ->
      if not (Smap.mem key before.bindings) then changes := (key, `Added) :: !changes)
    after.bindings;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !changes
