type 'a entry = {
  id : int;
  payload : 'a;
  mutable order : int;
  mutable live : bool;
}

(* A bucket holds the watchers registered with one exact prefix, in
   registration order. Removal flips [live]; the array is compacted
   only outside iteration, once dead slots outnumber live ones, so
   handles held by an in-flight [iter_matching] never dangle. *)
type 'a bucket = {
  mutable entries : 'a entry array;
  mutable len : int;
  mutable dead : int;
}

type 'a node = {
  mutable child_chars : string;  (* parallel to [children] *)
  mutable children : 'a node array;
  mutable bucket : 'a bucket option;
}

type 'a t = {
  root : 'a node;
  by_id : (int, 'a entry * 'a bucket) Hashtbl.t;
  mutable next_id : int;
  mutable live : int;
  mutable iterating : int;  (* defer compaction while > 0 *)
  mutable all : 'a entry array option;
      (* every live entry in delivery order; dropped by add, remove,
         set_order and clear, rebuilt by the next [iter_all] *)
}

let new_node () = { child_chars = ""; children = [||]; bucket = None }

let new_bucket () = { entries = [||]; len = 0; dead = 0 }

let create () =
  {
    root = new_node ();
    by_id = Hashtbl.create 64;
    next_id = 0;
    live = 0;
    iterating = 0;
    all = None;
  }

let size t = t.live

(* Index of [c] among [node]'s children, or -1. *)
let child_index node c =
  let rec go i =
    if i >= String.length node.child_chars then -1
    else if node.child_chars.[i] = c then i
    else go (i + 1)
  in
  go 0

let child_or_create node c =
  match child_index node c with
  | -1 ->
      let n = new_node () in
      node.child_chars <- node.child_chars ^ String.make 1 c;
      let grown = Array.make (Array.length node.children + 1) n in
      Array.blit node.children 0 grown 0 (Array.length node.children);
      node.children <- grown;
      n
  | i -> node.children.(i)

let bucket_of_prefix t prefix =
  let node =
    match prefix with
    | None -> t.root
    | Some p ->
        let node = ref t.root in
        String.iter (fun c -> node := child_or_create !node c) p;
        !node
  in
  match node.bucket with
  | Some b -> b
  | None ->
      let b = new_bucket () in
      node.bucket <- Some b;
      b

(* The root bucket doubles as the match-all bucket: a [None] prefix is
   the empty prefix, and every key has the empty prefix. *)

let bucket_push bucket entry =
  let cap = Array.length bucket.entries in
  if bucket.len = cap then begin
    let grown = Array.make (max 4 (2 * cap)) entry in
    Array.blit bucket.entries 0 grown 0 bucket.len;
    bucket.entries <- grown
  end;
  bucket.entries.(bucket.len) <- entry;
  bucket.len <- bucket.len + 1

let bucket_compact bucket =
  if bucket.dead > 0 then begin
    let kept = ref 0 in
    for i = 0 to bucket.len - 1 do
      let e = bucket.entries.(i) in
      if e.live then begin
        bucket.entries.(!kept) <- e;
        incr kept
      end
    done;
    bucket.len <- !kept;
    bucket.dead <- 0
  end

let add t ?prefix payload =
  t.next_id <- t.next_id + 1;
  let id = t.next_id in
  let entry = { id; payload; order = id; live = true } in
  let bucket = bucket_of_prefix t prefix in
  bucket_push bucket entry;
  Hashtbl.replace t.by_id id (entry, bucket);
  t.live <- t.live + 1;
  t.all <- None;
  id

let remove t id =
  match Hashtbl.find_opt t.by_id id with
  | None -> false
  | Some (entry, bucket) ->
      Hashtbl.remove t.by_id id;
      entry.live <- false;
      bucket.dead <- bucket.dead + 1;
      t.live <- t.live - 1;
      t.all <- None;
      if t.iterating = 0 && bucket.dead > bucket.len - bucket.dead then bucket_compact bucket;
      true

let find t id = Option.map (fun (e, _) -> e.payload) (Hashtbl.find_opt t.by_id id)

let set_order t id ~order =
  match Hashtbl.find_opt t.by_id id with
  | Some (entry, _) ->
      entry.order <- order;
      t.all <- None
  | None -> ()

let clear t =
  Hashtbl.reset t.by_id;
  t.live <- 0;
  t.all <- None;
  let rec wipe node =
    node.bucket <- None;
    Array.iter wipe node.children
  in
  wipe t.root

let delivery_order a b =
  if a.order = b.order then Int.compare a.id b.id else Int.compare a.order b.order

(* The buckets on [key]'s trie path that hold a live entry. *)
let matched_buckets t ~key =
  let rec go node i acc =
    let acc =
      match node.bucket with Some b when b.len > b.dead -> b :: acc | Some _ | None -> acc
    in
    if i >= String.length key then acc
    else
      match child_index node key.[i] with -1 -> acc | c -> go node.children.(c) (i + 1) acc
  in
  go t.root 0 []

let rec first_live (entries : _ entry array) i =
  if entries.(i).live then entries.(i) else first_live entries (i + 1)

(* A snapshot of the live matches, in delivery order: additions from
   inside a callback land past it and are skipped; removals flip [live],
   which the walk re-checks per entry. *)
let collect_matching t ~key =
  match matched_buckets t ~key with
  | [] -> [||]
  | first :: _ as buckets ->
      let n = List.fold_left (fun n b -> n + b.len - b.dead) 0 buckets in
      let out = Array.make n (first_live first.entries 0) in
      let k = ref 0 in
      List.iter
        (fun b ->
          for i = 0 to b.len - 1 do
            let e = b.entries.(i) in
            if e.live then begin
              out.(!k) <- e;
              incr k
            end
          done)
        buckets;
      Array.sort delivery_order out;
      out

let collect_all t =
  match t.all with
  | Some all -> all
  | None ->
      let all = Array.of_list (Hashtbl.fold (fun _ (e, _) acc -> e :: acc) t.by_id []) in
      Array.sort delivery_order all;
      t.all <- Some all;
      all

(* The cached [all] array is never written after it is built, so a walk
   over it is safe against any mutation its callbacks make. *)
let walk t (entries : _ entry array) f =
  t.iterating <- t.iterating + 1;
  match
    for i = 0 to Array.length entries - 1 do
      let e = entries.(i) in
      if e.live then f e.id e.payload
    done
  with
  | () -> t.iterating <- t.iterating - 1
  | exception exn ->
      let backtrace = Printexc.get_raw_backtrace () in
      t.iterating <- t.iterating - 1;
      Printexc.raise_with_backtrace exn backtrace

let iter_matching t ~key f = walk t (collect_matching t ~key) f

let iter_all t f = walk t (collect_all t) f

let matching t ~key =
  Array.fold_right
    (fun (e : _ entry) acc -> if e.live then e.payload :: acc else acc)
    (collect_matching t ~key) []
