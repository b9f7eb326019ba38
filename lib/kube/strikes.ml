(* name -> (count, the pass that struck it last) *)
type t = { counts : (string, int * int) Hashtbl.t; mutable pass : int }

let create () = { counts = Hashtbl.create 16; pass = 0 }

let strike t name =
  let count = match Hashtbl.find_opt t.counts name with Some (n, _) -> n + 1 | None -> 1 in
  Hashtbl.replace t.counts name (count, t.pass);
  count

let clear t name = Hashtbl.remove t.counts name

(* A count that survives a sweep was struck by the pass just ended, so
   the next pass finds exactly the objects struck the pass before. *)
let sweep t =
  if Hashtbl.length t.counts > 0 then
    Hashtbl.filter_map_inplace
      (fun _ ((_, pass) as entry) -> if pass = t.pass then Some entry else None)
      t.counts;
  t.pass <- t.pass + 1

let reset t = Hashtbl.reset t.counts
