(* Growable ring buffer of events, oldest first. Slots vacated by
   [drop_oldest] are reset to [None] so a compacted-away event (and any
   value it carries) becomes collectable immediately. *)

type 'v t = {
  mutable buf : 'v Event.t option array;
  mutable head : int;  (* physical index of the oldest event *)
  mutable len : int;
}

let create () = { buf = [||]; head = 0; len = 0 }

let length t = t.len

let phys t i = (t.head + i) mod Array.length t.buf

(* Every slot inside the window holds [Some]: [push] fills a slot as it
   enters the window and [drop_oldest] clears one only as it leaves. The
   option is in the slot type so a vacated slot lets its event be
   collected, and no type can say "inside the window", so the empty
   case stays an impossible branch. *)
let get t i =
  if i < 0 || i >= t.len then invalid_arg "Window.get: index out of window";
  match t.buf.(phys t i) with Some e -> e | None -> assert false

let grow t =
  let capacity = Array.length t.buf in
  if t.len = capacity then begin
    let buf = Array.make (max 16 (2 * capacity)) None in
    for i = 0 to t.len - 1 do
      buf.(i) <- t.buf.(phys t i)
    done;
    t.buf <- buf;
    t.head <- 0
  end

let push t event =
  grow t;
  t.buf.(phys t t.len) <- Some event;
  t.len <- t.len + 1

let drop_oldest t k =
  let k = min (max k 0) t.len in
  if k > 0 then begin
    for i = 0 to k - 1 do
      t.buf.(phys t i) <- None
    done;
    t.head <- phys t k;
    t.len <- t.len - k
  end

let clear t =
  t.buf <- [||];
  t.head <- 0;
  t.len <- 0

let oldest t = if t.len = 0 then None else Some (get t 0)

let iter f t =
  for i = 0 to t.len - 1 do
    f (get t i)
  done

let to_list t = List.init t.len (get t)
