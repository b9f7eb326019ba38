(* The fields are read by position in snapshot_stubs.c. *)
type 'a image = {
  words : bytes;  (* the blocks, internal pointers as byte offsets *)
  relocs : bytes;  (* uint32 positions of the internal pointers *)
  slots : bytes;  (* uint32 (position, index into objects) pairs *)
  objects : Obj.t array;  (* the Object_tag blocks, shared *)
}

external compile : 'a -> 'a image = "dsim_snapshot_compile"

external instantiate : 'a image -> 'a option = "dsim_snapshot_instantiate"

let bytes image = Bytes.length image.words + Bytes.length image.relocs + Bytes.length image.slots
