(** Snapshots: compile a value graph once, instantiate it many times.

    {!compile} copies everything reachable from a value into a flat
    image: the blocks in one word buffer, the pointers between them as
    offsets, plus a list of those offsets' positions. {!instantiate}
    writes a fresh copy of the graph into the calling domain's minor
    heap: one bump of the allocation pointer, one [memcpy] and one
    relocation pass, about half a nanosecond per word. So a world that
    many runs share a prefix of is compiled once and forked per run.

    What the copy shares with the original and what it copies:
    - static blocks (compiled-in constant strings and closed
      functions) are shared by address;
    - [Object_tag] blocks (extension constructors, such as a
      [Type.Id.t] witness, and objects) keep their identity: the image
      holds them in an OCaml array and patches them into each copy, so
      [==] against the originals holds and a collection never leaves
      the image pointing at a moved block;
    - every other block is copied, closures included, sharing and
      cycles preserved. A closure's code pointer stays valid because the
      copy lives in the same process.

    Contract:
    - {!compile} requires every block of the graph to be outside the
      minor heap (call [Gc.minor ()] first), and refuses a custom block
      (a boxed [Int64], a [Mutex]), an abstract block or a continuation:
      it raises [Failure] naming the block's tag and size. It never
      falls back silently.
    - An image is immutable once compiled. Any number of domains may
      instantiate it at once without a lock.
    - A global that the graph points to is copied like any other block:
      code that recognises such a value by [==] against the global does
      not recognise the copy. Mark it by a field instead.
    - Needs the OCaml 5 runtime (the stub refuses to build otherwise). *)

type 'a image

val compile : 'a -> 'a image
(** Copies the graph reachable from the value into an image. The walk's
    tables are freed before it returns. Raises [Failure] on a young,
    custom, abstract or continuation block. *)

val instantiate : 'a image -> 'a option
(** A fresh copy of the compiled graph, allocated in one piece in the
    calling domain's minor heap. If the free part of the minor heap is
    too small, it runs one minor collection; if it is still too small,
    it returns [None] and allocates nothing. Nothing between the
    reservation and the return can run a collection. *)

val bytes : 'a image -> int
(** The image's size: its words plus its relocation and object lists. *)
