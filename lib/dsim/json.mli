(** Minimal JSON tree, printer and parser.

    The run artifacts (trace dumps, metrics snapshots) must be
    machine-readable without adding dependencies, so this is a small,
    self-contained implementation: a strict RFC 8259 subset that
    round-trips everything the observability layer emits. Integers and
    floats are kept distinct ([1] parses as {!Int}, [1.0] as {!Float});
    the printer always writes floats with a decimal point or exponent so
    a value survives [to_string |> parse] with its constructor intact. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering with full string escaping. *)

val parse : string -> (t, string) result
(** Parses one JSON value; trailing whitespace is allowed, trailing
    garbage is an error. Error strings carry a character offset. *)

val member : string -> t -> t option
(** Field lookup; [None] on missing field or non-object. *)

val to_int : t -> int option
(** [Int n] only. *)

val to_str : t -> string option

val to_list : t -> t list option
