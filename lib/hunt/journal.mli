(** Crash-safe on-disk campaign journal.

    One JSONL file ({!Dsim.Json} records, one per line) holds everything
    a campaign ever learned: a header identifying the campaign, one
    record per completed trial, and one record per distinct finding.
    Appends are flushed per record, and readers accept only the longest
    prefix of well-formed, newline-terminated records — so a campaign
    killed mid-append loses at most the record being written, never the
    journal. {!open_resume} truncates that torn tail before appending,
    which keeps a resumed journal byte-identical to an uninterrupted
    run's. *)

type violation_record = { time : int; bug : string; signature : string; detail : string }

type entry =
  | Header of { version : int; seed : int64; trials : int; cases : string list }
      (** campaign identity: derivation seed, planned trial count and
          case ids — resume refuses a journal whose header disagrees *)
  | Trial of {
      trial : int;  (** schedule position; journal order == trial order *)
      case : string;
      origin : string;  (** ["planner#k"] or ["explore"] *)
      seed : int64;  (** per-trial seed derived via {!Dsim.Rng.split} *)
      strategy : string;
      violations : violation_record list;
    }
  | Finding of {
      signature : string;
      trial : int;  (** the trial that first exposed it *)
      case : string;
      time : int;
      bug : string;
      detail : string;
      strategy : string;  (** the exposing trial's full strategy *)
      minimized : string;  (** after {!Sieve.Minimize.minimize} *)
      shrink_runs : int;
          (** its evaluations, repeated candidates included (they are not
              simulated again), so the record's bytes do not depend on
              the minimizer's verdict cache *)
    }

val entry_to_json : entry -> Dsim.Json.t

val entry_of_json : Dsim.Json.t -> entry option

val load : string -> entry list * int
(** [load path] decodes the longest valid record prefix and returns it
    with its byte length. A missing file is an empty journal; a torn or
    corrupt record ends the prefix (nothing after it is trusted). *)

type writer

val create : path:string -> writer
(** Fresh journal (truncates any existing file). *)

val open_resume : path:string -> entry list * writer
(** The journal's valid records, plus a writer positioned exactly after
    them (any torn tail is cut off the file). *)

val append : writer -> entry -> unit
(** Appends one record and flushes it to the OS. *)

val close : writer -> unit
