(** The diagnosis card: a machine-checkable root-cause record.

    One card per diagnosed run, carrying everything a human (or the
    golden suite) needs to name the root cause without replaying: which
    bug fired, where the suspect stream's observed [(H', S')] left the
    committed subsequence (the divergence point, cross-referenced
    against the conformance monitor's mirror), which controller
    read-site acted on the diverged view, and which statically-known
    hazard ({!Analysis.Hazard}) that instantiates. *)

type divergence = {
  kind : string;  (** ["skip"], ["rewind"], ["lag"] or ["unknown"] *)
  rev : int;  (** first committed revision the view missed or re-adopted at *)
  stream : string;  (** base stream name, e.g. ["cassop#pods/"] *)
  component : string;  (** consumer owning the stream *)
  key : string;  (** key of the missed committed event, or the stream prefix *)
  frontier : int;  (** the stream's frontier at detection time *)
  event : string option;  (** {!History.Event.describe} of the committed event at [rev] *)
  trace_id : int option;  (** trace id of the commit that the view diverged from *)
  detail : string;
}

type suspect = {
  component : string;
  read_site : string;  (** the footprint's cached-read prefix the divergence hit *)
  anti_pattern : string;  (** ["stale-write"], ["edge-trigger"] or ["stale-resync"] *)
  hazard_severity : int;  (** 0 when the static hazard graph predicted nothing *)
  hazard_reason : string;
}

type chain_info = {
  anchor : int;  (** trace id of the violation entry the walk started from *)
  length : int;  (** entries on the causal chain, anchor included *)
  commits : int;  (** store commits on the chain *)
  truncated : bool;  (** the walk hit a cause evicted by the trace ring buffer *)
}

type t = {
  bug : string;  (** upstream bug id, or ["conformance"] for monitor-only trips *)
  violation : string;
  test : string;
  seed : int;
  divergence : divergence;
  suspect : suspect;
  chain : chain_info;
  taint_path : string list option;
      (** the lint's rendered evidence path (source -> propagation ->
          sink, missing guard) for the suspect's anti-pattern — the
          static path that predicted this dynamic divergence. [None]
          when the controller sources are not on disk at diagnosis time
          or the class is ["unknown"]. *)
  plan : string;  (** the strategy that exposed the bug *)
  minimized_plan : string option;  (** auto-minimized strategy, when one was computed *)
}

val to_json : t -> Dsim.Json.t

val validate : Dsim.Json.t -> (unit, string) result
(** Checks a JSON value against the card schema: tag, required fields,
    field types and the [kind] / [anti_pattern] enumerations — what the
    CI job runs over every emitted card. *)
