(** Counters, gauges, latency histograms and virtual-time series for the
    observability layer and the benchmark harness.

    Histogram samples live in a growable array with a cached sorted
    copy: {!observe} is amortized O(1) and invalidates the cache, the
    first {!percentile}/query after a write pays one sort, and repeated
    queries are O(1).

    Hot writers hold a handle ({!Counter}, {!Gauge}, {!Histogram},
    {!Series}) resolved once from its name, so an update is a field
    write with no name hashing or allocation; the by-name functions
    resolve a handle per call. Either way a name is registered on its
    first write, so resolving a handle that is never written adds
    nothing to a snapshot. *)

type t

val create : unit -> t

(** {2 Handles} *)

module Counter : sig
  type metrics := t

  type t

  val resolve : metrics -> string -> t

  val incr : t -> unit
end

module Gauge : sig
  type metrics := t

  type t

  val resolve : metrics -> string -> t

  val set_int : t -> int -> unit
  (** Sets the gauge to [n], converting where the float is stored, so the
      write allocates nothing. *)

  val add : t -> float -> unit
  (** Adds a (possibly negative) delta. *)
end

module Histogram : sig
  type metrics := t

  type t

  val resolve : metrics -> string -> t

  val observe : t -> float -> unit
end

module Series : sig
  type metrics := t

  type t

  val resolve : metrics -> string -> t

  val sample_int : t -> time:int -> int -> unit
  (** Appends the point [(time, n)] without boxing the float; only the
      series' growth allocates. *)
end

(** {2 Counters} *)

val incr : t -> string -> unit

val add : t -> string -> int -> unit

val count : t -> string -> int

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

(** {2 Gauges} *)

val gauge : t -> string -> float
(** 0.0 when never set. *)

val gauges : t -> (string * float) list
(** All gauges, sorted by name. *)

(** {2 Histograms} *)

val observe : t -> string -> float -> unit
(** Records a sample into the named histogram. *)

val mean : t -> string -> float
(** 0.0 when the histogram is empty. *)

val percentile : t -> string -> float -> float
(** Nearest-rank percentile over the sorted samples; 0.0 when empty.
    The interpolation behavior at the edges is explicit: [p] is clamped
    to [\[0, 1\]], [percentile t name 0.0] is the minimum sample and
    [percentile t name 1.0] is the maximum. For 0 < p < 1 the result is
    the sample at rank [ceil (p * n)] (1-based), so it is always an
    observed value, never an interpolation between two. *)

val samples : t -> string -> int

val histograms : t -> string list
(** Histogram names, sorted. *)

(** {2 Time series}

    A series is a list of (virtual time, value) points — the shape of
    the per-component revision-lag gauges sampled over a run. *)

val sample : t -> string -> time:int -> float -> unit

val series : t -> string -> (int * float) list
(** Points in chronological (sampling) order; [[]] when absent. *)

val series_names : t -> string list
(** Series names, sorted. *)

(** {2 Export} *)

val to_json : t -> Json.t
(** Snapshot of everything: counters, gauges, histogram summaries
    (count/mean/min/p50/p90/p99/max) and full series. Deterministic
    field order (sorted by name), so two identical runs produce
    byte-identical snapshots. *)

