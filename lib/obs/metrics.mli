(** Metrics registry: named counters, gauges and fixed-bucket histograms.

    A registry is a flat namespace of metrics created on first use, so
    instrumentation sites never need set-up code:

    {[
      let m = Metrics.create () in
      Metrics.incr m "sim.committed";
      Metrics.observe m "sim.latency" 3.7;
      Json.to_string (Metrics.to_json m)
    ]}

    The {!null} registry is permanently disabled: every recording operation
    returns immediately without allocating, so hot paths can be
    unconditionally instrumented and pay (one load and branch) nothing when
    metrics are off.

    Histograms use fixed upper-bound buckets ({!default_buckets} spans
    [1e-6 .. ~1e13] geometrically, fitting both sub-microsecond wall times
    and simulated-time latencies); percentile summaries (p50/p90/p99) are
    estimated by linear interpolation inside the covering bucket and
    clamped to the exact observed [min]/[max].

    Every recording and reading operation takes an optional {!Labels.t}:
    [incr m ~labels:(Labels.v [("path", "fast")]) "monitor.append"]
    records into the series [monitor.append{path="fast"}].  A labeled
    series is stored in the same flat tables under its canonical encoded
    key, so {!merge}, {!to_json} and the zero-cost null-registry guarantee
    are label-transparent; {!to_prometheus} decodes the keys back into
    native Prometheus series. *)

type t

val create : unit -> t
(** A fresh, enabled, empty registry. *)

val null : t
(** The disabled registry: all recording operations are no-ops, every
    reading operation sees an empty registry. *)

val enabled : t -> bool

(** {1 Recording} *)

val incr : t -> ?by:int -> ?labels:Labels.t -> string -> unit
(** Increment a counter (created at 0). *)

val set : t -> ?labels:Labels.t -> string -> float -> unit
(** Set a gauge. *)

val observe :
  t -> ?buckets:float array -> ?labels:Labels.t -> string -> float -> unit
(** Record a value into a histogram.  [buckets] (strictly increasing upper
    bounds) is honoured only when the histogram is first created; values
    above the last bound land in an implicit overflow bucket.  Labeled
    series of one name are distinct histograms and may in principle carry
    distinct buckets, but {!merge} and Prometheus convention both expect a
    family to share them. *)

val default_buckets : float array

val merge : into:t -> t -> unit
(** [merge ~into src] folds [src]'s contents into [into]: counters add,
    gauges overwrite (last writer wins), histograms add bucket-wise.
    Raises [Invalid_argument] if both registries hold a histogram of the
    same name with different bucket bounds.  No-op when [into] is
    disabled.  This is how per-worker registries of a parallel run are
    combined back into the caller's registry. *)

(** {1 Reading} *)

val counter_value : t -> ?labels:Labels.t -> string -> int
(** Current value of a counter (0 when absent). *)

val counters : t -> (string * int) list
(** Every counter series as [(encoded key, value)], sorted by key —
    labeled series appear under their canonical [name{k="v"}] key
    ({!Labels.decode_series} splits them back apart).  This is the
    enumeration the {!Coverage} registry folds over. *)

val gauge_value : t -> ?labels:Labels.t -> string -> float option

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val summary : t -> ?labels:Labels.t -> string -> summary option
(** Percentile summary of a histogram ([None] when absent or empty). *)

val percentile : t -> ?labels:Labels.t -> string -> float -> float option
(** [percentile m name q] estimates the [q]-quantile ([0 <= q <= 1]). *)

val to_json : t -> Json.t
(** Snapshot: [{"counters": {...}, "gauges": {...}, "histograms": {name:
    {"count", "sum", "min", "max", "p50", "p90", "p99"}}}].  Keys are
    sorted (labeled series appear under their encoded key), so snapshots
    are stable across runs. *)

val to_prometheus : t -> string
(** The registry in Prometheus text exposition format (version 0.0.4):
    one [# TYPE] header per metric family, one line per labeled series,
    histograms as cumulative [_bucket{le=...}] series plus [_sum] and
    [_count].  Dotted registry names sanitize to underscore form
    ([monitor.append] -> [monitor_append]); families and series are
    sorted, so scrapes are stable across runs. *)
