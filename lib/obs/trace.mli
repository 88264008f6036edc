(** Event tracing: timestamped instants and spans, exportable as Chrome
    [trace_event] JSON (load the file in Perfetto / [chrome://tracing]) or
    as a human-readable log.

    A sink collects {!event}s; {!null} is permanently disabled, so hot
    paths may call the recording functions unconditionally — on the null
    sink they return after one branch without allocating.  Callers that
    build argument lists should still guard with {!enabled} to skip the
    list construction itself.

    Timestamps are caller-supplied floats in {e microseconds} (the Chrome
    format's unit).  Each subsystem picks one clock per sink and sticks to
    it: the simulator records simulated time (1 simulated time unit =
    1 ms = 1000 µs, a readable scale in Perfetto), the checker records
    wall-clock time from {!now_us}.  The two never share a sink.

    Event vocabulary emitted by this repository (the [cat] field names the
    emitting subsystem, [sim] or [compc]):
    - [sim]: [dispatch], [lock_wait] (span: first refusal to grant),
      [lock_acquire], [abort], [backoff], [retry], [give_up], [commit],
      [certify_check] (span; wall-clock duration mapped onto sim time);
    - [compc]: [observed_order] (span), [reduction_step] (span per level,
      with front sizes and cluster counts), [front_check], [failure]. *)

type phase =
  | Instant
  | Complete
  | Async_begin
  | Async_end  (** Chrome [ph] "i" / "X" / "b" / "e". *)

type event = {
  name : string;
  cat : string;
  phase : phase;
  ts : float;  (** Microseconds. *)
  dur : float;  (** Microseconds; 0 for instants. *)
  pid : int;
  tid : int;
  id : int;  (** Async-event grouping id; 0 for other phases. *)
  args : (string * Json.t) list;
}

type t

val create : unit -> t

val null : t
(** The disabled sink: recording is a no-op, {!events} is always empty. *)

val enabled : t -> bool

val now_us : unit -> float
(** Monotonic wall-clock microseconds ({!Clock.now_wall}; arbitrary
    origin).  Span timestamps taken with this clock line up across domains
    in Perfetto, unlike the CPU clock it replaced. *)

(** {1 Recording} *)

val instant :
  t ->
  ?cat:string ->
  ?pid:int ->
  ?tid:int ->
  ?args:(string * Json.t) list ->
  ts:float ->
  string ->
  unit

val complete :
  t ->
  ?cat:string ->
  ?pid:int ->
  ?tid:int ->
  ?args:(string * Json.t) list ->
  ts:float ->
  dur:float ->
  string ->
  unit
(** A span: [ts] is its start, [dur] its length (both µs). *)

val async_begin :
  t ->
  ?cat:string ->
  ?pid:int ->
  ?tid:int ->
  ?args:(string * Json.t) list ->
  id:int ->
  ts:float ->
  string ->
  unit
(** Open an async (nestable) interval: Chrome phase ["b"].  Async events
    pair up by (cat, id, name) rather than by thread, so intervals that
    start on one domain and end on another — a request crossing from the
    transport to a shard — still render as one bar.  [Span.export] emits
    one begin/end pair per finished span with [id] = the span's trace id,
    grouping every span of a request onto one track. *)

val async_end :
  t ->
  ?cat:string ->
  ?pid:int ->
  ?tid:int ->
  ?args:(string * Json.t) list ->
  id:int ->
  ts:float ->
  string ->
  unit
(** Close an async interval: Chrome phase ["e"]. *)

val set_process_name : t -> pid:int -> string -> unit
(** Chrome metadata: label a [pid] row in the viewer. *)

val set_thread_name : t -> pid:int -> tid:int -> string -> unit

(** {1 Reading} *)

val events : t -> event list
(** Recorded events in recording order (metadata excluded). *)

val length : t -> int

val to_json : t -> Json.t
(** The Chrome trace-event document:
    [{"traceEvents": [...], "displayTimeUnit": "ms"}]. *)
