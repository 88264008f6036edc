(* A bounded ring buffer of structured operational events.  Capacity is
   fixed at creation and the event slots are a preallocated array, so a
   recorder's memory is O(capacity) by construction whatever the stream
   length — the flight-recorder analogue of the monitor's O(active window)
   ambition: always on, never growing, dumped on demand when something
   goes wrong. *)

type severity = Debug | Info | Warn | Error

let severity_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

type event = {
  seq : int;
  ts : float;
  severity : severity;
  cat : string;
  name : string;
  labels : Labels.t;
}

type t = {
  on : bool;
  slots : event option array; (* length = capacity; seq mod capacity *)
  mutable total : int; (* events ever recorded; next seq *)
}

let default_capacity = 256

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Recorder.create: capacity must be >= 1";
  { on = true; slots = Array.make capacity None; total = 0 }

let null = { on = false; slots = Array.make 1 None; total = 0 }

let enabled t = t.on

let capacity t = Array.length t.slots

let total t = t.total

let length t = min t.total (Array.length t.slots)

let dropped t = t.total - length t

let event t ?(severity = Info) ?(cat = "") ?(labels = Labels.empty) ~ts name =
  if t.on then begin
    let seq = t.total in
    t.slots.(seq mod Array.length t.slots) <-
      Some { seq; ts; severity; cat; name; labels };
    t.total <- seq + 1
  end

let record t ?severity ?cat ?labels name =
  if t.on then event t ?severity ?cat ?labels ~ts:(Clock.now_wall ()) name

(* Retained events, oldest first: seqs [total - length, total). *)
let events t =
  let cap = Array.length t.slots in
  let len = length t in
  List.init len (fun i ->
      match t.slots.((t.total - len + i) mod cap) with
      | Some e -> e
      | None -> assert false)

let iter f t = List.iter f (events t)

(* Replay [src]'s retained events into [into], keeping timestamps,
   severities and payloads but assigning fresh sequence numbers — how the
   per-worker recorders of a parallel run are drained back into the
   caller's recorder in input order. *)
let absorb ~into src =
  if into.on then
    iter
      (fun e ->
        event into ~severity:e.severity ~cat:e.cat ~labels:e.labels ~ts:e.ts
          e.name)
      src

let event_json e =
  Json.Obj
    ([
       ("seq", Json.Int e.seq);
       ("ts", Json.Float e.ts);
       ("severity", Json.String (severity_string e.severity));
       ("cat", Json.String e.cat);
       ("name", Json.String e.name);
     ]
    @
    match Labels.to_list e.labels with
    | [] -> []
    | pairs ->
      [
        ( "labels",
          Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) pairs) );
        (* The canonical encoded series form — label values escaped
           exactly as [Labels.encode] does, so [Labels.decode_series]
           round-trips the event from any dump. *)
        ("series", Json.String (Labels.series e.name e.labels));
      ])

let to_json t =
  Json.Obj
    [
      ("capacity", Json.Int (capacity t));
      ("recorded", Json.Int t.total);
      ("dropped", Json.Int (dropped t));
      ("events", Json.List (List.map event_json (events t)));
    ]
