type phase = Instant | Complete | Async_begin | Async_end

type event = {
  name : string;
  cat : string;
  phase : phase;
  ts : float;
  dur : float;
  pid : int;
  tid : int;
  id : int;
  args : (string * Json.t) list;
}

type t = {
  on : bool;
  mutable rev_events : event list; (* newest first *)
  mutable n : int;
  mutable rev_meta : (int * int option * string) list; (* pid, tid?, name *)
}

let create () = { on = true; rev_events = []; n = 0; rev_meta = [] }

let null = { on = false; rev_events = []; n = 0; rev_meta = [] }

let enabled t = t.on

let now_us () = Clock.now_wall () *. 1e6

let push t ev =
  t.rev_events <- ev :: t.rev_events;
  t.n <- t.n + 1

let instant t ?(cat = "") ?(pid = 0) ?(tid = 0) ?(args = []) ~ts name =
  if t.on then
    push t
      { name; cat; phase = Instant; ts; dur = 0.0; pid; tid; id = 0; args }

let complete t ?(cat = "") ?(pid = 0) ?(tid = 0) ?(args = []) ~ts ~dur name =
  if t.on then
    push t { name; cat; phase = Complete; ts; dur; pid; tid; id = 0; args }

let async_begin t ?(cat = "") ?(pid = 0) ?(tid = 0) ?(args = []) ~id ~ts name =
  if t.on then
    push t
      { name; cat; phase = Async_begin; ts; dur = 0.0; pid; tid; id; args }

let async_end t ?(cat = "") ?(pid = 0) ?(tid = 0) ?(args = []) ~id ~ts name =
  if t.on then
    push t { name; cat; phase = Async_end; ts; dur = 0.0; pid; tid; id; args }

let set_process_name t ~pid name =
  if t.on then t.rev_meta <- (pid, None, name) :: t.rev_meta

let set_thread_name t ~pid ~tid name =
  if t.on then t.rev_meta <- (pid, Some tid, name) :: t.rev_meta

let events t = List.rev t.rev_events

let length t = t.n

let event_json e =
  let base =
    [
      ("name", Json.String e.name);
      ("cat", Json.String (if e.cat = "" then "default" else e.cat));
      ( "ph",
        Json.String
          (match e.phase with
          | Instant -> "i"
          | Complete -> "X"
          | Async_begin -> "b"
          | Async_end -> "e") );
      ("ts", Json.Float e.ts);
      ("pid", Json.Int e.pid);
      ("tid", Json.Int e.tid);
    ]
  in
  let base =
    match e.phase with
    | Complete -> base @ [ ("dur", Json.Float e.dur) ]
    | Instant -> base @ [ ("s", Json.String "t") ]
    | Async_begin | Async_end ->
      (* Chrome groups async events by (cat, id, name); the id is rendered
         as a hex string, the viewer's conventional form. *)
      base @ [ ("id", Json.String (Printf.sprintf "0x%x" e.id)) ]
  in
  let base =
    match e.args with [] -> base | args -> base @ [ ("args", Json.Obj args) ]
  in
  Json.Obj base

let meta_json (pid, tid, name) =
  let which, tid_fields =
    match tid with
    | None -> ("process_name", [])
    | Some tid -> ("thread_name", [ ("tid", Json.Int tid) ])
  in
  Json.Obj
    ([
       ("name", Json.String which);
       ("ph", Json.String "M");
       ("pid", Json.Int pid);
     ]
    @ tid_fields
    @ [ ("args", Json.Obj [ ("name", Json.String name) ]) ])

let to_json t =
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.map meta_json (List.rev t.rev_meta)
          @ List.map event_json (events t)) );
      ("displayTimeUnit", Json.String "ms");
    ]
