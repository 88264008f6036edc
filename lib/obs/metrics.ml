type histogram = {
  bounds : float array; (* strictly increasing upper bounds *)
  counts : int array; (* length = Array.length bounds + 1 (overflow) *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type t = {
  on : bool;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  {
    on = true;
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let null =
  {
    on = false;
    counters = Hashtbl.create 1;
    gauges = Hashtbl.create 1;
    histograms = Hashtbl.create 1;
  }

let enabled t = t.on

(* 1e-6 .. ~1.1e13 in 64 geometric steps of x2: wide enough for wall-clock
   seconds at the bottom and simulated-time latencies at the top. *)
let default_buckets =
  Array.init 64 (fun i -> 1e-6 *. (2.0 ** float_of_int i))

(* Labeled series live in the same flat tables under their canonical
   encoded key [name{k="v",...}], so merge/read/export semantics need no
   label-aware cases; the key is built only after the [t.on] check, so the
   null registry stays allocation-free. *)
let key name labels =
  if Labels.is_empty labels then name else Labels.series name labels

let incr t ?(by = 1) ?(labels = Labels.empty) name =
  if t.on then
    let name = key name labels in
    match Hashtbl.find_opt t.counters name with
    | Some r -> r := !r + by
    | None -> Hashtbl.replace t.counters name (ref by)

let set t ?(labels = Labels.empty) name v =
  if t.on then
    let name = key name labels in
    match Hashtbl.find_opt t.gauges name with
    | Some r -> r := v
    | None -> Hashtbl.replace t.gauges name (ref v)

let bucket_index bounds v =
  (* first index with v <= bounds.(i), or length bounds (overflow) *)
  let n = Array.length bounds in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if v <= bounds.(mid) then go lo mid else go (mid + 1) hi
  in
  go 0 n

let observe t ?(buckets = default_buckets) ?(labels = Labels.empty) name v =
  if t.on then begin
    let name = key name labels in
    let h =
      match Hashtbl.find_opt t.histograms name with
      | Some h -> h
      | None ->
        let n = Array.length buckets in
        if n = 0 then invalid_arg "Metrics.observe: empty bucket array";
        for i = 1 to n - 1 do
          if buckets.(i) <= buckets.(i - 1) then
            invalid_arg "Metrics.observe: buckets must be strictly increasing"
        done;
        let h =
          {
            bounds = Array.copy buckets;
            counts = Array.make (n + 1) 0;
            h_count = 0;
            h_sum = 0.0;
            h_min = Float.infinity;
            h_max = Float.neg_infinity;
          }
        in
        Hashtbl.replace t.histograms name h;
        h
    in
    let i = bucket_index h.bounds v in
    h.counts.(i) <- h.counts.(i) + 1;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v
  end

(* Fold the contents of [src] into [into]: counters add, gauges overwrite,
   histograms with identical bounds add bucket-wise.  Used to combine the
   per-worker registries of a parallel run back into the caller's
   registry. *)
let merge ~into src =
  if into.on then begin
    Hashtbl.iter (fun k r -> incr into ~by:!r k) src.counters;
    Hashtbl.iter (fun k r -> set into k !r) src.gauges;
    Hashtbl.iter
      (fun k h ->
        match Hashtbl.find_opt into.histograms k with
        | None ->
          Hashtbl.replace into.histograms k
            { h with bounds = Array.copy h.bounds; counts = Array.copy h.counts }
        | Some dst ->
          if dst.bounds <> h.bounds then
            invalid_arg ("Metrics.merge: incompatible buckets for " ^ k);
          Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) h.counts;
          dst.h_count <- dst.h_count + h.h_count;
          dst.h_sum <- dst.h_sum +. h.h_sum;
          if h.h_min < dst.h_min then dst.h_min <- h.h_min;
          if h.h_max > dst.h_max then dst.h_max <- h.h_max)
      src.histograms
  end

let counter_value t ?(labels = Labels.empty) name =
  match Hashtbl.find_opt t.counters (key name labels) with
  | Some r -> !r
  | None -> 0

let gauge_value t ?(labels = Labels.empty) name =
  Option.map ( ! ) (Hashtbl.find_opt t.gauges (key name labels))

(* Estimate the q-quantile: find the bucket holding the ceil(q*count)-th
   observation, interpolate linearly between its bounds, clamp to the exact
   observed extremes (so single-valued histograms report that value). *)
let estimate h q =
  let target = Float.max 1.0 (Float.round (q *. float_of_int h.h_count)) in
  let n = Array.length h.bounds in
  let rec go i cum =
    if i > n then h.h_max
    else
      let cum' = cum +. float_of_int h.counts.(i) in
      if cum' >= target then
        if i = n then h.h_max
        else
          let lo = if i = 0 then 0.0 else h.bounds.(i - 1) in
          let hi = h.bounds.(i) in
          let frac =
            if h.counts.(i) = 0 then 1.0
            else (target -. cum) /. float_of_int h.counts.(i)
          in
          lo +. ((hi -. lo) *. frac)
      else go (i + 1) cum'
  in
  let raw = go 0 0.0 in
  Float.min h.h_max (Float.max h.h_min raw)

let percentile t ?(labels = Labels.empty) name q =
  match Hashtbl.find_opt t.histograms (key name labels) with
  | Some h when h.h_count > 0 -> Some (estimate h q)
  | _ -> None

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let summary_of h =
  {
    count = h.h_count;
    sum = h.h_sum;
    min = h.h_min;
    max = h.h_max;
    p50 = estimate h 0.50;
    p90 = estimate h 0.90;
    p99 = estimate h 0.99;
  }

let summary t ?(labels = Labels.empty) name =
  match Hashtbl.find_opt t.histograms (key name labels) with
  | Some h when h.h_count > 0 -> Some (summary_of h)
  | _ -> None

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort compare

let to_json t =
  let counters =
    List.map (fun k -> (k, Json.Int (counter_value t k))) (sorted_keys t.counters)
  in
  let gauges =
    List.map
      (fun k -> (k, Json.Float (Option.get (gauge_value t k))))
      (sorted_keys t.gauges)
  in
  let histograms =
    List.filter_map
      (fun k ->
        match summary t k with
        | None -> None
        | Some s ->
          Some
            ( k,
              Json.Obj
                [
                  ("count", Json.Int s.count);
                  ("sum", Json.Float s.sum);
                  ("min", Json.Float s.min);
                  ("max", Json.Float s.max);
                  ("p50", Json.Float s.p50);
                  ("p90", Json.Float s.p90);
                  ("p99", Json.Float s.p99);
                ] ))
      (sorted_keys t.histograms)
  in
  Json.Obj
    [
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
      ("histograms", Json.Obj histograms);
    ]

(* ---- Prometheus text exposition (version 0.0.4) ---- *)

(* Metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.  The registry's dotted names
   ([monitor.append_wall_s]) sanitize by mapping every other character to
   an underscore. *)
let prom_name name =
  let name = if name = "" then "_" else name in
  String.concat ""
    (List.init (String.length name) (fun i ->
         match name.[i] with
         | ('a' .. 'z' | 'A' .. 'Z' | '_' | ':') as c -> String.make 1 c
         | ('0' .. '9') as c when i > 0 -> String.make 1 c
         | _ -> "_"))

(* Shortest float rendering that re-reads exactly, mirroring Json's. *)
let prom_float v =
  if Float.is_integer v && Float.abs v < 1e16 then
    Printf.sprintf "%.1f" v
  else
    let s = Printf.sprintf "%.12g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let prom_series buf name labels value =
  Buffer.add_string buf (prom_name name);
  Buffer.add_string buf (Labels.encode labels);
  Buffer.add_char buf ' ';
  Buffer.add_string buf value;
  Buffer.add_char buf '\n'

(* Group the registry's flat keys by decoded base name so each family gets
   one TYPE header followed by its labeled series, keys sorted. *)
let families tbl =
  let by_name = Hashtbl.create 16 in
  Hashtbl.iter
    (fun k v ->
      let name, labels = Labels.decode_series k in
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_name name) in
      Hashtbl.replace by_name name ((labels, v) :: prev))
    tbl;
  Hashtbl.fold
    (fun name series acc ->
      (name, List.sort (fun (a, _) (b, _) -> Labels.compare a b) series) :: acc)
    by_name []
  |> List.sort compare

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let header name kind =
    Buffer.add_string buf ("# TYPE " ^ prom_name name ^ " " ^ kind ^ "\n")
  in
  List.iter
    (fun (name, series) ->
      header name "counter";
      List.iter
        (fun (labels, r) -> prom_series buf name labels (string_of_int !r))
        series)
    (families t.counters);
  List.iter
    (fun (name, series) ->
      header name "gauge";
      List.iter
        (fun (labels, r) -> prom_series buf name labels (prom_float !r))
        series)
    (families t.gauges);
  List.iter
    (fun (name, series) ->
      header name "histogram";
      List.iter
        (fun (labels, h) ->
          let cum = ref 0 in
          Array.iteri
            (fun i c ->
              cum := !cum + c;
              let le =
                if i < Array.length h.bounds then prom_float h.bounds.(i)
                else "+Inf"
              in
              prom_series buf (name ^ "_bucket")
                (Labels.add "le" le labels)
                (string_of_int !cum))
            h.counts;
          prom_series buf (name ^ "_sum") labels (prom_float h.h_sum);
          prom_series buf (name ^ "_count") labels (string_of_int h.h_count))
        series)
    (families t.histograms);
  Buffer.contents buf
