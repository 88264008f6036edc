(* Flat Bigarray-backed bit matrices: the mutable, growable counterpart of
   {!Bitrel} for the append path.  One [(char, int8_unsigned_elt, c_layout)]
   Bigarray.Array1.t backs the whole relation; row [i] lives at byte offset
   [i * stride].  Bits are unboxed and off the OCaml heap, so the monitor's
   per-append membership probes and bit sets allocate nothing and the minor
   heap stays flat no matter how large the prefix grows.  Capacity grows
   geometrically in both dimensions; rows move with plain blits. *)

type buffer =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  mutable buf : buffer;
  mutable nrows : int; (* active rows *)
  mutable ncols : int; (* active columns (bits per row) *)
  mutable stride : int; (* bytes per row in [buf] *)
  mutable cap_rows : int; (* allocated rows *)
}

let alloc bytes : buffer =
  let b = Bigarray.Array1.create Bigarray.char Bigarray.c_layout (max 1 bytes) in
  Bigarray.Array1.fill b '\000';
  b

let bytes_for cols = (cols + 7) lsr 3

let make ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Arena.make: negative dimension";
  let stride = max 1 (bytes_for cols) in
  let cap_rows = max 1 rows in
  {
    buf = alloc (stride * cap_rows);
    nrows = rows;
    ncols = cols;
    stride;
    cap_rows;
  }

(* Grow the active window to at least [rows] x [cols].  Existing bits keep
   their (row, column) coordinates; fresh space is zero.  Both dimensions
   over-allocate geometrically so a streaming caller pays O(1) amortized
   blit work per appended row. *)
let ensure t ~rows ~cols =
  let need_stride = bytes_for cols in
  if need_stride > t.stride || rows > t.cap_rows then begin
    let stride =
      if need_stride > t.stride then max need_stride (2 * t.stride)
      else t.stride
    in
    let cap_rows =
      if rows > t.cap_rows then max rows (2 * t.cap_rows) else t.cap_rows
    in
    let buf = alloc (stride * cap_rows) in
    let old_bytes = bytes_for t.ncols in
    for i = 0 to t.nrows - 1 do
      let src = Bigarray.Array1.sub t.buf (i * t.stride) old_bytes in
      let dst = Bigarray.Array1.sub buf (i * stride) old_bytes in
      Bigarray.Array1.blit src dst
    done;
    t.buf <- buf;
    t.stride <- stride;
    t.cap_rows <- cap_rows
  end;
  if rows > t.nrows then t.nrows <- rows;
  if cols > t.ncols then t.ncols <- cols

(* Zero the active window and shrink it to [rows] x [cols], reusing the
   backing buffer when capacity allows — the rebuild path of incremental
   mirrors, which would otherwise churn large allocations. *)
let reset t ~rows ~cols =
  Bigarray.Array1.fill t.buf '\000';
  t.nrows <- 0;
  t.ncols <- 0;
  ensure t ~rows ~cols

(* Like {!reset}, but also give capacity back when the backing buffer is
   more than 4x what the new window needs — the truncation path, where a
   mirror built over a long prefix rebases onto a small active window and
   should stop pinning O(prefix^2) bits. *)
let shrink t ~rows ~cols =
  let stride = max 1 (bytes_for cols) in
  let cap_rows = max 1 rows in
  let need = stride * cap_rows in
  if Bigarray.Array1.dim t.buf > 4 * need then begin
    t.buf <- alloc need;
    t.stride <- stride;
    t.cap_rows <- cap_rows;
    t.nrows <- rows;
    t.ncols <- cols
  end
  else reset t ~rows ~cols

let resident_bytes t = Bigarray.Array1.dim t.buf

let check t what i j =
  if i < 0 || i >= t.nrows || j < 0 || j >= t.ncols then
    invalid_arg
      (Printf.sprintf "Arena.%s: (%d, %d) outside %d x %d" what i j t.nrows
         t.ncols)

let set t i j =
  check t "set" i j;
  let k = (i * t.stride) + (j lsr 3) in
  let b = Char.code (Bigarray.Array1.unsafe_get t.buf k) in
  Bigarray.Array1.unsafe_set t.buf k (Char.unsafe_chr (b lor (1 lsl (j land 7))))

let get t i j =
  check t "get" i j;
  let k = (i * t.stride) + (j lsr 3) in
  Char.code (Bigarray.Array1.unsafe_get t.buf k) land (1 lsl (j land 7)) <> 0

let row_iter t i f =
  if i < 0 || i >= t.nrows then invalid_arg "Arena.row_iter: bad row";
  let base = i * t.stride in
  let nb = bytes_for t.ncols in
  for k = 0 to nb - 1 do
    let b = Char.code (Bigarray.Array1.unsafe_get t.buf (base + k)) in
    if b <> 0 then begin
      let col0 = k lsl 3 in
      let bits = ref b in
      while !bits <> 0 do
        let low = !bits land - !bits in
        let bit =
          match low with
          | 1 -> 0 | 2 -> 1 | 4 -> 2 | 8 -> 3
          | 16 -> 4 | 32 -> 5 | 64 -> 6 | _ -> 7
        in
        f (col0 + bit);
        bits := !bits land (!bits - 1)
      done
    end
  done
