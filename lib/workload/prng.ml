type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let bits64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Mask to 62 bits so the conversion to a native 63-bit int stays
     non-negative. *)
  let v = Int64.to_int (Int64.logand (bits64 t) 0x3FFFFFFFFFFFFFFFL) in
  v mod n

let bool t = Int64.logand (bits64 t) 1L = 1L

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (v /. 9007199254740992.0)

let chance t p = float t 1.0 < p

let pick t = function
  | [] -> invalid_arg "Prng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let pick_arr t a =
  if Array.length a = 0 then invalid_arg "Prng.pick_arr: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t l =
  let a = Array.of_list l in
  shuffle t a;
  Array.to_list a
