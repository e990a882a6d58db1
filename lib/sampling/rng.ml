(* The four xoshiro256++ words live unboxed in one 32-byte buffer, read
   and written with [Bytes.get/set_int64_ne]: a draw keeps every word in
   a register and allocates nothing, where four mutable [int64] record
   fields would box each stored word. *)
type t = {
  state : Bytes.t;
  mutable draws : int;
}

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* SplitMix64 step, used only to expand the seed into the xoshiro state. *)
let splitmix64 state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_seed64 seed64 =
  let seed = ref seed64 in
  let state = Bytes.create 32 in
  for w = 0 to 3 do
    Bytes.set_int64_ne state (8 * w) (splitmix64 seed)
  done;
  (* The all-zero state is a fixed point of xoshiro; SplitMix64 cannot
     produce four zero outputs in a row, but guard anyway. *)
  if Bytes.for_all (fun c -> c = '\000') state then Bytes.set_int64_ne state 0 1L;
  { state; draws = 0 }

let create ~seed () = of_seed64 (Int64.of_int seed)

let copy t = { state = Bytes.copy t.state; draws = t.draws }

let draws t = t.draws

(* xoshiro256++.  Inlined into the typed draws below, so the result
   stays unboxed too. *)
let[@inline] bits64 t =
  t.draws <- t.draws + 1;
  let st = t.state in
  let s0 = Bytes.get_int64_ne st 0 and s1 = Bytes.get_int64_ne st 8 in
  let s2 = Bytes.get_int64_ne st 16 and s3 = Bytes.get_int64_ne st 24 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  Bytes.set_int64_ne st 8 (Int64.logxor s1 s2);
  Bytes.set_int64_ne st 0 (Int64.logxor s0 s3);
  Bytes.set_int64_ne st 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  Bytes.set_int64_ne st 24 (rotl s3 45);
  result

let split t = of_seed64 (bits64 t)

(* The low 62 bits of a draw, as a non-negative native int. *)
let[@inline] bits62 t = Int64.to_int (Int64.logand (bits64 t) 0x3FFFFFFFFFFFFFFFL)

(* Rejection sampling on the low 62 bits (exactly [0, max_int]) stays
   in OCaml's int range and avoids modulo bias: a draw [r] is kept when
   [r <= max_int - max_int mod bound].  That limit is never below
   [max_int - bound + 1], so a draw at or under it is kept without the
   division; only draws among the top [bound - 1] values pay for it. *)
let[@inline] accepts r bound = r <= max_int - bound + 1 || r <= max_int - (max_int mod bound)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let r = ref (bits62 t) in
  while not (accepts !r bound) do
    r := bits62 t
  done;
  !r mod bound

(* [bits64]'s step with the four words held in local [int64] refs,
   which the compiler keeps unboxed in registers, and stored back once.
   A rejected draw repeats the same bound. *)
let int_run t out ~bound k =
  if bound <= 0 then invalid_arg "Rng.int_run: bound must be positive";
  if k < 0 || k > Array.length out then invalid_arg "Rng.int_run: count outside the array";
  if k > 0 && k - 1 > max_int - bound then invalid_arg "Rng.int_run: bound overflows";
  let st = t.state in
  let s0 = ref (Bytes.get_int64_ne st 0) and s1 = ref (Bytes.get_int64_ne st 8) in
  let s2 = ref (Bytes.get_int64_ne st 16) and s3 = ref (Bytes.get_int64_ne st 24) in
  let i = ref 0 and draws = ref 0 in
  while !i < k do
    let a0 = !s0 and a1 = !s1 and a3 = !s3 in
    let r =
      Int64.to_int (Int64.logand (Int64.add (rotl (Int64.add a0 a3) 23) a0) 0x3FFFFFFFFFFFFFFFL)
    in
    let a2 = Int64.logxor !s2 a0 in
    let a3 = Int64.logxor a3 a1 in
    s1 := Int64.logxor a1 a2;
    s0 := Int64.logxor a0 a3;
    s2 := Int64.logxor a2 (Int64.shift_left a1 17);
    s3 := rotl a3 45;
    incr draws;
    let b = bound + !i in
    if accepts r b then begin
      Array.unsafe_set out !i (r mod b);
      incr i
    end
  done;
  Bytes.set_int64_ne st 0 !s0;
  Bytes.set_int64_ne st 8 !s1;
  Bytes.set_int64_ne st 16 !s2;
  Bytes.set_int64_ne st 24 !s3;
  t.draws <- t.draws + !draws

let float t =
  (* 53 high bits scaled to [0, 1). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. 0x1.0p-53

let positive_float t =
  let x = ref (float t) in
  while not (!x > 0.) do
    x := float t
  done;
  !x

let bool t = Int64.logand (bits64 t) 1L = 1L

let gaussian t =
  (* Marsaglia polar method; discards the second deviate for a
     stateless signature. *)
  let rec draw () =
    let u = (2. *. float t) -. 1. in
    let v = (2. *. float t) -. 1. in
    let s = (u *. u) +. (v *. v) in
    if s >= 1. || s = 0. then draw () else u *. sqrt (-2. *. log s /. s)
  in
  draw ()

let shuffle_in_place t array =
  for i = Array.length array - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = array.(i) in
    array.(i) <- array.(j);
    array.(j) <- tmp
  done

let choose t array =
  if Array.length array = 0 then invalid_arg "Rng.choose: empty array";
  array.(int t (Array.length array))
