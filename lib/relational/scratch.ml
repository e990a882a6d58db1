let min_words = 256
let max_words = 1 lsl 16

(* A power of two, so the eviction cursor wraps with a mask. *)
let slots = 8

(* An empty slot holds [empty]: no pooled length is 0. *)
let empty : int array = [||]

let pool = Array.init slots (fun _ -> Atomic.make empty)

(* The slot [free] replaces next when every slot is taken. *)
let victim = Atomic.make 0

let pooled n = n > min_words && n <= max_words

(* The first slot holding an array of length [n], claimed by swapping
   it for [empty]: a compare-and-set that another taker won fails, and
   the search goes on. *)
let rec claim n i =
  if i = slots then empty
  else
    let a = Atomic.get pool.(i) in
    if Array.length a = n && Atomic.compare_and_set pool.(i) a empty then a
    else claim n (i + 1)

let take n =
  if not (pooled n) then Array.make n 0
  else
    let a = claim n 0 in
    if a == empty then Array.make n 0
    else begin
      Array.fill a 0 n 0;
      a
    end

let rec place a i = i < slots && (Atomic.compare_and_set pool.(i) empty a || place a (i + 1))

(* A replaced array is dropped to the GC: a taker that read it from the
   slot first fails its compare-and-set. *)
let free a =
  if pooled (Array.length a) && not (place a 0) then
    Atomic.set pool.(Atomic.fetch_and_add victim 1 land (slots - 1)) a

let retained () = Array.fold_left (fun words s -> words + Array.length (Atomic.get s)) 0 pool
