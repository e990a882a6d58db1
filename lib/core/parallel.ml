let auto () = max 1 (Domain.recommended_domain_count ())

(* An optional [?domains] argument: [None] and values [<= 1] mean
   serial; [0] or negative are clamped to 1. *)
let resolve ?domains () =
  match domains with None -> 1 | Some d -> max 1 d

(* Split [n] items into at most [d] contiguous chunks of near-equal
   size: the first [n mod d] chunks get one extra item. *)
let chunks ~d n =
  let d = min d n in
  let base = n / d and extra = n mod d in
  List.init d (fun k ->
      let start = (k * base) + min k extra in
      let len = base + if k < extra then 1 else 0 in
      (start, len))

let chunked_init ?domains n f =
  if n < 0 then invalid_arg "Parallel.chunked_init: negative length";
  let d = resolve ?domains () in
  if d <= 1 || n <= 1 then f 0 n
  else begin
    match chunks ~d n with
    | [] -> [||]
    | (start0, len0) :: rest ->
      (* Spawn workers for the tail chunks, run the head chunk on the
         calling domain, then join in order.  Joining re-raises any
         worker exception. *)
      let workers =
        List.map (fun (start, len) -> Domain.spawn (fun () -> f start len)) rest
      in
      let head = f start0 len0 in
      Array.concat (head :: List.map Domain.join workers)
  end

let init ?domains n f =
  chunked_init ?domains n (fun start len -> Array.init len (fun i -> f (start + i)))

let map ?domains f xs =
  init ?domains (Array.length xs) (fun i -> f xs.(i))

let replicate_init ?domains rng n f =
  if n < 0 then invalid_arg "Parallel.replicate_init: negative replicate count";
  (* Children are split serially, in replicate order, before any domain
     starts: replicate i's stream and the parent's final state are both
     independent of the domain count. *)
  let children = Array.init n (fun _ -> Sampling.Rng.split rng) in
  init ?domains n (fun i -> f children.(i) i)
