type samples = { mutable data : int array; mutable len : int }

let samples () = { data = Array.make 1024 0; len = 0 }

let add s v =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let count s = s.len
let to_array s = Array.sub s.data 0 s.len

let sorted s =
  let a = to_array s in
  Array.sort compare a;
  a

(* Algorithm R: the first [capacity] values, then each later one replaces
   a uniformly drawn slot with probability capacity / seen *)
type reservoir = { slots : int array; mutable seen : int; rng : Splice.Splitmix.t }

let reservoir ~capacity ~seed =
  { slots = Array.make capacity 0; seen = 0; rng = Splice.Splitmix.make seed }

let offer r v =
  let cap = Array.length r.slots in
  (if r.seen < cap then r.slots.(r.seen) <- v
   else
     let j = Splice.Splitmix.int r.rng (r.seen + 1) in
     if j < cap then r.slots.(j) <- v);
  r.seen <- r.seen + 1

let seen r = r.seen
let kept r = Array.sub r.slots 0 (min r.seen (Array.length r.slots))

(* Integer arithmetic throughout: [1. -. 0.9] is just below 0.1 in binary
   floating point, which would make 100 samples fail the p90 rule. *)
let rank ~n ~per_mille = max 1 (((per_mille * n) + 999) / 1000)

let percentile a ~per_mille =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  a.(rank ~n ~per_mille - 1)

let beyond ~n ~per_mille = if n = 0 then 0 else n - rank ~n ~per_mille
let supported ~n ~per_mille = beyond ~n ~per_mille >= 10

let tail ~n =
  List.find_opt
    (fun (_, per_mille) -> supported ~n ~per_mille)
    [ ("p99", 990); ("p90", 900) ]

let median = function
  | [] -> invalid_arg "Stats.median: empty"
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
