(* Every timestamp the benchmark takes comes from here: CLOCK_MONOTONIC
   through bechamel's allocation-free stub. The adjustable wall clock
   ([Unix.gettimeofday]) can step backwards and is never used. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let since_ns t0 = now_ns () - t0
let seconds ns = float_of_int ns /. 1e9
