(** Monotonic nanosecond clock ([bechamel.monotonic_clock]). *)

val now_ns : unit -> int
val since_ns : int -> int
(** [since_ns t0] is [now_ns () - t0]. *)

val seconds : int -> float
(** Nanoseconds to seconds. *)
