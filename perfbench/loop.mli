(** The closed loop every workload runs, and the end-to-end metrics it
    yields.

    A loop runs in rounds of about {!round_s}. Before the first round and
    after each one, with every worker idle, it takes a {!Reference}
    sample (about 12 ms), so the host's slowdown is known round by round.
    The host also steals whole time slices when both of its CPUs are
    busy (the [serve] workload), which an idle-time sample cannot see;
    [/proc/stat] counts them. Each round's times are scaled by the share
    of its CPU time that was not stolen and divided by the slowdown
    measured around it: the metrics are at reference speed. *)

val round_s : float

type round = {
  ops : int;
  elapsed_ns : int;
  slowdown : float;  (** {!Reference.slowdown} around the round *)
  stolen : float;  (** share of the round's non-idle CPU time stolen *)
}

type run = {
  by_round : round array;
  ops : int;
  kept : Stats.reservoir array;
      (** per worker, a uniform sample of the operations' latencies (2{^18}
          in all), each packed with its round's index; its memory is
          fixed, so it does not grow with the program's speed *)
}

val run : ?workers:int -> seconds:float -> (worker:int -> int -> unit) -> run
(** [workers] (default 1) closed loops — on threads when more than one —
    call [op ~worker 0], [op ~worker 1], ... back to back for [seconds]
    of rounds in total, timing each call. Every worker makes at least one
    call per round. An exception from [op] stops the run and is
    re-raised. *)

val slowdown : run -> float
(** Measured time over time at reference speed, for the whole run. *)

val throughput : run -> float
(** Operations per second of round time at reference speed. *)

val end_to_end : setup_s:float -> rss_mb:float -> Tally.t -> run -> Metric.t list
(** [setup_s], [throughput_ops_s], [latency_ms_p50], the tail latency,
    [ok_ratio] (operations that passed their check, over those attempted)
    and [peak_rss_mb]. Latencies are percentiles of the kept operations'
    latencies at reference speed. The tail is [latency_ms_p99] when the run
    holds enough operations for it under the ten-sample rule, else
    [latency_ms_p90]. *)

val raw_summary : run -> string
(** Measured throughput, p50 and slowdown before normalisation, for a
    human reader. *)

val median_setup : ?discard:('a -> unit) -> reps:int -> (unit -> 'a) -> float * 'a
(** Run a set-up [reps] times (at least once), with a reference sample
    between repetitions: the median seconds at reference speed and the
    last result. Every earlier result goes to [discard], untimed. *)
