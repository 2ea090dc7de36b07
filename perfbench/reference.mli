(** The reference kernel: a fixed, allocation-free CPU loop, timed
    between the rounds of every measured loop.

    The benchmark's host is shared. Other tenants slow it down by tens of
    percent for tens of seconds, with no steal time to show for it, so raw
    wall times of the same work spread far wider between runs than any
    useful regression bound. This kernel slows down with the host, and
    only with the host: it calls nothing in [lib/] and allocates nothing,
    so it does no GC work on the program's behalf. Dividing a measured
    time by the host's current {!slowdown} gives the time at reference
    speed — on a host where one kernel run takes {!nominal_ns}. *)

val nominal_ns : int
(** 1 ms. *)

val sample : unit -> float
(** Mean nanoseconds of one kernel run, over a burst of twelve. *)

val slowdown : float list -> float
(** Mean sample over {!nominal_ns}: above 1 when the host is slow. *)
