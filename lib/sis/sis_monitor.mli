(** The two observers of the SIS layer itself: the [sis-protocol] check
    of §4.2 with its counters, and the SIS tracer. Both read the lines
    through a {!Sis_phase} decoder of their own, the one the per-bus
    protocol rules ([Bus_monitor]) and the coverage sampler ([Bus_cover])
    read too.

    The [sis-protocol] check raises [Kernel.Check_failed] on:

    - [IO_ENABLE] during [RST];
    - a presented write with [FUNC_ID] 0 (the read-only status register,
      §4.2.2);
    - while a write is outstanding: a new [IO_ENABLE], or [DATA_IN_VALID],
      [DATA_IN] or [FUNC_ID] not held;
    - while a read is outstanding: a new [IO_ENABLE], or [FUNC_ID] not
      held;
    - [DATA_OUT_VALID] without [IO_DONE] (read responses, Fig 4.3). *)

open Splice_sim

val attach : Kernel.t -> Sis_if.t -> func_ids:int list -> unit
(** Registers the [sis-protocol] check. The same check counts, into the
    kernel's [Obs.t], what it sees on the lines it already reads:

    - [sis/transactions] (one per IO_DONE-high cycle), [sis/writes] and
      [sis/reads] (presented word requests);
    - for the arbiter, [arbiter/grants] (IO_DONE-high cycles),
      [arbiter/grants/<id>] per id of [func_ids] (the grant goes to the
      function FUNC_ID selects), and an [arbiter/wait_cycles] histogram
      of request-strobe→first-grant latencies.

    A cycle is counted only once it completes, so a later check failing
    that cycle leaves it out. Counts are kept in plain fields and
    published to the registry whenever a kernel run returns or raises
    ({!Kernel.on_publish}). Nothing is counted on a kernel wired to
    [Obs.none]. *)

val attach_tracer : Kernel.t -> Sis_if.t -> unit
(** Tracing companion to {!attach}: when the kernel's [Obs.t] traces, an
    [on_settle] hook records one [word] instant per completed word and
    one [write id=N] / [read id=N] span per SIS word transfer on track
    [sis] (presentation → the acknowledge that ends its outstanding
    transfer). Installs nothing otherwise. *)
