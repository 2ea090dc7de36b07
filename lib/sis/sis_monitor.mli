(** Runtime checker for the SIS communication axioms of §4.2.

    Attach to a kernel to have every simulated cycle validated against the
    protocol; violations raise [Kernel.Check_failed]. Checks:

    - [RST] quiesces the interface: no [IO_ENABLE] while in reset;
    - a presented write carries a non-zero [FUNC_ID] (id 0 is the read-only
      status register, §4.2.2);
    - [DATA_IN], [FUNC_ID] remain static while a write word awaits [IO_DONE];
    - [FUNC_ID] remains static while a read is outstanding;
    - [DATA_OUT_VALID] is only asserted together with [IO_DONE] (read
      responses, Fig 4.3);
    - [IO_ENABLE] pulses are single-cycle per request (a second cycle must be
      a new request, i.e. the previous one completed). *)

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
    [sis] (presentation → IO_DONE, request → DATA_OUT_VALID). Installs
    nothing otherwise. *)
