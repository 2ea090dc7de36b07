(** Auto-derived protocol coverage groups for the registered buses.

    The protocol points are rules over a {!Splice_sis.Sis_phase} decoder,
    the one the protocol checks read too: the (presentation, wait,
    acknowledge) classes they check are what the coverpoints count, so a
    covered bin is a scenario the monitors actually vetted. Bin sets are
    derived from the bus's
    registered [Bus_caps.t] — burst-length log ranges from
    [max_burst_words]/[dma_max_bytes], DMA direction bins only where
    [supports_dma], write-side wait bins only where [pseudo_async]
    (strictly synchronous buses may not stall writes, per the monitors).

    Coverage observes a design from outside, like [Bus_monitor]: the bus
    models know nothing of it. {!attach} hooks a built host's kernel,
    SIS lines and bus port after elaboration.

    One group per bus, named ["bus/<name>"], with points:
    - [phase]: aspect bins — reset, write, read, ack_w, ack_r, wait_r,
      idle (+ wait_w when pseudo-asynchronous); a presentation and its
      acknowledge in one cycle count both, a wait or idle cycle counts
      its {!Splice_sis.Sis_phase.phase};
    - [phase_seq]: transition bins over {!Splice_sis.Sis_phase.phase}
      (priority reset > write > read > ack_w > ack_r > waits > idle);
    - [grant]: arbiter grant patterns on IO_ENABLE — status-register
      grants, first data grant since reset, repeat of the previous
      presentation's FUNC_ID, switch to a new one;
    - [wait_r] (+ [wait_w]): per-word wait-state count ranges;
    - [burst], [dir], [dir_x_burst]: transaction-level points sampled by
      an observer on the bus port ([Bus_port.on_transaction]).

    The AXI4-Lite bridge is the one builtin whose native channels live in
    their own clock domain; its group has three extra points —
    [handshake] (per-channel VALID/READY fires and stalls off an
    {!Splice_buses.Axi.Channel} tracker, and command-FIFO backpressure,
    sampled on ACLK edges), [cdc_ratio] / [cdc_depth]
    (which cell of the clock-ratio x FIFO-depth design grid the run
    exercised) and their [ratio_x_depth] cross. *)

val group_name : string -> string
(** ["bus/<name>"]. *)

val declare : Cover.t -> bus:string -> unit
(** Create the bus's group and every point (idempotent). A bus missing
    from the registry gets a generic moderate shape (8-word bursts, no
    DMA, pseudo-asynchronous). *)

val attach :
  Cover.t -> bus:string -> Splice_sim.Kernel.t -> Splice_sis.Sis_if.t ->
  Splice_buses.Bus_port.t -> unit
(** Declare (if needed) and hook sampling into a built host: phase
    aspects, phase sequence, grants and wait-state counts from the
    kernel's settled view of the SIS lines; transaction points from an
    observer on the port; on ["axi"] the ACLK handshake bins and the CDC
    cell of the kernel's bridge. State lives in the hooks' closures, and
    every hook survives instance reset, so attach once per build. *)

val phase_totals : Cover.t -> int * int
(** (hit, total) over every bus group's [phase] and [phase_seq] bins —
    the protocol-phase coverage that [splice cover --fail-under] gates. *)
