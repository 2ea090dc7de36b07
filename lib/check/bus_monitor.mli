(** Per-bus protocol assertion monitors (the native-bus counterpart of
    {!Splice_sis.Sis_monitor}).

    Each bus gets a cycle-by-cycle checker registered through
    {!Splice_sim.Kernel.add_check} under the name ["<bus>-protocol"]. The
    checker watches the SIS lines through the bus's combinational adapter
    mapping (the native mirrors of Figs 4.5–4.8), reads them through a
    {!Splice_sis.Sis_phase} decoder, and raises
    {!Splice_sim.Kernel.Check_failed} on a handshake-axiom violation,
    worded in the bus's own signal names. A rule table per bus, in this
    module, is the one per-bus declaration of which axioms bind it — e.g.
    PLB's addrAck-before-dataAck ordering, OPB's single-cycle
    [Sln_XferAck] and no back-to-back selects, APB's setup→enable
    phasing, qualifier stability across wait states on AHB, Avalon,
    Wishbone and FCB. No-write-stall binds exactly the buses whose
    {!Splice_syntax.Bus_caps.t} say strictly synchronous (APB, AXI).
    Buses registered by users without a table get the generic axioms.

    {b AXI} adds a native-side check ["axi-channels"] at ACLK edges over
    an {!Splice_buses.Axi.Channel} tracker: VALID held with stable payload
    until READY on all five channels, responses never outnumbering
    accepted requests, OKAY-only responses. The SIS-side rules run in
    the peripheral clock domain. *)

open Splice_sim
open Splice_sis

val attach : Kernel.t -> bus:string -> Sis_if.t -> unit
(** Attach the monitor for [bus] (dedicated if {!supported}, generic
    otherwise). The check name is ["<bus>-protocol"]. *)
