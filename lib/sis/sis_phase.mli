(** The SIS transfer decoder: the one reading of the §4.2 protocol
    (Figs 4.2–4.4) behind every observer of the SIS lines — the
    [sis-protocol] check, the SIS tracer, the per-bus protocol rules and
    the coverage sampler.

    A presentation is a one-cycle [IO_ENABLE] strobe, [DATA_IN_VALID]
    selecting a write word or a read request. [IO_DONE] without
    [DATA_OUT_VALID] acknowledges a write, [DATA_OUT_VALID] a read. At most
    one transfer is outstanding (§4.2.1): a write presented without
    [IO_DONE] until its acknowledge, a read presented without
    [DATA_OUT_VALID] until its data. Reset drops it.

    Each observer owns a decoder and, once per sampled cycle, calls
    {!sample} (read the six lines), reads the cycle's lines and the state
    the cycle found, then calls {!advance} before the cycle ends ([advance]
    takes a presented write word from the live DATA_IN). An observer that
    raises in between (a failed check) leaves the state as it was. Nothing
    allocates per cycle. *)

open Splice_sim

type phase = Idle | Reset | Write | Read | Wait_w | Wait_r | Ack_w | Ack_r
type transfer = Quiet | Writing | Reading

type t = private {
  sis : Sis_if.t;
  mutable rst : bool;  (** the sampled cycle's lines, from here ... *)
  mutable io_enable : bool;
  mutable data_in_valid : bool;
  mutable data_out_valid : bool;
  mutable io_done : bool;
  mutable func_id : int;  (** ... to here *)
  mutable phase : phase;
      (** the sampled cycle's class: reset, else a presentation, else an
          acknowledge (write first), else a wait, else idle *)
  mutable transfer : transfer;  (** outstanding before the sampled cycle *)
  mutable held_fid : int;  (** last presentation's FUNC_ID; -1 after reset *)
  mutable prev_done : bool;  (** IO_DONE a cycle back; false after reset *)
  mutable prev : phase;
      (** [phase] a cycle back; [Reset] before the first cycle since an
          instance reset. A presentation a cycle back is [Write] or
          [Read] here. *)
  mutable waits : int;  (** cycles the outstanding transfer has waited *)
  mutable held_raw : int;  (** outstanding write's DATA_IN ([get_raw]) *)
  mutable held_wide : Splice_bits.Bits.t;  (** the same, at 64 bits *)
  wide : bool;  (** DATA_IN is 64 bits wide *)
}

val create : Kernel.t -> Sis_if.t -> t
(** A quiet decoder, quiet again at each [Kernel.at_reset]. *)

val sample : t -> unit
val advance : t -> unit

val write_ack : t -> bool
(** IO_DONE without DATA_OUT_VALID (a read's acknowledge is
    DATA_OUT_VALID). *)

val ends : t -> bool
(** The cycle acknowledges the outstanding transfer. *)

val data_held : t -> bool
(** DATA_IN still equals the outstanding write's word. *)

val waited : t -> int
(** Cycles an acknowledge in this cycle waited: 0 on a presentation
    cycle, else the cycles since the outstanding presentation. *)
