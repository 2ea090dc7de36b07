(** Simulation signals: named, width-tagged wires with immediate
    (combinational) and deferred (registered) assignment.

    Combinational drives ({!set}) take effect immediately and bump a
    change counter the kernel uses for fixpoint detection. Registered drives
    ({!set_next}) are queued and commit simultaneously when the kernel calls
    {!commit_pending} at the clock edge — so every sequential process observes
    pre-edge values, as in RTL.

    The pending queue, change counter and default-name counter are
    {e domain-local} (one {!store} per OCaml domain, via [Domain.DLS]):
    within a domain run one {!Kernel} at a time, as before, while pool
    workers (see [Splice_par.Pool]) each get an independent store —
    concurrent kernels in different domains never share signal state.
    A signal resolves its domain's store once, when it is created, and
    every later write, queued write and change goes to that store without
    looking it up again; a kernel does the same at creation. Never pass a
    signal created in one domain to a kernel cycling in another: its writes
    would land in a store that kernel never commits.

    {1 Storage}

    A signal of width ≤ 63 holds its value as an immediate [int] (the
    value's bit pattern) and masks every write with a precomputed width
    mask, so the [bool]/[int] accessors, {!assign} and the deferred-write
    queue never allocate. 64-bit signals keep a [Bits.t] on a separate slow
    path. {!get} builds a [Bits.t] for narrow signals: it is for cold
    callers (waveforms, snapshots, the planner), not per-cycle models. *)

open Splice_bits

type t

type store
(** One domain's signal state: the deferred-write queue, the change
    counter, the attached flight recorder and the default-name counter. *)

val store : unit -> store
(** The calling domain's store (a [Domain.DLS] read): for cold paths such
    as kernel creation, never per cycle. *)

val create : ?name:string -> int -> t
(** [create ~name width] with initial value zero. Raises
    [Bits.Invalid_width] unless [1 <= width <= 64]. *)

val name : t -> string

val width : t -> int

val get : t -> Bits.t
(** Allocates for signals narrower than 64 bits; per-cycle code should use
    {!get_bool}, {!get_int} or {!assign}. *)

val get_bool : t -> bool
(** True iff non-zero (any width). *)

val get_int : t -> int
(** Raises [Failure] exactly as [Bits.to_int] does when the value does not
    fit a non-negative [int] (a 63- or 64-bit value with its top bit set). *)

val get_raw : t -> int
(** The stored low 63 bits as an immediate [int], never raising: for widths
    ≤ 63 an injective image of the value (negative when bit 62 of a 63-bit
    value is set); for 64-bit signals the top bit is dropped. This is the
    flight recorder's value. *)

val holds : t -> Bits.t -> bool
(** [holds s b] is [Bits.equal (get s) b] without building a [Bits.t]. *)

val set : t -> Bits.t -> unit
(** Immediate combinational drive. Raises [Bits.Width_mismatch] when widths
    differ. *)

val set_bool : t -> bool -> unit
(** For 1-bit signals. *)

val set_int : t -> int -> unit
(** Masked to the signal width, like [Bits.of_int]. *)

val assign : dst:t -> src:t -> unit
(** Wire copy: [assign ~dst ~src] is [set dst (get src)] without building a
    [Bits.t]. Raises [Bits.Width_mismatch] when widths differ. *)

val set_next : t -> Bits.t -> unit
(** Deferred registered drive; last write to a signal in a cycle wins.
    Raises [Bits.Width_mismatch] when widths differ. *)

val set_next_bool : t -> bool -> unit
(** For 1-bit signals. *)

val set_next_int : t -> int -> unit
(** Masked to the signal width, like {!set_int}. *)

val assign_next : dst:t -> src:t -> unit
(** Registered wire copy: [set_next dst (get src)] without building a
    [Bits.t]. Raises [Bits.Width_mismatch] when widths differ. *)

val change_count : store -> int
(** The store's counter, incremented whenever any of its signals actually
    changes value. *)

val on_change : t -> (unit -> unit) -> unit
(** [on_change s f] subscribes [f] to the signal's fan-out list: it fires
    whenever the signal's value actually changes (immediately after the new
    value becomes visible), whether via {!set} or a {!commit_pending}. The
    [`Event] and [`Compiled] kernel schedulers use this to mark reader
    components dirty (and [`Compiled] to discover writer→reader edges at
    seal time); listeners must be cheap, must not drive signals, and cannot
    be removed. *)

val attach_recorder : store -> Splice_obs.Recorder.t option -> unit
(** Point a domain's signal store at a flight recorder (or detach
    with [None]): every subsequent {e actual} value change in that domain
    — immediate {!set} or committed {!set_next} — is recorded as a
    [Signal_change] event. The cycling kernel re-attaches its own
    recorder at the start of every cycle, so interleaved kernels in one
    domain never record into each other's rings. Intern ids are cached on
    the signal (keyed by the recorder's stamp): recording never hashes. *)

val commit_pending : store -> unit
(** Apply all of the store's queued {!set_next} writes, newest first (so
    the last write to a signal wins, and changes, recorder events and
    listener firings follow reverse write order). Called by the kernel. The queue is
    emptied before any write is applied, so an exception raised mid-commit
    (e.g. by a listener) never leaves stale writes to be replayed by the
    next cycle. *)

val clear_pending : unit -> unit
(** Drop queued writes (used when tearing a simulation down mid-cycle). *)

val clear_pending_for : owner:int -> unit
(** Drop only the queued writes to signals stamped with [owner] (see
    {!set_owner}); the other writes keep their order. A harness retiring one simulation mid-cycle uses this so
    it cannot drop writes belonging to a cached design that will replay
    later in the same domain. *)

val set_owner : t -> owner:int -> unit
(** Stamp the signal as belonging to the design of the kernel with id
    [owner] (a {!Kernel.id}; 0 = unowned). Hosts stamp every signal they
    create so teardown can scope {!clear_pending_for}. *)

val owner : t -> int

val record_created : (unit -> 'a) -> 'a * t array
(** [record_created f] runs [f] and returns its result together with every
    signal created (in this domain) during the call, in creation order.
    Nest-safe: an inner window observes only its own creations while the
    outer window keeps accumulating. Hosts wrap design elaboration in this
    to learn the signal set they must snapshot for cache replay. *)

val restore_value : t -> Bits.t -> unit
(** Write a snapshotted value back {e silently}: no listeners, no recorder
    event, no change-counter bump. Only for cache replay, between a
    {!Kernel} reset and the next cycle — nothing may be watching. Raises
    [Bits.Width_mismatch] like {!set}. *)

val reset_names : unit -> unit
(** Restart the domain-local [sigN] default-name counter. Harnesses that
    build one isolated simulation per task call this first, so default
    names — which can appear in failure messages — do not depend on what
    else ran in the same domain. *)
