(** A simulation component: a named pair of callbacks plus a sensitivity
    declaration.

    [comb] computes combinational outputs from current signal values (run to
    a fixpoint by the kernel before each clock edge); [seq] models the
    clocked process body (runs once per edge; registered updates must go
    through [Signal.set_next]).

    {1 Sensitivity}

    [reads] declares the complete set of signals the [comb] callback reads.
    The kernel only re-evaluates a component when one of its declared reads
    changed — so the declaration is a contract: [comb] must be a
    deterministic function of exactly those signals (plus, when [state] is
    true, internal state that only the component's own [seq] mutates).
    Every [comb] declares its reads; one that reads only its own state
    declares [~reads:[]] together with [~state:true] or a [seq].

    [state] marks the combinational output as also depending on clocked
    internal state, so the kernel re-arms the component after every clock
    edge in addition to its signal sensitivities. It defaults to [true]
    whenever a [seq] callback is supplied; pass [~state:false] for
    components whose [seq] only does bookkeeping that [comb] never reads
    (e.g. metrics). *)

type t = {
  name : string;
  comb : unit -> unit;
  seq : unit -> unit;
  reads : Signal.t list;
      (** [comb] re-runs when any of these changes ([[]] without a [comb]) *)
  edge : bool;
      (** [comb] additionally re-runs after every clock edge
          (state-dependent); always [false] without a [comb] *)
  has_comb : bool;  (** false when no [comb] was supplied (callback is a nop) *)
  mutable dirty : bool;  (** kernel-owned: queued for (re-)evaluation *)
  mutable reg_gen : int;
      (** kernel-owned: generation id of the kernel this component's fan-out
          listeners belong to (0 = never registered). Stamping per kernel —
          instead of a sticky boolean — lets a component be reused by a
          later kernel: the new kernel re-registers, and the old kernel's
          listeners become no-ops instead of corrupting its dirty counter. *)
  mutable rec_stamp : int;
      (** kernel-owned: flight-recorder stamp validating [rec_id] *)
  mutable rec_id : int;  (** kernel-owned: cached recorder intern id *)
  reset : unit -> unit;
      (** restore closure-held state to its construction-time value; run
          by [Kernel.reset] when a cached design is replayed *)
}

val make :
  ?reads:Signal.t list ->
  ?state:bool ->
  ?comb:(unit -> unit) ->
  ?seq:(unit -> unit) ->
  ?reset:(unit -> unit) ->
  string ->
  t
(** Missing callbacks default to no-ops. A component without [comb] is never
    scheduled for combinational evaluation; one with [comb] but no [reads]
    raises [Invalid_argument] naming the component. [state] defaults to
    [true] iff [seq] is given (see the sensitivity contract above).
    [reset] (default no-op) must restore every ref and mutable record
    captured by the callbacks to the exact value it held when [make]
    returned — the contract that makes {!Kernel.reset} replay equivalent to
    a fresh build. *)

val name : t -> string
