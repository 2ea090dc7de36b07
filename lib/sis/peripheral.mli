(** Assembly of a complete Splice peripheral's SIS side: one user-logic stub
    model per function instance plus the arbitration unit, wired to a shared
    {!Sis_if.t} (the structure of Fig 5.1, minus the bus adapter which the
    [splice_buses] library supplies per bus). *)

open Splice_sim
open Splice_syntax

type t

val build :
  Kernel.t ->
  Spec.t ->
  behaviors:(string -> Stub_model.behavior) ->
  t
(** Instantiates stubs (every instance of every function, ids as assigned by
    the validator) and the arbiter, registers all components with the kernel,
    and attaches the SIS protocol monitor and its tracer. [behaviors] maps
    function names to calculation logic. *)

val sis : t -> Sis_if.t
val spec : t -> Spec.t

val stub : t -> string -> ?instance:int -> unit -> Stub_model.t
(** Raises [Not_found] for unknown functions/instances. *)

val stubs : t -> Stub_model.t list
val status_vector : t -> Splice_bits.Bits.t
(** Current CALC_DONE vector (what a status-register read returns). *)
