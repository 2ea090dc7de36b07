(** The [fig92] workload: one caller issuing Fig 9.2 driver calls
    ([Interpolator.run]), each drawn by the seed over the paper's five
    implementations × four scenarios, on five hosts built during set-up
    and reused. *)

type cell = {
  impl : Splice.Interpolator.impl;
  impl_index : int;
  scenario : Splice.Interp_scenarios.t;
  result : int64;  (** [Interpolator.reference] of the scenario's inputs *)
  cycles : int;  (** the cell's [Cycles.measure] row entry *)
}

val impl_key : Splice.Interpolator.impl -> string
(** Metric-name form of an implementation, e.g. ["splice_plb"]. *)

val expected_digest : int64
(** [Cycles.digest] of the Fig 9.2 grid: [0x104db98f350ed66a]. *)

val digest_gate : expected:int64 -> Splice.Cycles.row list -> (unit, string) result
(** [Ok] when the rows fold to [expected]. *)

val oracle : ?expected:int64 -> unit -> (cell array, string) result
(** The twenty cells with their expected results and cycles, from
    [Cycles.measure] with the design cache off; [Error] when its grid
    digest is not [expected] (default {!expected_digest}). *)

val cycles_per_op : cell array -> float
(** Mean simulated cycles of a uniformly drawn cell: an exact count. *)

type hosts = Splice.Host.t array

val setup : ?expected:int64 -> cell array -> (hosts, string) result
(** Build the five hosts with the default scheduler and observability and
    call every cell once on them. [Error] when a result or cycle count
    differs from the oracle, or when the observed cycles do not fold to
    [expected]. *)

val call : Tally.t -> hosts -> cell -> unit
(** One checked driver call. *)

val op : cell array -> hosts -> Tally.t -> seed:int -> int -> unit
(** [op cells hosts tally ~seed] is the workload's operation [i]: a
    driver call on a cell drawn from a stream of [seed]. Must be applied
    to consecutive [i] from 0. *)

val traced : seconds:float -> seed:int -> cell array -> hosts -> Tally.t -> Section.t
(** The traced section: driver-call spans on the set-up hosts (60 % of
    [seconds]), then the same draws on one host per scheduler and on
    hosts under [Obs.none]. Returns the [driver.*], [sim.*] and [obs.*]
    per-layer metrics, with the traced driver-call throughput. *)
