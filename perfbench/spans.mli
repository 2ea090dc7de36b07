(** In-memory span recorder for the traced run.

    The benchmark wraps each call it makes into a layer's public functions
    in a span: a name, a start, an end and the span that caused it. Spans
    may carry counts measured at the same boundary (simulated cycles,
    minor-heap words, comb evaluations), so per-layer ratios are taken
    where the work happens. Nothing is written while the run measures;
    {!summary_json} is written out when it ends. Not thread-safe: one
    recorder per thread. *)

type t

type span = {
  name : string;
  parent : int;  (** index of the causing span, or [-1] for a root *)
  start_ns : int;
  end_ns : int;
  cycles : int;
  words : int;
  evals : int;
}

val create : unit -> t

val enter : t -> string -> int
(** Open a span as a child of the innermost open one; returns its id. *)

val leave : ?name:string -> ?cycles:int -> ?words:int -> ?evals:int -> t -> int -> unit
(** Close span [id] (renaming it when [name] is given, for outcomes only
    known at the end, such as a cache hit or miss). *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [enter], run, [leave] — also when the function raises. *)

val add : t -> span -> int
(** Record an already-closed span (e.g. one reported by a server). *)

val spans : t -> span array
val merge : t list -> span array
(** Concatenate recorders, re-basing parent ids. *)

val duration : span -> int

val self_time : start_ns:int -> end_ns:int -> (int * int) list -> int
(** A span's duration minus the part of [\[start_ns, end_ns)] covered by
    the union of its children's intervals (each clipped to the parent). *)

val self_times : span array -> int array
(** {!self_time} of every span, by index. *)

val named : span array -> string -> span list

val median_us : ?self:int array -> span array -> string -> float
(** Median duration, in microseconds, of the spans called [name] — or of
    their self times, when given [self] ({!self_times} of the same
    array). 0 when there are none. *)

val per_cycle : span list -> float * float * float
(** Summed nanoseconds, minor-heap words and comb evaluations, each over
    the summed simulated cycles. *)

val summary_json : span array -> Splice.Json.t
(** Per-name totals: count, total and self nanoseconds, cycles, words. *)
