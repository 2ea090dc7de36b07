(** Sample collection and the percentile rules every reported timing
    follows. *)

type samples
(** A growable buffer of integer samples (nanoseconds, usually). *)

val samples : unit -> samples
val add : samples -> int -> unit
val count : samples -> int

val to_array : samples -> int array
(** A copy, in insertion order. *)

val sorted : samples -> int array
(** A sorted copy. *)

type reservoir
(** A uniform random sample of fixed size from a stream of values, whose
    memory does not grow with the stream — so the benchmark's own memory
    does not grow with the program's speed. *)

val reservoir : capacity:int -> seed:int -> reservoir
(** Allocated in full up front. *)

val offer : reservoir -> int -> unit
val seen : reservoir -> int

val kept : reservoir -> int array
(** The sample: every value seen when there were at most [capacity]. *)

val percentile : 'a array -> per_mille:int -> 'a
(** Nearest-rank percentile of a sorted, non-empty array: the sample at
    rank [ceil (per_mille * n / 1000)]. Raises [Invalid_argument] on an
    empty array. *)

val beyond : n:int -> per_mille:int -> int
(** How many of [n] samples lie strictly above the nearest-rank
    percentile. *)

val supported : n:int -> per_mille:int -> bool
(** The ten-sample rule: a percentile is reported only when at least ten
    samples lie beyond it. *)

val tail : n:int -> (string * int) option
(** The highest of p99 and p90 that [n] samples support, as
    [(label, per_mille)] — e.g. [("p99", 990)] — or [None]. *)

val median : float list -> float
(** Median of a non-empty list (mean of the middle pair when even). Raises
    [Invalid_argument] on an empty list. *)

val mean : float list -> float
(** Mean of a list; 0 for an empty one. *)
