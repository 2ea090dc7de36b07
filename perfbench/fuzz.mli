(** The [fuzz] workload: one caller, no domain pool. Operation [i] is
    [Diff.run] with count 1 on spec seed [Diff.iteration_seed seed i],
    over every bus, under the program's default scheduler set, with the
    design cache on. *)

val setup : unit -> (unit, string) result
(** One cold cell: a fixed spec on every bus under every scheduler with
    the design cache off. Independent of the run's seed, so set-up time
    compares across seeds. *)

val op : Tally.t -> seed:int -> int -> unit
(** Operation [i]; passes only when the report has no failure. *)

val exact_counters : seed:int -> specs:int -> Splice.Json.t
(** For the first [specs] operations' seeds: each [Diff.run]'s [r_calls]
    and [r_digest], and — on fresh, uncached hosts — simulated cycles,
    comb evaluations and minor-heap words per scheduler and bus. Counts
    only; two runs with the same seed print the same block. *)

val traced : seconds:float -> seed:int -> Tally.t -> Section.t
(** The traced section: the operation re-done from the benchmark's own
    code, so that spec generation, validation, cache acquisition, host
    creation, monitor attachment and each bus's calls get their own
    spans. Returns the [check.*], [syntax.*], [driver.create_us],
    [cache.*] and [buses.*] per-layer metrics. *)
