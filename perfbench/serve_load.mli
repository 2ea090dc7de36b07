(** The [serve] workload: one client process holding two connections to
    [splice serve --jobs 2], each a closed loop over a seeded mix —
    about 60 % [spec] requests (random [Specgen] renderings), 30 %
    single-bus [fuzz] requests with count 1 whose seeds come from a small
    repeating pool, and 10 % [eval] requests. *)

type inputs
(** The seeded request material and every reply's expected content. *)

val inputs : seed:int -> (inputs, string) result
(** Generate the spec pool and the fuzz pool, and compute each fuzz
    entry's digest in process with [Diff.run]. *)

type server

val start : exe:string -> server
(** Spawn [exe serve --port 0 --jobs 2] and wait until it answers a
    ping. Raises [Failure] when it does not come up. *)

val stop : server -> Sysinfo.gc option
(** Ask for a shutdown, wait for the process (killing it after 10 s) and
    return the GC report it printed on exit. *)

val kill_all : unit -> unit
(** Kill and reap every server still running (for abnormal exits). *)

val pid : server -> int

type load = {
  run : Loop.run;  (** every request of both connections *)
  by_kind : (string * Stats.samples) list;  (** round trips per kind *)
  spans : Spans.span array;  (** empty unless traced *)
  cache : int * int;  (** summed [cache_hits], [cache_misses] of replies *)
}

val drive : seconds:float -> traced:bool -> seed:int -> inputs -> server -> Tally.t -> load
(** Both connections' closed loops for [seconds]. Every reply must be
    [ok]; [fuzz] and [eval] digests must equal the in-process ones. With
    [traced], each round trip becomes a span holding the server's span
    tree. *)

val reconcile : server -> Tally.t -> int
(** Scrape [/metrics] and check its per-(kind, outcome) request counters
    against what this client sent and received (one failed check when
    they differ). Returns the number of [overloaded] replies. *)

val section : load -> overloaded:int -> Metric.t list -> Section.t
(** The [serve.*], [eval.grid_ms] and [cache.hit_ratio] per-layer metrics
    of a traced {!drive}, plus the given extra ones. *)

val requests : server -> int
(** Requests sent to the server so far, pings included. *)
