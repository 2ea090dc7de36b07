(** The simulation service: a TCP daemon speaking the line-delimited JSON
    {!Protocol} (plus plain HTTP GET on the same port for [/metrics],
    [/healthz] and [/stats]).

    Execution shards across a {!Splice_par.Pool} of [max 1 jobs] worker
    domains behind a bounded queue: when [queue_limit] requests are
    already waiting beyond the idle workers, new work is shed with an
    [overloaded] reply instead of buffering — backpressure is explicit.
    A fuzz request runs the [splice fuzz] config itself
    ({!Splice_check.Diff.run}).

    Determinism: each request is one self-contained task on one domain,
    so fuzz digests, eval digests and failure dumps are byte-identical
    to the same CLI invocation at any [-j]. Observability — request
    spans, the latency/queue/cache series of {!metrics_exposition} — is
    wall-clock and never feeds the digests. *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; read it back with {!port} *)
  jobs : int;  (** worker domains executing requests (at least one) *)
  queue_limit : int;
      (** requests admitted to wait beyond the idle workers; [0] runs a
          request only when a worker is free for it *)
  dump_dir : string option;
      (** persist failing requests' flight-recorder dumps here as
          [req-NNNNNN-dump.json]; the reply echoes the path *)
  max_line : int;  (** request lines beyond this many bytes are rejected *)
}

val default_config : config
(** 127.0.0.1, ephemeral port, 1 job, queue limit 16, no dump dir, 1 MiB
    line limit. *)

type t

val create : ?config:config -> unit -> t
(** Binds and listens (raises [Unix.Unix_error] if the address is taken)
    and spawns the worker pool, but accepts nothing until {!serve}. *)

val port : t -> int
val served : t -> int
(** Requests replied to so far (any outcome). *)

val serve : t -> unit
(** Accept loop; blocks until {!stop} (or a [shutdown] request), then
    drains — every admitted request gets its reply before this returns —
    and releases the pool and socket. Run it in a thread to keep the
    caller responsive. *)

val stop : t -> unit
(** Ask {!serve} to wind down. Idempotent, non-blocking; safe from any
    thread. In-flight requests still complete. *)

val metrics_exposition : t -> string
(** The [/metrics] body: the merged service + simulation registries
    ({!Splice_obs.Openmetrics}), per-(kind, outcome) request counters,
    p50/p95/p99 latency gauges, [splice_build_info],
    [splice_uptime_seconds], terminated by [# EOF]. *)

val stats_json : t -> Splice_obs.Json.t
(** The [/stats] body: uptime, queue depth, in-flight count, request
    table and latency percentiles as JSON. *)

val version : string
(** The release version, also [Splice.version]. *)
