(** Fixed-size domain pool for the embarrassingly parallel grids (the
    differential fuzz matrix, the evaluation tables, the bench outer
    loops).

    A pool spawns its worker domains once at {!create} and feeds them
    from a work queue of closures; {!map_ordered} fans an array out over
    the workers {e plus the calling domain} and returns results in input
    order regardless of completion order. A pool created with
    [~domains:0] (the [-j 1] configuration) spawns nothing and
    [map_ordered] degenerates to [Array.map] — the exact sequential
    path, byte for byte.

    Determinism contract: the pool never makes scheduling visible to the
    caller. Tasks must not share mutable state (give each its own
    kernel, observability context and {!Splitmix} stream); under that
    discipline every [map_ordered] result — and any fold over it — is
    bit-identical at every worker count.

    Exceptions raised by a task are caught in the worker, and the one
    from the {e lowest} input index is re-raised (with its backtrace) in
    the caller once the whole map has drained — so failure reporting is
    deterministic too, and the pool stays usable after a failing map. *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains] spawns [domains] worker domains (default
    [Domain.recommended_domain_count () - 1], i.e. saturate the machine
    while the caller participates; [0] = fully sequential). *)

val domains : t -> int
(** Worker domains spawned (0 for a sequential pool). *)

val size : t -> int
(** Concurrent executors during a map: [domains t + 1] (the caller
    works too) — the number a [-j N] flag maps to. *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue a closure for any worker to run. The closure must handle
    its own errors: an escaping exception kills the worker's current
    task silently. Prefer {!map_ordered} unless fire-and-forget is
    really wanted. Raises [Invalid_argument] on a sequential or
    shut-down pool. *)

val queued : t -> int
(** Tasks enqueued (via {!submit} / {!try_submit}) and not yet taken by a
    worker. A point-in-time reading; only bounds enforced by
    {!try_submit} are reliable. *)

val try_submit : t -> limit:int -> (unit -> 'a) -> (unit -> 'a) option
(** Bounded {!submit}: enqueue [f] only when fewer than [limit] tasks
    would wait beyond the idle workers (queued minus idle < [limit]) —
    the check and the enqueue are one atomic step, so [~limit:0] runs a
    task only when a worker is free for it. [None] means the caller must
    shed load (reply "overloaded", retry later) rather than buffer
    unboundedly. [Some await]: [await ()] blocks until a worker has run
    [f] and returns its result (re-raising its exception); by then that
    worker already counts as idle again, so a task submitted right after
    [await] returns is never refused for it. Raises like {!submit} on
    sequential or shut-down pools, and [Invalid_argument] on a negative
    [limit]. *)

val map_ordered : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_ordered p f arr]: [Array.map f arr], computed by [size p]
    domains, results in input order. Blocks until every element is
    done. *)

val shutdown : t -> unit
(** Join all workers. Idempotent. The pool cannot be used afterwards
    (except [shutdown] again). *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** Create, run, and always shut down (also on exceptions). *)

val of_jobs : int -> t option
(** Map a [-j N] flag to a pool: [None] for [N <= 1] (callers treat it
    as the plain sequential path with zero pool machinery), [Some pool]
    with [N - 1] workers otherwise. [N = 0] means auto:
    [Domain.recommended_domain_count ()] executors. *)

val jobs : t option -> int
(** The [-j] value a pool option represents ([1] for [None]). *)
