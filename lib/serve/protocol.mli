(** Wire protocol of the simulation service.

    Requests and replies are single-line JSON objects ({!Splice_obs.Json})
    over TCP — one request per line, one reply per line, in order. A
    request carries a [kind] field naming the operation plus
    kind-specific parameters; the optional [id] member (any JSON value)
    is echoed verbatim in the reply so clients can correlate pipelined
    requests. Replies always carry the server-assigned [req] serial,
    [kind], [ok], an [outcome] (see {!outcome_name}), and — for executed
    requests — a [spans] tree (queue_wait / elaborate / simulate /
    reply) plus [cache_hits]/[cache_misses] deltas. *)

type request =
  | Spec of { source : string }  (** parse + validate a specification *)
  | Eval  (** the Fig 9.2 grid; replies with rows and their digest *)
  | Fuzz of Splice_check.Diff.config
      (** a differential fuzz run — the [splice fuzz] config, read from
          [seed], [count], [bus], [sched], [ratio], [depth] and [cache]
          and checked by {!Splice_check.Diff.check}; failures carry the
          recorder dump *)
  | Trace of { dump : string }  (** summarize a flight-recorder dump *)
  | Sleep of { ms : int }  (** occupies an executor — for drain tests *)
  | Ping
  | Stats
  | Shutdown

val kind_name : request -> string
val kinds : string list

val max_count : int
(** Upper bound on a fuzz request's [count] — the daemon is a shared
    resource. *)

type outcome = Ok_ | Rejected | Failed | Overloaded | Errored | Draining

val outcome_name : outcome -> string
val ok_of_outcome : outcome -> bool

val parse : (Splice_obs.Json.t, string) result -> (request, string) result
(** [parse (Json.of_string line)]: the request a decoded line carries; a
    decode error is rejected as malformed JSON. Takes the decode result so
    a caller that also reads other members ([id], [kind]) decodes the line
    once. *)

val parse_line : string -> (request, string) result
(** [parse (Json.of_string line)]. *)

(** {1 Spans} *)

type span = { sp_name : string; sp_ns : int; sp_children : span list }

val span : ?children:span list -> string -> int -> span
val span_json : span -> Splice_obs.Json.t

(** {1 Reply envelope} *)

val reply :
  req:int ->
  ?id:Splice_obs.Json.t ->
  kind:string ->
  outcome:outcome ->
  ?fields:(string * Splice_obs.Json.t) list ->
  ?spans:span list ->
  unit ->
  Splice_obs.Json.t

(** {1 Line framing}

    Both ends of the socket: the daemon reads requests and the client
    reads replies with the same reader. *)

val write_all : Unix.file_descr -> string -> unit

type reader

val reader : Unix.file_descr -> reader

val read_line :
  reader -> max_line:int -> [ `Line of string | `Eof | `Oversized ]
(** The next line without its ['\n'] (and one trailing ['\r']), in time
    linear in its length. [`Oversized] once more than [max_line] bytes
    arrive without a newline. A clean EOF at a line boundary is [`Eof];
    an EOF mid-line drops the partial line (the peer vanished) and is
    [`Eof] too. *)
