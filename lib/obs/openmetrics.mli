(** OpenMetrics / Prometheus text exposition of metric snapshots, so CI
    can track cycle counts, comb evaluations and fuzz throughput across
    commits with stock scraping tools.

    Mapping: registry paths sanitize to [splice_]-prefixed names
    ([sim/comb_evals] → [splice_sim_comb_evals]); counters are exposed as
    [<name>_total], gauges verbatim, histograms as cumulative
    [<name>_bucket{le="…"}] series (one per limit plus [+Inf]) with
    [<name>_count] and [<name>_sum]. The exposition always ends with the
    [# EOF] terminator the OpenMetrics spec requires.

    Beyond whole-registry snapshots, the module renders {e labeled}
    families ({!family}) for services that key one metric
    by request kind, outcome or bus — label values are escaped per the
    spec ({!escape_label_value}), so hostile bus or spec names cannot
    break the line grammar. Compose bodies with {!render_body} /
    {!of_metrics_body} and terminate the concatenation with {!eof}. *)

type hist = {
  om_limits : int array;  (** upper bounds, excluding [+Inf] *)
  om_buckets : int array;
      (** per-bucket (non-cumulative) counts; one trailing overflow entry *)
  om_sum : int;
  om_count : int;
}

type value = Int of int | Float of float
type label = string * string

val of_metrics : Metrics.t -> string
(** Snapshot a live registry ({!of_metrics_body} + {!eof}). *)

val render :
  counters:(string * int) list ->
  gauges:(string * int) list ->
  histograms:(string * hist) list ->
  string
(** The same exposition over raw snapshot data — used by the trace query
    engine for registries reconstructed from flight-recorder dumps. *)

(** {1 Composable bodies (no [# EOF])} *)

val of_metrics_body : Metrics.t -> string

val render_body :
  counters:(string * int) list ->
  gauges:(string * int) list ->
  histograms:(string * hist) list ->
  string

val family :
  name:string -> typ:[ `Counter | `Gauge ] -> (label list * value) list -> string
(** One [# TYPE] line plus one sample line per (labelset, value); [name]
    goes through {!sanitize}, counter samples get the [_total] suffix,
    label values through {!escape_label_value}. *)

val eof : string
(** ["# EOF\n"] — append exactly once per exposition. *)

(** {1 Escaping} *)

val sanitize : string -> string
(** [splice_] prefix + every character outside [[a-zA-Z0-9_:]] replaced
    with [_]. *)

val escape_label_value : string -> string
(** Escape a label value per the OpenMetrics spec: backslash, double
    quote and line feed become backslash-escaped two-character
    sequences. *)

val labels : label list -> string
(** Render a labelset as [{k=quoted-v,…}] (empty string for the empty
    list), values escaped. *)
