(** What one traced section of a workload yields. *)

type t = {
  metrics : Metric.t list;  (** per-layer, times at reference speed *)
  throughput : float;  (** of the traced loop, at reference speed *)
  spans : Spans.span array;
}

val make : slowdown:float -> throughput:float -> spans:Spans.span array -> Metric.t list -> t
(** Normalises the metrics' times by [slowdown]. *)
