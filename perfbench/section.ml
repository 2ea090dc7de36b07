type t = { metrics : Metric.t list; throughput : float; spans : Spans.span array }

let make ~slowdown ~throughput ~spans metrics =
  { metrics = Metric.at_reference_speed ~slowdown metrics; throughput; spans }
