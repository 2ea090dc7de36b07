(* OpenMetrics / Prometheus text exposition of a metrics registry, so CI
   can scrape cycle counts, comb_evals and fuzz throughput across PRs
   with stock tooling. One metric family per registered metric:
   counters end in `_total`, histograms expose cumulative `_bucket{le=…}`
   series plus `_count`/`_sum`, and the exposition ends with `# EOF` as
   the OpenMetrics spec requires.

   Label values are escaped per the OpenMetrics ABNF (backslash, double
   quote and line feed become backslash-escaped sequences) — a bus or
   spec name with a quote in it must not be able to break the
   exposition's line grammar. *)

type hist = {
  om_limits : int array;  (* upper bounds, excluding +Inf *)
  om_buckets : int array;  (* per-bucket counts; last entry is overflow *)
  om_sum : int;
  om_count : int;
}

type value = Int of int | Float of float
type label = string * string

(* Metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*; the registry's
   slash-separated paths map onto underscores under a fixed prefix. *)
let sanitize name =
  let b = Buffer.create (String.length name + 7) in
  Buffer.add_string b "splice_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let escape_label_value s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let labels = function
  | [] -> ""
  | ls ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
             ls)
      ^ "}"

let value_string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.6g" f

let eof = "# EOF\n"

let typ_name = function `Counter -> "counter" | `Gauge -> "gauge"

let add_family b ~name ~typ series =
  let name = sanitize name in
  Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name (typ_name typ));
  let suffix = match typ with `Counter -> "_total" | `Gauge -> "" in
  List.iter
    (fun (ls, v) ->
      Buffer.add_string b
        (Printf.sprintf "%s%s%s %s\n" name suffix (labels ls) (value_string v)))
    series

let family ~name ~typ series =
  let b = Buffer.create 256 in
  add_family b ~name ~typ series;
  Buffer.contents b

let add_hist_series b name h =
  let le limit = labels [ ("le", limit) ] in
  let cum = ref 0 in
  Array.iteri
    (fun i limit ->
      cum := !cum + (if i < Array.length h.om_buckets then h.om_buckets.(i) else 0);
      Buffer.add_string b
        (Printf.sprintf "%s_bucket%s %d\n" name (le (string_of_int limit)) !cum))
    h.om_limits;
  Buffer.add_string b
    (Printf.sprintf "%s_bucket%s %d\n" name (le "+Inf") h.om_count);
  Buffer.add_string b (Printf.sprintf "%s_count %d\n" name h.om_count);
  Buffer.add_string b (Printf.sprintf "%s_sum %d\n" name h.om_sum)

let render_body ~counters ~gauges ~histograms =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, v) -> add_family b ~name ~typ:`Counter [ ([], Int v) ])
    counters;
  List.iter
    (fun (name, v) -> add_family b ~name ~typ:`Gauge [ ([], Int v) ])
    gauges;
  List.iter
    (fun (name, h) ->
      let name = sanitize name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" name);
      add_hist_series b name h)
    histograms;
  Buffer.contents b

let render ~counters ~gauges ~histograms =
  render_body ~counters ~gauges ~histograms ^ eof

let hist_of_metrics h =
  let limits, overflow =
    List.partition_map
      (fun (limit, count) ->
        match limit with Some l -> Left (l, count) | None -> Right count)
      (Metrics.bucket_counts h)
  in
  {
    om_limits = Array.of_list (List.map fst limits);
    om_buckets =
      Array.of_list
        (List.map snd limits @ [ (match overflow with c :: _ -> c | [] -> 0) ]);
    om_sum = Metrics.total h;
    om_count = Metrics.observations h;
  }

let of_metrics_body m =
  render_body
    ~counters:
      (List.map
         (fun c -> (Metrics.counter_name c, Metrics.count c))
         (Metrics.counters m))
    ~gauges:
      (List.map (fun g -> (Metrics.gauge_name g, Metrics.level g)) (Metrics.gauges m))
    ~histograms:
      (List.map
         (fun h -> (Metrics.histogram_name h, hist_of_metrics h))
         (Metrics.histograms m))

let of_metrics m = of_metrics_body m ^ eof
