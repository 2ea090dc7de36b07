(* The simulation service: a TCP daemon that accepts line-delimited JSON
   requests (and plain HTTP GETs on the same port for /metrics, /healthz
   and /stats), shards request execution across a `lib/par` domain pool
   with a bounded queue, and serves compiled designs out of the
   per-domain design cache.

   Concurrency model. Connection I/O runs on systhreads (all on the main
   domain: blocking syscalls release the runtime lock, so reads never
   starve each other). CPU-bound execution always goes through
   [Pool.try_submit] to a pool of [max 1 jobs] worker domains; excess
   load is shed with an `overloaded` reply rather than buffered — no
   more than [queue_limit] requests ever wait beyond the idle workers.
   Each worker runs one request at a time on its own domain-local state
   (signal store, design cache).

   Determinism contract. One request is one self-contained task on one
   domain: fuzz requests run [Diff.run] without a nested pool, so the
   report digest — and any failure dump — is byte-identical to the same
   [splice fuzz] invocation at any [-j], per the repo-wide seed-splitting
   contract. Wall-clock observability (spans, latency series, cache
   hit/miss) rides alongside and never feeds the digests. *)

open Splice_obs
module P = Protocol
module Pool = Splice_par.Pool

let version = "1.0.0"

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; read it back with {!port} *)
  jobs : int;
  queue_limit : int;
  dump_dir : string option;
  max_line : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    jobs = 1;
    queue_limit = 16;
    dump_dir = None;
    max_line = 1 lsl 20;
  }

type t = {
  cfg : config;
  fd : Unix.file_descr;
  port : int;
  pool : Pool.t;
  lock : Mutex.t;  (* guards every mutable field and both registries *)
  drained : Condition.t;
  mutable stopping : bool;
  mutable in_flight : int;
  mutable next_req : int;
  mutable served : int;
  started : float;
  service : Metrics.t;  (* daemon-side series: cache totals, latency *)
  sim : Metrics.t;  (* merged per-request simulation registries *)
  requests : (string * string, int ref) Hashtbl.t;  (* (kind, outcome) *)
}

(* the kernel's monotonic clock, as an int *)
let now_ns () = Int64.to_int (Splice_sim.Kernel.now_ns ())

(* ---- request execution (on a worker domain) -------------------------- *)

type exec = {
  x_outcome : P.outcome;
  x_fields : (string * Json.t) list;
  x_elab_ns : int;
  x_sim_ns : int;
  x_hits : int;
  x_misses : int;
  x_metrics : Metrics.t option;  (* simulation registry to merge *)
  x_dump : string option;  (* flight-recorder dump of a failing run *)
}

let plain outcome fields =
  {
    x_outcome = outcome;
    x_fields = fields;
    x_elab_ns = 0;
    x_sim_ns = 0;
    x_hits = 0;
    x_misses = 0;
    x_metrics = None;
    x_dump = None;
  }

let rejected msg = plain P.Rejected [ ("error", Json.String msg) ]

let cache_stats () =
  match Splice_cache.Design_cache.domain_stats () with
  | Some s ->
      (s.Splice_cache.Design_cache.hits, s.Splice_cache.Design_cache.misses)
  | None -> (0, 0)

let exec_spec source =
  let t0 = now_ns () in
  match
    Splice_syntax.Validate.of_string
      ~lookup_bus:Splice_buses.Registry.lookup_caps source
  with
  | Ok spec ->
      let open Splice_syntax in
      {
        (plain P.Ok_
           [
             ("device", Json.String spec.Spec.device_name);
             ("bus", Json.String spec.Spec.bus_name);
             ( "funcs",
               Json.List
                 (List.map
                    (fun (f : Spec.func) -> Json.String f.Spec.name)
                    spec.Spec.funcs) );
             ("spec", Json.String (Format.asprintf "%a" Spec.pp spec));
           ])
        with
        x_elab_ns = now_ns () - t0;
      }
  | Error issues ->
      rejected
        (String.concat "\n"
           (List.map
              (fun i -> Format.asprintf "%a" Splice_syntax.Validate.pp_issue i)
              issues))

let exec_eval () =
  let h0, m0 = cache_stats () in
  let t0 = now_ns () in
  let drows = Splice_eval.Cycles.measure_detailed () in
  let total = now_ns () - t0 in
  let h1, m1 = cache_stats () in
  let open Splice_eval.Cycles in
  let rows = List.map (fun d -> d.row) drows in
  let digest = Splice_eval.Cycles.digest rows in
  let elab =
    List.fold_left
      (fun acc d ->
        let k = d.kstats in
        acc
        + Int64.to_int
            (Int64.add k.Splice_sim.Kernel.elaborate_ns
               (Int64.add k.Splice_sim.Kernel.seal_ns
                  k.Splice_sim.Kernel.compile_ns)))
      0 drows
  in
  let elab = min elab total in
  {
    x_outcome = P.Ok_;
    x_fields =
      [
        ("digest", Json.String (Printf.sprintf "0x%016Lx" digest));
        ( "rows",
          Json.List
            (List.map
               (fun r ->
                 Json.Obj
                   [
                     ( "impl",
                       Json.String
                         (Splice_devices.Interpolator.impl_name r.impl) );
                     ("cycles", Json.Int r.total);
                   ])
               rows) );
      ];
    x_elab_ns = elab;
    x_sim_ns = max 0 (total - elab);
    x_hits = h1 - h0;
    x_misses = m1 - m0;
    x_metrics = Some (Metrics.merged (List.map (fun d -> Obs.metrics d.obs) drows));
    x_dump = None;
  }

let exec_fuzz cfg =
  let open Splice_check in
  let r = Diff.run cfg in
  let base =
    [
      ("iterations", Json.Int r.Diff.r_iterations);
      ("calls", Json.Int r.Diff.r_calls);
      ("buses", Json.List (List.map (fun b -> Json.String b) r.Diff.r_buses));
      ("digest", Json.String (Printf.sprintf "0x%016Lx" r.Diff.r_digest));
    ]
  in
  let outcome, fields, dump =
    match r.Diff.r_failure with
    | None -> (P.Ok_, base, None)
    | Some f ->
        ( P.Failed,
          base
          @ [
              ("iteration", Json.Int f.Diff.f_iteration);
              ("seed", Json.Int f.Diff.f_seed);
              ("bus", Json.String f.Diff.f_bus);
              ("sched", Json.String (Diff.sched_name f.Diff.f_sched));
              ( "func",
                match f.Diff.f_func with
                | Some fn -> Json.String fn
                | None -> Json.Null );
              ("message", Json.String f.Diff.f_message);
              ("spec", Json.String (Specgen.render f.Diff.f_spec));
              ("repro", Json.String (Diff.repro_command f));
            ],
          f.Diff.f_dump )
  in
  {
    x_outcome = outcome;
    x_fields = fields;
    x_elab_ns = r.Diff.r_build_ns;
    x_sim_ns = r.Diff.r_sim_ns;
    x_hits = r.Diff.r_cache_hits;
    x_misses = r.Diff.r_cache_misses;
    x_metrics = None;
    x_dump = dump;
  }

let exec_trace dump =
  match Query.of_string dump with
  | Ok d -> plain P.Ok_ [ ("summary", Json.String (Query.summary d)) ]
  | Error e -> rejected (Printf.sprintf "bad dump: %s" e)

let exec_request (req : P.request) =
  try
    match req with
    | P.Spec { source } -> exec_spec source
    | P.Eval -> exec_eval ()
    | P.Fuzz cfg -> exec_fuzz cfg
    | P.Trace { dump } -> exec_trace dump
    | P.Sleep { ms } ->
        let t0 = now_ns () in
        Unix.sleepf (float_of_int ms /. 1000.);
        { (plain P.Ok_ [ ("slept_ms", Json.Int ms) ]) with x_sim_ns = now_ns () - t0 }
    | P.Ping | P.Stats | P.Shutdown ->
        (* handled on the connection thread, never dispatched *)
        assert false
  with e -> plain P.Errored [ ("error", Json.String (Printexc.to_string e)) ]

(* ---- service bookkeeping (all under [t.lock]) ----------------------- *)

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let fresh_req t = locked t (fun () -> t.next_req <- t.next_req + 1; t.next_req)

let record t ~kind ~(outcome : P.outcome) ~latency_ns x =
  locked t (fun () ->
      let key = (kind, P.outcome_name outcome) in
      (match Hashtbl.find_opt t.requests key with
      | Some r -> incr r
      | None -> Hashtbl.add t.requests key (ref 1));
      t.served <- t.served + 1;
      Metrics.incr (Metrics.counter t.service "serve/requests");
      Metrics.observe
        (Metrics.histogram t.service ("serve/latency_us/" ^ kind))
        (latency_ns / 1000);
      match x with
      | None -> ()
      | Some x ->
          (* always touch both, so the series exist in every exposition *)
          Metrics.add (Metrics.counter t.service "cache/hits") x.x_hits;
          Metrics.add (Metrics.counter t.service "cache/misses") x.x_misses;
          Option.iter (fun m -> Metrics.merge_into ~into:t.sim m) x.x_metrics)

(* ---- expositions ---------------------------------------------------- *)

(* the per-kind latency histograms of [record], as (kind, histogram) *)
let latency_histograms t =
  let prefix = "serve/latency_us/" in
  let n = String.length prefix in
  List.filter_map
    (fun h ->
      let name = Metrics.histogram_name h in
      if String.length name > n && String.starts_with ~prefix name then
        Some (String.sub name n (String.length name - n), h)
      else None)
    (Metrics.histograms t.service)

let sorted_requests t =
  List.sort compare
    (Hashtbl.fold (fun (k, o) r acc -> (k, o, !r) :: acc) t.requests [])

let metrics_exposition t =
  locked t (fun () ->
      Metrics.set (Metrics.gauge t.service "serve/queue_depth") (Pool.queued t.pool);
      Metrics.set (Metrics.gauge t.service "serve/in_flight") t.in_flight;
      let body = Openmetrics.of_metrics_body (Metrics.merged [ t.service; t.sim ]) in
      let reqs =
        Openmetrics.family ~name:"serve_requests_by" ~typ:`Counter
          (List.map
             (fun (k, o, n) ->
               ([ ("kind", k); ("outcome", o) ], Openmetrics.Int n))
             (sorted_requests t))
      in
      let quantiles =
        Openmetrics.family ~name:"serve_latency_quantile_us" ~typ:`Gauge
          (List.concat_map
             (fun (kind, h) ->
               List.map
                 (fun (q, l) ->
                   ( [ ("kind", kind); ("q", l) ],
                     Openmetrics.Int (Metrics.percentile h q) ))
                 [ (0.50, "0.5"); (0.95, "0.95"); (0.99, "0.99") ])
             (latency_histograms t))
      in
      let build =
        Openmetrics.family ~name:"build_info" ~typ:`Gauge
          [ ([ ("version", version) ], Openmetrics.Int 1) ]
      in
      let uptime =
        Openmetrics.family ~name:"uptime_seconds" ~typ:`Gauge
          [ ([], Openmetrics.Float (Unix.gettimeofday () -. t.started)) ]
      in
      body ^ reqs ^ quantiles ^ build ^ uptime ^ Openmetrics.eof)

let stats_json t =
  locked t (fun () ->
      let latency =
        List.map
          (fun (kind, h) ->
            ( kind,
              Json.Obj
                [
                  ("p50_us", Json.Int (Metrics.percentile h 0.50));
                  ("p95_us", Json.Int (Metrics.percentile h 0.95));
                  ("p99_us", Json.Int (Metrics.percentile h 0.99));
                  ("count", Json.Int (Metrics.observations h));
                ] ))
          (latency_histograms t)
      in
      Json.Obj
        [
          ("version", Json.String version);
          ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started));
          ("jobs", Json.Int t.cfg.jobs);
          ("queue_limit", Json.Int t.cfg.queue_limit);
          ("in_flight", Json.Int t.in_flight);
          ("queue_depth", Json.Int (Pool.queued t.pool));
          ("served", Json.Int t.served);
          ( "requests",
            Json.List
              (List.map
                 (fun (k, o, n) ->
                   Json.Obj
                     [
                       ("kind", Json.String k);
                       ("outcome", Json.String o);
                       ("count", Json.Int n);
                     ])
                 (sorted_requests t)) );
          ( "cache",
            Json.Obj
              [
                ( "hits",
                  Json.Int (Metrics.counter_value t.service "cache/hits") );
                ( "misses",
                  Json.Int (Metrics.counter_value t.service "cache/misses") );
              ] );
          ("latency", Json.Obj (List.sort compare latency));
        ])

(* ---- socket plumbing ------------------------------------------------ *)

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

let openmetrics_content_type =
  "application/openmetrics-text; version=1.0.0; charset=utf-8"

let handle_http t fd line =
  let path =
    match String.split_on_char ' ' line with _ :: p :: _ -> p | _ -> "/"
  in
  let resp =
    match path with
    | "/metrics" ->
        http_response ~status:"200 OK" ~content_type:openmetrics_content_type
          (metrics_exposition t)
    | "/healthz" ->
        http_response ~status:"200 OK" ~content_type:"text/plain" "ok\n"
    | "/stats" ->
        http_response ~status:"200 OK" ~content_type:"application/json"
          (Json.to_string (stats_json t) ^ "\n")
    | _ ->
        http_response ~status:"404 Not Found" ~content_type:"text/plain"
          "not found\n"
  in
  P.write_all fd resp

(* ---- request dispatch ----------------------------------------------- *)

let signal_stop t =
  let fire =
    locked t (fun () ->
        if t.stopping then false else (t.stopping <- true; true))
  in
  if fire then
    (* wake the accept loop portably: connect to ourselves *)
    try
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd
            (Unix.ADDR_INET (Unix.inet_addr_of_string t.cfg.host, t.port)))
    with Unix.Unix_error _ -> ()

let persist_dump t ~rid dump =
  match t.cfg.dump_dir with
  | None -> None
  | Some dir -> (
      try
        (try Unix.mkdir dir 0o755
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let path = Filename.concat dir (Printf.sprintf "req-%06d-dump.json" rid) in
        let oc = open_out_bin path in
        output_string oc dump;
        close_out oc;
        Some path
      with _ -> None)

(* Runs [req] on a pool worker and returns [Some (queue_wait_ns, exec)] —
   or [None] when load must be shed. *)
let dispatch t req =
  let t_submit = now_ns () in
  Pool.try_submit t.pool ~limit:t.cfg.queue_limit (fun () ->
      let queue_wait_ns = now_ns () - t_submit in
      (queue_wait_ns, exec_request req))
  |> Option.map (fun await -> await ())

let handle_line t fd line =
  let t_recv = now_ns () in
  let rid = fresh_req t in
  let id_echo =
    match Json.of_string line with
    | Ok j -> Json.member "id" j
    | Error _ -> None
  in
  let send ~kind ~outcome ?(fields = []) ?(spans = []) () =
    let reply = P.reply ~req:rid ?id:id_echo ~kind ~outcome ~fields ~spans () in
    (* book-keep before the write: once the client holds the reply, the
       service counters must already account for it *)
    record t ~kind ~outcome ~latency_ns:(now_ns () - t_recv) None;
    P.write_all fd (Json.to_string reply ^ "\n")
  in
  match P.parse_line line with
  | Error e ->
      let kind =
        match Json.of_string line with
        | Ok j -> (
            match Option.bind (Json.member "kind" j) Json.to_str with
            | Some k -> k
            | None -> "unknown")
        | Error _ -> "unknown"
      in
      send ~kind ~outcome:P.Rejected ~fields:[ ("error", Json.String e) ] ();
      true
  | Ok P.Ping ->
      send ~kind:"ping" ~outcome:P.Ok_
        ~fields:[ ("version", Json.String version) ]
        ();
      true
  | Ok P.Stats ->
      send ~kind:"stats" ~outcome:P.Ok_ ~fields:[ ("stats", stats_json t) ] ();
      true
  | Ok P.Shutdown ->
      send ~kind:"shutdown" ~outcome:P.Ok_ ();
      signal_stop t;
      false
  | Ok req -> (
      let kind = P.kind_name req in
      let draining = locked t (fun () -> t.stopping) in
      if draining then begin
        send ~kind ~outcome:P.Draining
          ~fields:[ ("error", Json.String "service is shutting down") ]
          ();
        true
      end
      else begin
        locked t (fun () -> t.in_flight <- t.in_flight + 1);
        let finish () =
          locked t (fun () ->
              t.in_flight <- t.in_flight - 1;
              Condition.broadcast t.drained)
        in
        match dispatch t req with
        | None ->
            finish ();
            send ~kind ~outcome:P.Overloaded
              ~fields:
                [
                  ( "error",
                    Json.String
                      (Printf.sprintf "queue full (limit %d)" t.cfg.queue_limit)
                  );
                ]
              ();
            true
        | Some (queue_wait_ns, x) ->
            let dump_fields =
              match x.x_dump with
              | None -> []
              | Some dump -> (
                  ("dump", Json.String dump)
                  ::
                  (match persist_dump t ~rid dump with
                  | Some path -> [ ("dump_file", Json.String path) ]
                  | None -> []))
            in
            let t_enc = now_ns () in
            let fields =
              x.x_fields @ dump_fields
              @ [
                  ("cache_hits", Json.Int x.x_hits);
                  ("cache_misses", Json.Int x.x_misses);
                ]
            in
            let spans_of reply_ns =
              [
                P.span "request"
                  (now_ns () - t_recv)
                  ~children:
                    [
                      P.span "queue_wait" queue_wait_ns;
                      P.span "elaborate" x.x_elab_ns;
                      P.span "simulate" x.x_sim_ns;
                      P.span "reply" reply_ns;
                    ];
              ]
            in
            (* encode once to price the reply span, then re-encode with it *)
            let probe =
              P.reply ~req:rid ?id:id_echo ~kind ~outcome:x.x_outcome ~fields
                ~spans:(spans_of 0) ()
            in
            ignore (Json.to_string probe);
            let reply_ns = now_ns () - t_enc in
            let reply =
              P.reply ~req:rid ?id:id_echo ~kind ~outcome:x.x_outcome ~fields
                ~spans:(spans_of reply_ns) ()
            in
            record t ~kind ~outcome:x.x_outcome
              ~latency_ns:(now_ns () - t_recv)
              (Some x);
            (try P.write_all fd (Json.to_string reply ^ "\n")
             with Unix.Unix_error _ -> ());
            finish ();
            true
      end)

let handle_conn t fd =
  let r = P.reader fd in
  let rec loop () =
    match P.read_line r ~max_line:t.cfg.max_line with
    | `Eof -> ()
    | `Oversized ->
        let reply =
          P.reply ~req:0 ~kind:"unknown" ~outcome:P.Rejected
            ~fields:
              [
                ( "error",
                  Json.String
                    (Printf.sprintf "request line exceeds %d bytes"
                       t.cfg.max_line) );
              ]
            ()
        in
        (try P.write_all fd (Json.to_string reply ^ "\n")
         with Unix.Unix_error _ -> ());
        record t ~kind:"unknown" ~outcome:P.Rejected ~latency_ns:0 None
    | `Line line ->
        if line = "" then loop ()
        else if String.length line >= 4 && String.sub line 0 4 = "GET " then
          (* plain HTTP GET on the same port; respond and close *)
          try handle_http t fd line with Unix.Unix_error _ -> ()
        else begin
          let continue = try handle_line t fd line with Unix.Unix_error _ -> false in
          if continue then loop ()
        end
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    loop

(* ---- lifecycle ------------------------------------------------------ *)

let create ?(config = default_config) () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  (try
     Unix.bind fd
       (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
     Unix.listen fd 64
   with e ->
     Unix.close fd;
     raise e);
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  {
    cfg = config;
    fd;
    port;
    pool = Pool.create ~domains:(max 1 config.jobs) ();
    lock = Mutex.create ();
    drained = Condition.create ();
    stopping = false;
    in_flight = 0;
    next_req = 0;
    served = 0;
    started = Unix.gettimeofday ();
    service = Metrics.create ();
    sim = Metrics.create ();
    requests = Hashtbl.create 16;
  }

let port t = t.port
let served t = locked t (fun () -> t.served)
let stop t = signal_stop t

let serve t =
  let rec accept_loop () =
    let stop_now = locked t (fun () -> t.stopping) in
    if not stop_now then begin
      match Unix.accept t.fd with
      | exception Unix.Unix_error _ ->
          if not (locked t (fun () -> t.stopping)) then accept_loop ()
      | conn, _ ->
          if locked t (fun () -> t.stopping) then (
            (* the wake-up self-connection from [signal_stop] *)
            try Unix.close conn with Unix.Unix_error _ -> ())
          else begin
            ignore (Thread.create (handle_conn t) conn);
            accept_loop ()
          end
    end
  in
  accept_loop ();
  (* drain: every admitted request gets its reply before we return *)
  Mutex.lock t.lock;
  while t.in_flight > 0 do
    Condition.wait t.drained t.lock
  done;
  Mutex.unlock t.lock;
  Pool.shutdown t.pool;
  try Unix.close t.fd with Unix.Unix_error _ -> ()
