(* The simulation service: wire protocol, backpressure, observability and
   the daemon-vs-CLI determinism contract.

   Server instances listen on ephemeral loopback ports with [serve]
   running in a systhread; every request executes on one of the
   server's own worker domains, never on this test's domain. *)

open Splice

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let is_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let is_suffix ~affix s =
  let n = String.length affix and m = String.length s in
  m >= n && String.sub s (m - n) n = affix

(* ---- helpers -------------------------------------------------------- *)

let with_server config f =
  let srv = Serve.create ~config () in
  let th = Thread.create Serve.serve srv in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop srv;
      Thread.join th)
    (fun () -> f srv (Serve.port srv))

let with_conn port f =
  let c = Serve_client.connect ~port () in
  Fun.protect ~finally:(fun () -> Serve_client.close c) (fun () -> f c)

let req c line =
  match Serve_client.request_line c line with
  | Ok reply -> reply
  | Error e -> Alcotest.failf "request failed: %s" e

let str_of j k =
  match Option.bind (Json.member k j) Json.to_str with
  | Some s -> s
  | None -> Alcotest.failf "reply missing string field %S in %s" k (Json.to_string j)

let int_of j k =
  match Option.bind (Json.member k j) Json.to_int with
  | Some i -> i
  | None -> Alcotest.failf "reply missing int field %S" k

let ok_of j =
  match Json.member "ok" j with Some (Json.Bool b) -> b | _ -> false

let rec span_names j acc =
  match j with
  | Json.Obj fields ->
      let acc =
        match List.assoc_opt "name" fields with
        | Some (Json.String n) -> n :: acc
        | _ -> acc
      in
      (match List.assoc_opt "children" fields with
      | Some (Json.List cs) -> List.fold_left (fun a c -> span_names c a) acc cs
      | _ -> acc)
  | _ -> acc

let reply_span_names j =
  match Json.member "spans" j with
  | Some (Json.List spans) ->
      List.sort compare (List.fold_left (fun a s -> span_names s a) [] spans)
  | _ -> []

let fuzz_line ?(cache = true) ~seed ~count () =
  Printf.sprintf
    "{\"kind\":\"fuzz\",\"seed\":%d,\"count\":%d,\"cache\":%s}" seed count
    (if cache then "true" else "false")

let direct_digest ~seed ~count =
  let r = Diff.run { Diff.default_config with seed; count } in
  Printf.sprintf "0x%016Lx" r.Diff.r_digest

(* Send [line] over a fresh raw connection in writes of [step] bytes and
   return the reply line, parsed, without the fields that differ between
   two requests with the same content (serial and timings). *)
let raw_request port ~step line =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      let n = String.length line in
      let rec send off =
        if off < n then begin
          let len = min step (n - off) in
          let w = Unix.write_substring fd line off len in
          send (off + w)
        end
      in
      send 0;
      let reply = Buffer.create 256 and b = Bytes.create 1 in
      let rec recv () =
        if Unix.read fd b 0 1 = 1 && Bytes.get b 0 <> '\n' then begin
          Buffer.add_bytes reply b;
          recv ()
        end
      in
      recv ();
      match Json.of_string (Buffer.contents reply) with
      | Ok (Json.Obj fields) ->
          Json.Obj
            (List.filter (fun (k, _) -> k <> "req" && k <> "spans") fields)
      | _ -> Alcotest.failf "unparseable reply %S" (Buffer.contents reply))

(* ---- protocol + exposition units ------------------------------------ *)

let protocol_tests =
  [
    t "parse: malformed and hostile requests are rejected with reasons"
      (fun () ->
        let err line =
          match Serve_protocol.parse_line line with
          | Error e -> e
          | Ok _ -> Alcotest.failf "accepted %S" line
        in
        check_bool "malformed JSON" true
          (String.length (err "{nope") > 0);
        check_bool "non-object" true (err "[1,2]" <> "");
        check_bool "missing kind" true (err "{}" <> "");
        check_bool "unknown kind named" true
          (let e = err "{\"kind\":\"frobnicate\"}" in
           is_infix ~affix:"frobnicate" e
           || String.length e > 0);
        check_bool "fuzz without seed" true
          (err "{\"kind\":\"fuzz\"}" <> "");
        check_bool "fuzz count cap" true
          (err "{\"kind\":\"fuzz\",\"seed\":1,\"count\":999999}" <> "");
        check_bool "unknown bus" true
          (err "{\"kind\":\"fuzz\",\"seed\":1,\"bus\":\"nope\"}" <> "");
        check_bool "bad ratio" true
          (err "{\"kind\":\"fuzz\",\"seed\":1,\"ratio\":\"x\"}" <> "");
        check_bool "bad fifo depth" true
          (is_infix ~affix:"depth"
             (err "{\"kind\":\"fuzz\",\"seed\":1,\"depth\":3}"));
        check_bool "unknown sched" true
          (is_infix ~affix:"sched"
             (err "{\"kind\":\"fuzz\",\"seed\":1,\"sched\":\"fastest\"}")));
    t "parse: a full fuzz request round-trips every field" (fun () ->
        match
          Serve_protocol.parse_line
            "{\"kind\":\"fuzz\",\"seed\":9,\"count\":3,\"bus\":\"axi\",\
             \"sched\":\"both\",\"ratio\":\"3:1\",\"depth\":4,\
             \"cache\":false,\"cache_size\":7}"
        with
        | Ok (Serve_protocol.Fuzz f) ->
            check_int "seed" 9 f.seed;
            check_int "count" 3 f.count;
            Alcotest.(check (list string)) "bus" [ "axi" ] f.buses;
            check_int "scheds" 2 (List.length f.scheds);
            check_bool "ratio" true (f.ratio = Some (3, 1));
            check_bool "depth" true (f.depth = Some 4);
            check_bool "cache off" false f.cache
        | Ok _ -> Alcotest.fail "parsed as a different kind"
        | Error e -> Alcotest.failf "did not parse: %s" e);
    t "openmetrics: hostile label values escape per the spec" (fun () ->
        check_string "escape" "a\\\"b\\\\c\\nd"
          (Openmetrics.escape_label_value "a\"b\\c\nd");
        check_string "sanitize" "splice_serve_latency_us"
          (Openmetrics.sanitize "serve/latency us");
        (* golden: a counter family whose label value carries a quote, a
           backslash and a newline must still be one well-formed line *)
        check_string "family golden"
          ("# TYPE splice_serve_requests_by counter\n"
          ^ "splice_serve_requests_by_total{kind=\"a\\\"b\\\\c\\nd\",\
             outcome=\"ok\"} 3\n")
          (Openmetrics.family ~name:"serve_requests_by" ~typ:`Counter
             [
               ( [ ("kind", "a\"b\\c\nd"); ("outcome", "ok") ],
                 Openmetrics.Int 3 );
             ]);
        check_string "gauge golden"
          "# TYPE splice_build_info gauge\nsplice_build_info{version=\"1.0.0\"} 1\n"
          (Openmetrics.family ~name:"build_info" ~typ:`Gauge
             [ ([ ("version", "1.0.0") ], Openmetrics.Int 1) ]));
    t "pool: try_submit bounds the queue and rejects misuse" (fun () ->
        let p = Pool.create ~domains:1 () in
        Fun.protect
          ~finally:(fun () -> Pool.shutdown p)
          (fun () ->
            check_bool "accepted under limit" true
              (Option.is_some (Pool.try_submit p ~limit:4 (fun () -> ())));
            check_bool "queued is sane" true (Pool.queued p >= 0);
            Alcotest.check_raises "negative limit"
              (Invalid_argument "Pool.try_submit: negative limit") (fun () ->
                ignore (Pool.try_submit p ~limit:(-1) (fun () -> ()))));
        let seq = Pool.create ~domains:0 () in
        Fun.protect
          ~finally:(fun () -> Pool.shutdown seq)
          (fun () ->
            Alcotest.check_raises "sequential pool has no queue"
              (Invalid_argument "Pool.try_submit: sequential pool has no workers")
              (fun () -> ignore (Pool.try_submit seq ~limit:4 (fun () -> ())))));
    t "pool: try_submit ~limit:0 runs a task only on an idle worker" (fun () ->
        let p = Pool.create ~domains:1 () in
        Fun.protect
          ~finally:(fun () -> Pool.shutdown p)
          (fun () ->
            let gate = Mutex.create () in
            Mutex.lock gate;
            let busy =
              match
                Pool.try_submit p ~limit:0 (fun () ->
                    Mutex.lock gate;
                    Mutex.unlock gate;
                    1)
              with
              | Some await -> await
              | None -> Alcotest.fail "an idle worker refused a task"
            in
            check_bool "rejected while the worker is busy" true
              (Option.is_none (Pool.try_submit p ~limit:0 (fun () -> 0)));
            Mutex.unlock gate;
            check_int "first task ran" 1 (busy ());
            (* the worker counts as idle again once [await] returns *)
            match Pool.try_submit p ~limit:0 (fun () -> 2) with
            | Some await -> check_int "accepted once idle" 2 (await ())
            | None -> Alcotest.fail "refused after the worker went idle"));
    t "cache: metrics_into surfaces the domain cache counters" (fun () ->
        (* make sure this domain has a cache with traffic on it *)
        ignore (Diff.run { Diff.default_config with seed = 3; count = 1 });
        let m = Metrics.create () in
        Design_cache.metrics_into m;
        check_bool "hits counter exposed" true
          (Metrics.counter_value m "cache/hits" >= 0);
        check_bool "entries gauge exposed" true
          (List.exists
             (fun g -> Metrics.gauge_name g = "cache/entries")
             (Metrics.gauges m)));
    t "eval: digest is a stable fold of the measurement rows" (fun () ->
        let row impl cycles =
          {
            Cycles.impl;
            per_scenario = [ (1, cycles); (2, cycles + 1) ];
            total = (2 * cycles) + 1;
          }
        in
        let a = [ row Interpolator.Splice_plb_simple 10 ] in
        let b = [ row Interpolator.Splice_plb_simple 11 ] in
        check_bool "same rows, same digest" true
          (Cycles.digest a = Cycles.digest a);
        check_bool "cycle change moves the digest" true
          (Cycles.digest a <> Cycles.digest b);
        check_bool "row order matters" true
          (Cycles.digest (a @ b) <> Cycles.digest (b @ a)));
  ]

(* ---- daemon behavior ------------------------------------------------- *)

(* [jobs] sleepers occupy every worker of a [queue_limit = 0] daemon, so
   the next request is shed; an idle daemon runs it, before and after *)
let saturation jobs =
  t (Printf.sprintf "serve: saturation sheds load with an overloaded reply (jobs %d)" jobs)
    (fun () ->
      with_server
        { Serve.default_config with jobs; queue_limit = 0 }
        (fun _srv port ->
          let run_one what =
            with_conn port (fun c ->
                check_bool what true (ok_of (req c (fuzz_line ~seed:1 ~count:1 ()))))
          in
          run_one "idle daemon runs a request";
          let sleepers =
            List.init jobs (fun _ ->
                let reply = ref None in
                let th =
                  Thread.create
                    (fun () ->
                      with_conn port (fun c ->
                          reply := Some (req c "{\"kind\":\"sleep\",\"ms\":600}")))
                    ()
                in
                (th, reply))
          in
          Thread.delay 0.15;
          with_conn port (fun c ->
              let r = req c (fuzz_line ~seed:1 ~count:1 ()) in
              check_bool "shed, not buffered" false (ok_of r);
              check_string "overloaded outcome" "overloaded" (str_of r "outcome");
              check_bool "limit named" true (String.length (str_of r "error") > 0));
          List.iter
            (fun (th, reply) ->
              Thread.join th;
              match !reply with
              | Some r ->
                  check_bool "in-flight request still completed" true (ok_of r);
                  check_int "slept" 600 (int_of r "slept_ms")
              | None -> Alcotest.fail "slow request lost its reply")
            sleepers;
          run_one "drained daemon runs a request"))

let server_tests =
  [
    t "serve: protocol errors are per-line and the daemon survives them"
      (fun () ->
        with_server Serve.default_config (fun _srv port ->
            with_conn port (fun c ->
                let r = req c "{\"kind\":\"ping\",\"id\":{\"tag\":7}}" in
                check_bool "ping ok" true (ok_of r);
                check_string "version echoed" Serve.version (str_of r "version");
                check_bool "id echoed verbatim" true
                  (Json.member "id" r = Some (Json.Obj [ ("tag", Json.Int 7) ]));
                let r = req c "{malformed" in
                check_bool "malformed not ok" false (ok_of r);
                check_string "malformed outcome" "rejected" (str_of r "outcome");
                check_bool "malformed reason" true
                  (String.length (str_of r "error") > 0);
                let r = req c "{\"kind\":\"frobnicate\"}" in
                check_string "unknown kind rejected" "rejected"
                  (str_of r "outcome");
                check_string "unknown kind echoed" "frobnicate"
                  (str_of r "kind");
                let r = req c "{\"kind\":\"sleep\",\"ms\":-1}" in
                check_string "bad field rejected" "rejected"
                  (str_of r "outcome");
                (* request serials keep climbing on one connection *)
                let a = int_of (req c "{\"kind\":\"ping\"}") "req" in
                let b = int_of (req c "{\"kind\":\"ping\"}") "req" in
                check_bool "serials increase" true (b > a));
            (* a client that vanishes mid-request must not wedge anything *)
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
            let partial = "{\"kind\":\"pi" in
            ignore (Unix.write_substring fd partial 0 (String.length partial));
            Unix.close fd;
            with_conn port (fun c ->
                check_bool "daemon survives a disconnect" true
                  (ok_of (req c "{\"kind\":\"ping\"}")))));
    t "serve: oversized request lines are rejected" (fun () ->
        with_server { Serve.default_config with max_line = 128 } (fun _srv port ->
            with_conn port (fun c ->
                let r = req c ("{\"pad\":\"" ^ String.make 300 'x' ^ "\"}") in
                check_string "oversized outcome" "rejected" (str_of r "outcome");
                check_bool "oversized reason" true
                  (String.length (str_of r "error") > 0))));
    t "serve: a request sent one byte per write gets the single-write reply"
      (fun () ->
        (* the line reader reassembles a request from arbitrarily small
           reads, strips the CR of a CRLF ending, and keeps a pipelined
           second request intact *)
        let spec =
          "{\"kind\":\"spec\",\"id\":5,\"source\":\"%device_name d\\n\
           %bus_type plb\\n%bus_width 32\\n%base_address \
           0x80000000\\nint add2(int x, int y);\"}"
        in
        with_server Serve.default_config (fun _srv port ->
            let whole = raw_request port ~step:max_int (spec ^ "\r\n") in
            check_bool "single write ok" true (ok_of whole);
            let bytewise = raw_request port ~step:1 (spec ^ "\r\n") in
            check_string "same reply" (Json.to_string whole)
              (Json.to_string bytewise);
            with_conn port (fun c ->
                Serve_client.send_line c
                  "{\"kind\":\"ping\",\"id\":1}\r\n{\"kind\":\"ping\",\"id\":2}";
                List.iter
                  (fun id ->
                    match Serve_client.recv_line c with
                    | Ok line ->
                        check_bool
                          (Printf.sprintf "pipelined ping %d answered" id)
                          true
                          (is_infix ~affix:(Printf.sprintf "\"id\":%d" id) line)
                    | Error e -> Alcotest.failf "no reply to ping %d: %s" id e)
                  [ 1; 2 ])));
    t "serve: spec requests validate, reject and report" (fun () ->
        with_server Serve.default_config (fun _srv port ->
            with_conn port (fun c ->
                let r =
                  req c
                    "{\"kind\":\"spec\",\"source\":\"%device_name d\\n\
                     %bus_type plb\\n%bus_width 32\\n%base_address \
                     0x80000000\\nint add2(int x, int y);\"}"
                in
                check_bool "valid spec ok" true (ok_of r);
                check_string "bus reported" "plb" (str_of r "bus");
                check_bool "funcs listed" true
                  (Json.member "funcs" r = Some (Json.List [ Json.String "add2" ]));
                let r = req c "{\"kind\":\"spec\",\"source\":\"int f(;\"}" in
                check_string "invalid spec rejected" "rejected"
                  (str_of r "outcome"))));
    t "serve: fuzz digests match the direct executor (jobs 1)" (fun () ->
        let expected = direct_digest ~seed:11 ~count:2 in
        with_server Serve.default_config (fun _srv port ->
            with_conn port (fun c ->
                let r = req c (fuzz_line ~seed:11 ~count:2 ()) in
                check_bool "fuzz ok" true (ok_of r);
                check_string "digest equals direct run" expected
                  (str_of r "digest");
                check_int "iterations" 2 (int_of r "iterations");
                Alcotest.(check (list string))
                  "span tree phases"
                  [ "elaborate"; "queue_wait"; "reply"; "request"; "simulate" ]
                  (reply_span_names r);
                check_bool "cache deltas reported" true
                  (int_of r "cache_hits" + int_of r "cache_misses" > 0))));
    t "serve: eval digest matches the direct measurement" (fun () ->
        let expected =
          Printf.sprintf "0x%016Lx" (Cycles.digest (Cycles.measure ()))
        in
        with_server Serve.default_config (fun _srv port ->
            with_conn port (fun c ->
                let r = req c "{\"kind\":\"eval\"}" in
                check_bool "eval ok" true (ok_of r);
                check_string "digest equals direct run" expected
                  (str_of r "digest"))));
    t "serve: concurrent clients agree with the direct executor (jobs 4)"
      (fun () ->
        let expected_a = direct_digest ~seed:21 ~count:2 in
        let expected_b = direct_digest ~seed:22 ~count:2 in
        with_server { Serve.default_config with jobs = 4 } (fun srv port ->
            let results = Array.make 2 None in
            let client i seed =
              Thread.create
                (fun () ->
                  with_conn port (fun c ->
                      let r = req c (fuzz_line ~seed ~count:2 ()) in
                      results.(i) <- Some (ok_of r, str_of r "digest")))
                ()
            in
            let ta = client 0 21 and tb = client 1 22 in
            Thread.join ta;
            Thread.join tb;
            (match results.(0) with
            | Some (ok, d) ->
                check_bool "client A ok" true ok;
                check_string "client A digest" expected_a d
            | None -> Alcotest.fail "client A got no reply");
            (match results.(1) with
            | Some (ok, d) ->
                check_bool "client B ok" true ok;
                check_string "client B digest" expected_b d
            | None -> Alcotest.fail "client B got no reply");
            check_bool "served both" true (Serve.served srv >= 2)));
    saturation 1;
    saturation 2;
    t "serve: shutdown drains in-flight requests" (fun () ->
        let srv = Serve.create ~config:Serve.default_config () in
        let port = Serve.port srv in
        let server_th = Thread.create Serve.serve srv in
        let slow_reply = ref None in
        let slow =
          Thread.create
            (fun () ->
              with_conn port (fun c ->
                  slow_reply := Some (req c "{\"kind\":\"sleep\",\"ms\":500}")))
            ()
        in
        Thread.delay 0.15;
        with_conn port (fun c ->
            let r = req c "{\"kind\":\"shutdown\"}" in
            check_bool "shutdown acknowledged" true (ok_of r));
        (* serve returns only after the sleeper got its reply *)
        Thread.join server_th;
        Thread.join slow;
        (match !slow_reply with
        | Some r -> check_bool "drained request completed" true (ok_of r)
        | None -> Alcotest.fail "in-flight request dropped at shutdown");
        check_int "both requests served" 2 (Serve.served srv));
    t "serve: /metrics, /healthz and /stats answer plain HTTP" (fun () ->
        with_server Serve.default_config (fun srv port ->
            with_conn port (fun c ->
                check_bool "ping" true (ok_of (req c "{\"kind\":\"ping\"}"));
                check_bool "fuzz" true
                  (ok_of (req c (fuzz_line ~seed:5 ~count:1 ()))));
            (match Serve_client.http_get ~port "/healthz" with
            | Ok (200, body) -> check_string "healthz" "ok\n" body
            | Ok (st, _) -> Alcotest.failf "healthz status %d" st
            | Error e -> Alcotest.failf "healthz: %s" e);
            (match Serve_client.http_get ~port "/metrics" with
            | Ok (200, body) ->
                let has s = is_infix ~affix:s body in
                check_bool "ends with EOF terminator" true
                  (is_suffix ~affix:"# EOF\n" body);
                check_bool "request counters by kind/outcome" true
                  (has
                     "splice_serve_requests_by_total{kind=\"fuzz\",\
                      outcome=\"ok\"} 1");
                check_bool "latency quantiles" true
                  (has "splice_serve_latency_quantile_us{kind=\"fuzz\",q=\"0.99\"}");
                check_bool "latency histogram" true
                  (has "splice_serve_latency_us_fuzz_bucket{le=\"+Inf\"}");
                check_bool "cache counters" true
                  (has "splice_cache_misses_total");
                check_bool "build info" true
                  (has
                     (Printf.sprintf "splice_build_info{version=\"%s\"} 1"
                        Serve.version));
                check_bool "uptime" true (has "splice_uptime_seconds ");
                check_bool "queue depth gauge" true
                  (has "splice_serve_queue_depth ")
            | Ok (st, _) -> Alcotest.failf "metrics status %d" st
            | Error e -> Alcotest.failf "metrics: %s" e);
            (match Serve_client.http_get ~port "/stats" with
            | Ok (200, body) -> (
                match Json.of_string (String.trim body) with
                | Ok j ->
                    check_bool "served count" true (int_of j "served" >= 2);
                    check_bool "has latency table" true
                      (Json.member "latency" j <> None)
                | Error e -> Alcotest.failf "stats not JSON: %s" e)
            | Ok (st, _) -> Alcotest.failf "stats status %d" st
            | Error e -> Alcotest.failf "stats: %s" e);
            (match Serve_client.http_get ~port "/nope" with
            | Ok (404, _) -> ()
            | Ok (st, _) -> Alcotest.failf "expected 404, got %d" st
            | Error e -> Alcotest.failf "404 probe: %s" e);
            check_bool "exposition helper agrees" true
              (is_suffix ~affix:"# EOF\n"
                 (Serve.metrics_exposition srv))));
    t "serve: a failing fuzz carries its flight-recorder dump" (fun () ->
        let module Buggy = struct
          include Plb

          let caps = { Plb.caps with Bus_caps.name = "buggy" }

          let connect kernel spec sis =
            let port = Plb.connect kernel spec sis in
            {
              port with
              Bus_port.bus_name = "buggy";
              result =
                (fun () ->
                  List.map
                    (fun w ->
                      Bits.logxor w (Bits.of_int ~width:(Bits.width w) 1))
                    (port.Bus_port.result ()));
            }
        end in
        let dump_dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "splice_serve_test_%d" (Unix.getpid ()))
        in
        Registry.register (module Buggy);
        Fun.protect
          ~finally:(fun () -> Registry.unregister "buggy")
          (fun () ->
            with_server
              { Serve.default_config with dump_dir = Some dump_dir }
              (fun _srv port ->
                with_conn port (fun c ->
                    let r =
                      req c
                        "{\"kind\":\"fuzz\",\"seed\":5,\"count\":10,\
                         \"bus\":\"buggy\"}"
                    in
                    check_bool "failure is not ok" false (ok_of r);
                    check_string "failed outcome" "failed" (str_of r "outcome");
                    check_string "failing bus" "buggy" (str_of r "bus");
                    check_bool "repro command attached" true
                      (is_infix ~affix:"splice fuzz --seed"
                         (str_of r "repro"));
                    let dump = str_of r "dump" in
                    (match Query.of_string dump with
                    | Ok d ->
                        check_bool "dump has events" true (d.Query.d_events <> [])
                    | Error e -> Alcotest.failf "dump does not parse: %s" e);
                    let path = str_of r "dump_file" in
                    check_bool "dump persisted" true (Sys.file_exists path);
                    let ic = open_in_bin path in
                    let n = in_channel_length ic in
                    let persisted = really_input_string ic n in
                    close_in ic;
                    check_string "persisted dump equals attached dump" dump
                      persisted;
                    (* the dump round-trips through a trace request *)
                    let tr =
                      req c
                        (Json.to_string
                           (Json.Obj
                              [
                                ("kind", Json.String "trace");
                                ("dump", Json.String dump);
                              ]))
                    in
                    check_bool "trace summarizes the dump" true (ok_of tr);
                    check_bool "summary non-empty" true
                      (String.length (str_of tr "summary") > 0)))));
  ]

let tests = [ ("serve", protocol_tests @ server_tests) ]
