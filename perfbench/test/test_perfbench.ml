(* The benchmark's own arithmetic and gates: the percentile and
   ten-sample tail rules, span self time, the windowed loop, the GC report
   parser, and the Fig 9.2 digest gate. *)

open Perfbench

let t name f = Alcotest.test_case name `Quick f
let sorted_1_to n = Array.init n (fun i -> i + 1)

let stats_tests =
  [
    t "nearest-rank percentiles" (fun () ->
        let a = sorted_1_to 100 in
        Alcotest.(check int) "p50" 50 (Stats.percentile a ~per_mille:500);
        Alcotest.(check int) "p90" 90 (Stats.percentile a ~per_mille:900);
        Alcotest.(check int) "p99" 99 (Stats.percentile a ~per_mille:990);
        Alcotest.(check int) "p100" 100 (Stats.percentile a ~per_mille:1000);
        Alcotest.(check int) "single sample" 7 (Stats.percentile [| 7 |] ~per_mille:990);
        Alcotest.check_raises "no samples" (Invalid_argument "Stats.percentile: no samples")
          (fun () -> ignore (Stats.percentile [||] ~per_mille:500)));
    t "ten samples beyond, exactly at the boundary" (fun () ->
        Alcotest.(check int) "beyond p99 of 1000" 10 (Stats.beyond ~n:1000 ~per_mille:990);
        Alcotest.(check bool) "p99 needs 1000" true (Stats.supported ~n:1000 ~per_mille:990);
        Alcotest.(check bool) "999 is too few" false (Stats.supported ~n:999 ~per_mille:990);
        (* 1 - 0.9 rounds below 0.1 in floating point; the rule must not *)
        Alcotest.(check bool) "p90 needs 100" true (Stats.supported ~n:100 ~per_mille:900);
        Alcotest.(check bool) "99 is too few" false (Stats.supported ~n:99 ~per_mille:900));
    t "the tail falls back from p99 to p90 to nothing" (fun () ->
        let label n = Option.map fst (Stats.tail ~n) in
        Alcotest.(check (option string)) "2400" (Some "p99") (label 2400);
        Alcotest.(check (option string)) "999" (Some "p90") (label 999);
        Alcotest.(check (option string)) "100" (Some "p90") (label 100);
        Alcotest.(check (option string)) "99" None (label 99));
    t "median of odd and even counts" (fun () ->
        Alcotest.(check (float 0.)) "odd" 2. (Stats.median [ 3.; 1.; 2. ]);
        Alcotest.(check (float 0.)) "even" 2.5 (Stats.median [ 4.; 1.; 2.; 3. ]));
    t "samples grow past their first buffer" (fun () ->
        let s = Stats.samples () in
        for i = 40_000 downto 1 do Stats.add s i done;
        Alcotest.(check int) "count" 40_000 (Stats.count s);
        Alcotest.(check int) "min" 1 (Stats.sorted s).(0);
        Alcotest.(check int) "insertion order kept" 40_000 (Stats.to_array s).(0));
    t "a reservoir keeps a fixed-size uniform sample" (fun () ->
        let r = Stats.reservoir ~capacity:1000 ~seed:1 in
        for i = 1 to 500 do Stats.offer r i done;
        Alcotest.(check (array int)) "below capacity: everything" (Array.init 500 succ) (Stats.kept r);
        for i = 501 to 100_000 do Stats.offer r i done;
        let kept = Stats.kept r in
        Alcotest.(check int) "capacity" 1000 (Array.length kept);
        Alcotest.(check int) "seen" 100_000 (Stats.seen r);
        Array.sort compare kept;
        let p50 = Stats.percentile kept ~per_mille:500 in
        Alcotest.(check bool) "median near the stream's" true (abs (p50 - 50_000) < 5_000));
  ]

let span ?(parent = -1) name a b =
  { Spans.name; parent; start_ns = a; end_ns = b; cycles = 0; words = 0; evals = 0 }

let span_tests =
  [
    t "self time subtracts the union of children, clipped" (fun () ->
        let self = Spans.self_time ~start_ns:0 ~end_ns:100 in
        Alcotest.(check int) "no children" 100 (self []);
        Alcotest.(check int) "disjoint" 70 (self [ (10, 20); (50, 70) ]);
        Alcotest.(check int) "overlapping counted once" 70 (self [ (10, 30); (20, 40) ]);
        Alcotest.(check int) "nested counted once" 80 (self [ (10, 30); (15, 20) ]);
        Alcotest.(check int) "clipped to the parent" 80 (self [ (-10, 10); (90, 120) ]);
        Alcotest.(check int) "outside ignored" 100 (self [ (150, 160) ]);
        Alcotest.(check int) "fully covered" 0 (self [ (0, 60); (40, 100) ]));
    t "self times of a recorded tree" (fun () ->
        let r = Spans.create () in
        let root = Spans.add r (span "op" 0 100) in
        let child = Spans.add r (span ~parent:root "call" 10 60) in
        ignore (Spans.add r (span ~parent:child "inner" 20 30));
        ignore (Spans.add r (span ~parent:root "call" 70 80));
        Alcotest.(check (array int)) "op, call, inner, call" [| 40; 40; 10; 10 |]
          (Spans.self_times (Spans.spans r)));
    t "enter/leave nests and merge re-bases parents" (fun () ->
        let r = Spans.create () in
        Spans.span r "outer" (fun () -> Spans.span r "inner" ignore);
        let a = Spans.spans r in
        Alcotest.(check int) "inner's parent is outer" 0 a.(1).parent;
        Alcotest.(check int) "outer is a root" (-1) a.(0).parent;
        let m = Spans.merge [ r; r ] in
        Alcotest.(check int) "second copy's inner points at its outer" 2 m.(3).parent;
        Alcotest.(check int) "leave renames" 1
          (let r = Spans.create () in
           let id = Spans.enter r "cache.acquire" in
           Spans.leave r id ~name:"cache.acquire.hit";
           List.length (Spans.named (Spans.spans r) "cache.acquire.hit")));
  ]

let loop_tests =
  [
    t "rounds count every operation of every worker" (fun () ->
        let calls = Array.make 2 0 in
        let run =
          Loop.run ~workers:2 ~seconds:0.05 (fun ~worker i ->
              Alcotest.(check int) "consecutive op numbers" calls.(worker) i;
              calls.(worker) <- calls.(worker) + 1)
        in
        Alcotest.(check int) "rounds" 2 (Array.length run.by_round);
        Alcotest.(check int) "ops" (calls.(0) + calls.(1)) run.ops;
        Array.iter
          (fun (rd : Loop.round) ->
            Alcotest.(check bool) "each worker ran" true (rd.ops >= 2);
            Alcotest.(check bool) "slowdown measured" true (rd.slowdown > 0.))
          run.by_round;
        Alcotest.(check int) "every latency kept" run.ops
          (Array.fold_left (fun a r -> a + Array.length (Stats.kept r)) 0 run.kept);
        Alcotest.(check bool) "throughput positive" true (Loop.throughput run > 0.));
    t "an op's exception stops the run" (fun () ->
        Alcotest.check_raises "re-raised" Exit (fun () ->
            ignore (Loop.run ~seconds:0.05 (fun ~worker:_ i -> if i = 3 then raise Exit))));
    t "end-to-end metrics name the tail the run supports" (fun () ->
        let run = Loop.run ~seconds:0.02 (fun ~worker:_ _ -> ()) in
        let names = List.map (fun (m : Metric.t) -> m.name) (Loop.end_to_end ~setup_s:1. ~rss_mb:1. (Tally.create ()) run) in
        Alcotest.(check bool) "p99 for a fast loop" true (List.mem "latency_ms_p99" names);
        Alcotest.(check bool) "setup_s" true (List.mem "setup_s" names));
    t "set-up reports the median of its repetitions" (fun () ->
        let discarded = ref 0 in
        let _, last = Loop.median_setup ~discard:(fun _ -> incr discarded) ~reps:5 (let n = ref 0 in fun () -> incr n; !n) in
        Alcotest.(check int) "last result kept" 5 last;
        Alcotest.(check int) "the rest discarded" 4 !discarded);
  ]

let gc_report =
  "allocated_words: 66389\nminor_words: 47368\nminor_collections: 3\nmajor_collections: 1\n"

let misc_tests =
  [
    t "GC report at exit parses" (fun () ->
        match Sysinfo.parse_gc_report gc_report with
        | Some g ->
            Alcotest.(check int) "minor" 3 g.minor_collections;
            Alcotest.(check int) "major" 1 g.major_collections
        | None -> Alcotest.fail "not parsed");
    t "a missing GC report is None" (fun () ->
        Alcotest.(check bool) "none" true (Sysinfo.parse_gc_report "bye\n" = None));
    t "tally keeps the first failures" (fun () ->
        let tl = Tally.create () in
        Tally.ok tl;
        for i = 1 to 9 do Tally.fail tl (string_of_int i) done;
        Alcotest.(check int) "attempted" 10 tl.attempted;
        Alcotest.(check int) "failed" 9 tl.failed;
        Alcotest.(check (list string)) "first five" [ "1"; "2"; "3"; "4"; "5" ] tl.errors);
  ]

let corrupted = Int64.logxor Fig92.expected_digest 1L

let gate_tests =
  [
    t "the Fig 9.2 oracle matches the expected grid" (fun () ->
        match Fig92.oracle () with
        | Error e -> Alcotest.fail e
        | Ok cells ->
            Alcotest.(check int) "20 cells" 20 (Array.length cells);
            let c = Array.to_list cells |> List.find (fun (c : Fig92.cell) -> c.impl = Splice.Interpolator.Splice_plb_simple && c.scenario.id = 1) in
            Alcotest.(check int) "Splice PLB scenario 1" 95 c.cycles);
    t "the gate fires on a corrupted expected digest" (fun () ->
        Alcotest.(check bool) "oracle refuses" true (Result.is_error (Fig92.oracle ~expected:corrupted ()));
        match Fig92.oracle () with
        | Error e -> Alcotest.fail e
        | Ok cells ->
            Alcotest.(check bool) "set-up refuses" true
              (Result.is_error (Fig92.setup ~expected:corrupted cells));
            Alcotest.(check bool) "set-up accepts the real digest" true
              (Result.is_ok (Fig92.setup cells)));
    t "a wrong cycle count fails the op" (fun () ->
        match Fig92.oracle () with
        | Error e -> Alcotest.fail e
        | Ok cells -> (
            match Fig92.setup cells with
            | Error e -> Alcotest.fail e
            | Ok hosts ->
                let tl = Tally.create () in
                Fig92.call tl hosts cells.(0);
                Fig92.call tl hosts { (cells.(0)) with cycles = cells.(0).cycles + 1 };
                Alcotest.(check int) "one of two failed" 1 tl.failed));
  ]

let () =
  Alcotest.run "perfbench"
    [
      ("stats", stats_tests);
      ("spans", span_tests);
      ("loop", loop_tests);
      ("misc", misc_tests);
      ("gate", gate_tests);
    ]
