(* Simulation kernel semantics: two-phase evaluation, register commit,
   fixpoint detection, checks, waveform capture. *)

open Splice

let t name f = Alcotest.test_case name `Quick f
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* tests that drive signals without a kernel commit and count through this
   domain's store, as a kernel created here would *)
let commit () = Signal.commit_pending (Signal.store ())
let changes () = Signal.change_count (Signal.store ())

let signal_tests =
  [
    t "initial value is zero" (fun () ->
        let s = Signal.create ~name:"s" 8 in
        check_bool "zero" true (Bits.is_zero (Signal.get s)));
    t "set is immediate" (fun () ->
        let s = Signal.create 8 in
        Signal.set_int s 42;
        check_int "visible" 42 (Signal.get_int s));
    t "set width checked" (fun () ->
        let s = Signal.create 8 in
        Alcotest.check_raises "width"
          (Bits.Width_mismatch (Printf.sprintf "Signal.set %s: 4 vs 8" (Signal.name s)))
          (fun () -> Signal.set s (Bits.zero 4)));
    t "set_next is deferred until commit" (fun () ->
        let s = Signal.create 8 in
        Signal.set_next_int s 7;
        check_int "not yet" 0 (Signal.get_int s);
        commit ();
        check_int "now" 7 (Signal.get_int s));
    t "last set_next wins" (fun () ->
        let s = Signal.create 8 in
        Signal.set_next_int s 1;
        Signal.set_next_int s 2;
        commit ();
        check_int "last" 2 (Signal.get_int s));
    t "change_count increments only on real change" (fun () ->
        let s = Signal.create 8 in
        Signal.set_int s 5;
        let c = changes () in
        Signal.set_int s 5;
        check_int "no change" c (changes ());
        Signal.set_int s 6;
        check_int "changed" (c + 1) (changes ()));
    t "clear_pending drops writes" (fun () ->
        let s = Signal.create 8 in
        Signal.set_next_int s 9;
        Signal.clear_pending ();
        commit ();
        check_int "dropped" 0 (Signal.get_int s));
    t "commit_pending never replays writes after a mid-commit raise" (fun () ->
        (* regression: an exception raised while applying the queue used to
           leave [s_pending] populated, so the next cycle's commit silently
           replayed the stale writes over anything set since *)
        let a = Signal.create 8 and b = Signal.create 8 in
        let armed = ref true in
        Signal.on_change b (fun () ->
            if !armed then begin
              armed := false;
              failwith "listener boom"
            end);
        Signal.set_next_int b 1;
        Signal.set_next_int a 1 (* applied first: the queue is newest-first *);
        (match commit () with
        | () -> Alcotest.fail "expected the listener to raise"
        | exception Failure _ -> ());
        check_int "write before the raise applied" 1 (Signal.get_int a);
        (* the aborted commit must have emptied the queue *)
        Signal.set_int a 5;
        commit ();
        check_int "no stale replay" 5 (Signal.get_int a);
        check_int "interrupted write stands" 1 (Signal.get_int b));
  ]

(* Immediate-int storage edges: the widths where an OCaml int stops being
   a plain non-negative number (63 bits) or cannot hold the value at all
   (64 bits, the [Bits.t] slow path), and the array-backed deferred-write
   queue. *)
let check_bits name expected got =
  check_bool
    (Format.asprintf "%s: %a = %a" name Bits.pp expected Bits.pp got)
    true (Bits.equal expected got)

let does_not_fit = Failure "Bits.to_int: does not fit"

let vcd_of_run sched ~width ~step =
  (* a [width]-bit accumulator through one comb adder and one register *)
  let acc = Signal.create ~name:"acc" width and sum = Signal.create ~name:"sum" width in
  let k = Kernel.create ~sched () in
  Kernel.add k
    (Component.make ~reads:[ acc ]
       ~comb:(fun () -> Signal.set sum (Bits.add (Signal.get acc) step))
       ~seq:(fun () -> Signal.set_next acc (Signal.get sum))
       "acc");
  let path = Filename.temp_file "splice" ".vcd" in
  let vcd = Vcd.create ~path ~module_name:"tb" [ acc; sum ] in
  Vcd.attach vcd k;
  Kernel.run k 5;
  Vcd.close vcd;
  let ic = open_in path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  (Signal.get acc, contents)

let storage_tests =
  [
    t "63-bit value with its top bit set round-trips" (fun () ->
        let s = Signal.create 63 in
        let v = Bits.create ~width:63 0x4000_0000_0000_0005L in
        Signal.set s v;
        check_bits "get" v (Signal.get s);
        check_bool "holds" true (Signal.holds s v);
        check_bool "get_bool" true (Signal.get_bool s);
        Alcotest.check_raises "Bits.to_int" does_not_fit (fun () ->
            ignore (Bits.to_int v));
        Alcotest.check_raises "get_int raises like Bits.to_int" does_not_fit
          (fun () -> ignore (Signal.get_int s));
        Signal.set_next s (Bits.create ~width:63 0x3FFF_FFFF_FFFF_FFFFL);
        commit ();
        check_int "largest non-negative fits" max_int (Signal.get_int s));
    t "negative set_int / set_next_int mask like Bits.of_int" (fun () ->
        List.iter
          (fun width ->
            List.iter
              (fun v ->
                let expected = Bits.of_int ~width v in
                let name = Printf.sprintf "width %d, %d" width v in
                let s = Signal.create width in
                Signal.set_int s v;
                check_bits (name ^ " set_int") expected (Signal.get s);
                let s = Signal.create width in
                Signal.set_next_int s v;
                commit ();
                check_bits (name ^ " set_next_int") expected (Signal.get s))
              [ -1; -2; -12345; min_int; max_int ])
          [ 1; 2; 7; 32; 62; 63; 64 ]);
    t "64-bit signals: set, set_next, commit, restore, recorder" (fun () ->
        let s = Signal.create ~name:"wide" 64 in
        let top = Bits.create ~width:64 0x8000_0000_0000_0003L in
        let r = Recorder.create () in
        Signal.attach_recorder (Signal.store ()) (Some r);
        Signal.set s top;
        Signal.attach_recorder (Signal.store ()) None;
        check_bits "set" top (Signal.get s);
        check_bool "holds" true (Signal.holds s top);
        check_bool "get_bool" true (Signal.get_bool s);
        check_int "get_raw drops bit 63" 3 (Signal.get_raw s);
        Alcotest.check_raises "get_int" does_not_fit (fun () ->
            ignore (Signal.get_int s));
        (match Recorder.events r with
        | [ e ] ->
            check_int "recorded low 63 bits"
              (Int64.to_int (Bits.to_int64 top))
              e.Recorder.e_arg
        | es -> Alcotest.failf "expected one event, got %d" (List.length es));
        let next = Bits.create ~width:64 (-2L) in
        Signal.set_next s next;
        check_bits "deferred" top (Signal.get s);
        commit ();
        check_bits "committed" next (Signal.get s);
        (* a write differing only in bit 63 is a change *)
        let c = changes () in
        Signal.set s (Bits.create ~width:64 Int64.max_int);
        check_int "bit 63 change counted" (c + 1) (changes ());
        let c = changes () in
        Signal.restore_value s top;
        check_bits "restored" top (Signal.get s);
        check_int "restore is silent" c (changes ());
        let copy = Signal.create 64 in
        Signal.assign ~dst:copy ~src:s;
        check_bits "assign" top (Signal.get copy);
        Signal.set_int copy 0;
        Signal.assign_next ~dst:copy ~src:s;
        commit ();
        check_bits "assign_next" top (Signal.get copy));
    t "64-bit registers give equal VCDs on all three schedulers" (fun () ->
        let step = Bits.create ~width:64 0x9000_0000_0000_0001L in
        let v_s, d_s = vcd_of_run `Sweep ~width:64 ~step in
        let v_e, d_e = vcd_of_run `Event ~width:64 ~step in
        let v_c, d_c = vcd_of_run `Compiled ~width:64 ~step in
        (* five edges: acc = 5 * step mod 2^64 *)
        check_bits "value" (Bits.mul step (Bits.of_int ~width:64 5)) v_s;
        check_bits "event" v_s v_e;
        check_bits "compiled" v_s v_c;
        Alcotest.(check string) "event vcd" d_s d_e;
        Alcotest.(check string) "compiled vcd" d_s d_c);
    t "assign checks widths" (fun () ->
        let a = Signal.create ~name:"a" 8 and b = Signal.create ~name:"b" 4 in
        Alcotest.check_raises "assign"
          (Bits.Width_mismatch "Signal.assign a: 4 vs 8") (fun () ->
            Signal.assign ~dst:a ~src:b));
    t "queue: last write wins and commits newest-first past its capacity"
      (fun () ->
        (* 2 x 200 writes overflow the initial queue several times *)
        let n = 200 in
        let sigs = Array.init n (fun _ -> Signal.create 16) in
        let fired = ref [] in
        Array.iteri (fun i s -> Signal.on_change s (fun () -> fired := i :: !fired)) sigs;
        Array.iter (fun s -> Signal.set_next_int s 1) sigs;
        Array.iteri (fun i s -> Signal.set_next_int s (i + 2)) sigs;
        commit ();
        Array.iteri (fun i s -> check_int "last write" (i + 2) (Signal.get_int s)) sigs;
        (* newest-first: the last-queued signal fires first *)
        Alcotest.(check (list int)) "apply order" (List.init n Fun.id) !fired;
        (* an older write equal to the current value is still shadowed *)
        let s = sigs.(0) in
        Signal.set_next_int s 7;
        Signal.set_next_int s 2;
        commit ();
        check_int "shadowed" 2 (Signal.get_int s);
        commit ();
        check_int "nothing replayed" 2 (Signal.get_int s));
    t "queue: a raise mid-commit leaves it empty, even after growth" (fun () ->
        let sigs = Array.init 150 (fun _ -> Signal.create 8) in
        let boom = sigs.(100) in
        let armed = ref true in
        Signal.on_change boom (fun () ->
            if !armed then begin
              armed := false;
              failwith "listener boom"
            end);
        Array.iter (fun s -> Signal.set_next_int s 1) sigs;
        (match commit () with
        | () -> Alcotest.fail "expected the listener to raise"
        | exception Failure _ -> ());
        (* newest-first: 149..100 applied, 99..0 dropped with the queue *)
        check_int "applied before the raise" 1 (Signal.get_int sigs.(149));
        check_int "dropped" 0 (Signal.get_int sigs.(0));
        Signal.set_next_int sigs.(1) 9;
        commit ();
        check_int "queue usable" 9 (Signal.get_int sigs.(1));
        check_int "no stale replay" 0 (Signal.get_int sigs.(0)));
    t "clear_pending_for keeps other owners' writes in order" (fun () ->
        let mk name owner =
          let s = Signal.create ~name 8 in
          Signal.set_owner s ~owner;
          s
        in
        let a = mk "a" 1 and b = mk "b" 2 and c = mk "c" 2 in
        let fired = ref [] in
        List.iter
          (fun s -> Signal.on_change s (fun () -> fired := Signal.name s :: !fired))
          [ a; b; c ];
        Signal.set_next_int b 1;
        Signal.set_next_int a 1;
        Signal.set_next_int c 1;
        Signal.set_next_int b 2;
        Signal.set_next_int a 2;
        Signal.clear_pending_for ~owner:1;
        commit ();
        check_int "a dropped" 0 (Signal.get_int a);
        check_int "b last write" 2 (Signal.get_int b);
        check_int "c kept" 1 (Signal.get_int c);
        Alcotest.(check (list string)) "apply order" [ "b"; "c" ] (List.rev !fired));
  ]

(* regression: the sticky [registered] flag made a second kernel skip
   listener registration for a reused component — source changes then
   marked the dead kernel's dirty counter and the new kernel never
   re-evaluated the component. Both fan-out schedulers ([`Event] and
   [`Compiled]) rely on the generation guard, including when a component
   moves from a kernel under one to a kernel under the other. The second
   source change lands between cycles, so only the second kernel's
   listener can mark the component. *)
let reregisters first second =
  let src = Signal.create 8 and out = Signal.create 8 in
  let c =
    Component.make ~reads:[ src ]
      ~comb:(fun () -> Signal.set out (Signal.get src))
      "copy"
  in
  let k1 = Kernel.create ~sched:first () in
  Kernel.add k1 c;
  Signal.set_int src 3;
  Kernel.cycle k1;
  check_int "first kernel propagates" 3 (Signal.get_int out);
  let k2 = Kernel.create ~sched:second () in
  Kernel.add k2 c;
  Kernel.cycle k2;
  Signal.set_int src 9;
  Kernel.cycle k2;
  check_int "re-created kernel still propagates" 9 (Signal.get_int out)

let kernel_tests =
  [
    t "seq sees pre-edge values (register semantics)" (fun () ->
        (* two registers swapping values every cycle *)
        let a = Signal.create ~name:"a" 8 and b = Signal.create ~name:"b" 8 in
        Signal.set_int a 1;
        Signal.set_int b 2;
        let k = Kernel.create () in
        Kernel.add k
          (Component.make
             ~seq:(fun () -> Signal.set_next a (Signal.get b))
             "a<=b");
        Kernel.add k
          (Component.make
             ~seq:(fun () -> Signal.set_next b (Signal.get a))
             "b<=a");
        Kernel.cycle k;
        check_int "a" 2 (Signal.get_int a);
        check_int "b" 1 (Signal.get_int b);
        Kernel.cycle k;
        check_int "a back" 1 (Signal.get_int a));
    t "comb fixpoint propagates through a chain" (fun () ->
        (* c2 depends on c1 depends on src; registration order is reversed so
           at least two passes are needed *)
        let src = Signal.create 8 and w1 = Signal.create 8 and w2 = Signal.create 8 in
        let k = Kernel.create () in
        Kernel.add k
          (Component.make ~reads:[ w1 ]
             ~comb:(fun () -> Signal.set w2 (Signal.get w1))
             "w2");
        Kernel.add k
          (Component.make ~reads:[ src ]
             ~comb:(fun () -> Signal.set w1 (Signal.get src))
             "w1");
        Signal.set_int src 9;
        Kernel.cycle k;
        check_int "propagated" 9 (Signal.get_int w2));
    t "comb divergence detected" (fun () ->
        let s = Signal.create 8 in
        let k = Kernel.create ~max_comb_iters:8 () in
        Kernel.add k
          (Component.make ~reads:[ s ]
             ~comb:(fun () -> Signal.set s (Bits.succ (Signal.get s)))
             "oscillator");
        (match Kernel.cycle k with
        | () -> Alcotest.fail "expected divergence"
        | exception Kernel.Comb_divergence _ -> ());
        Signal.clear_pending ());
    t "a comb without declared reads is rejected at construction" (fun () ->
        (match Component.make ~comb:ignore "c" with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument msg ->
            check_bool "message names the component" true
              (Astring_contains.contains msg {|"c"|}));
        (* a comb that reads only its own state declares an empty list *)
        let c = Component.make ~reads:[] ~state:true ~comb:ignore "own-state" in
        check_bool "state-only comb re-arms on the clock edge" true
          c.Component.edge);
    t "cycles counts" (fun () ->
        let k = Kernel.create () in
        Kernel.run k 5;
        check_int "five" 5 (Kernel.cycles k));
    t "run_until returns cycle count" (fun () ->
        let n = ref 0 in
        let k = Kernel.create () in
        Kernel.add k (Component.make ~seq:(fun () -> incr n) "counter");
        let taken = Kernel.run_until k (fun () -> !n >= 3) in
        check_int "taken" 3 taken);
    t "run_until times out" (fun () ->
        let k = Kernel.create () in
        match Kernel.run_until ~max:10 ~what:"never" k (fun () -> false) with
        | _ -> Alcotest.fail "expected timeout"
        | exception Kernel.Timeout { waiting_for; _ } ->
            Alcotest.(check string) "what" "never" waiting_for);
    t "checks run and can fail" (fun () ->
        let k = Kernel.create () in
        Kernel.add_check k "always-fails" (fun cycle ->
            Kernel.check_fail ~cycle ~check:"always-fails" "boom");
        match Kernel.cycle k with
        | () -> Alcotest.fail "expected check failure"
        | exception Kernel.Check_failed { check; message; _ } ->
            Alcotest.(check string) "check" "always-fails" check;
            Alcotest.(check string) "msg" "boom" message);
    t "settle hooks fire once per cycle on the settled pre-edge view"
      (fun () ->
        (* one hook call per tick, after the comb fixpoint and before the
           edge: a glitching comb shows only its final value, a register
           its pre-edge value, and a reads-free constant driver has run by
           the first settle (seal marks every comb dirty) *)
        List.iter
          (fun sched ->
            let src = Signal.create 8
            and out = Signal.create 8
            and cst = Signal.create 8
            and r = Signal.create 8 in
            let k = Kernel.create ~sched () in
            Kernel.add k
              (Component.make ~reads:[]
                 ~comb:(fun () -> Signal.set_int cst 7)
                 "const");
            Kernel.add k
              (Component.make ~reads:[ src ]
                 ~comb:(fun () ->
                   Signal.set_int out 3;
                   Signal.set_int out (Signal.get_int src + 5))
                 "glitch");
            Kernel.add k
              (Component.make
                 ~seq:(fun () -> Signal.set_next_int r (Signal.get_int r + 1))
                 "reg");
            let seen = ref [] in
            Kernel.on_settle k (fun tick ->
                seen :=
                  (tick, Signal.get_int out, Signal.get_int cst,
                   Signal.get_int r)
                  :: !seen);
            Signal.set_int src 9;
            Kernel.run k 3;
            Alcotest.(check (list (pair int (pair int (pair int int)))))
              "ticks, settled comb, constant, pre-edge register"
              [ (0, (14, (7, 0))); (1, (14, (7, 1))); (2, (14, (7, 2))) ]
              (List.rev_map (fun (t, o, c, r) -> (t, (o, (c, r)))) !seen))
          [ `Event; `Compiled ]);
    t "a component reused by a re-created kernel re-registers" (fun () ->
        reregisters `Event `Event);
    t "a component reused by a re-created kernel re-registers (compiled)"
      (fun () -> reregisters `Compiled `Compiled);
    t "a component reused by a re-created kernel re-registers (event to \
       compiled)" (fun () -> reregisters `Event `Compiled);
    t "now_ns never decreases over 100k successive reads" (fun () ->
        (* CLOCK_MONOTONIC: build-phase times and daemon latencies are
           differences of these readings, so a step back would make them
           negative *)
        let prev = ref (Kernel.now_ns ()) and backwards = ref 0 in
        for _ = 1 to 100_000 do
          let now = Kernel.now_ns () in
          if Int64.compare now !prev < 0 then incr backwards;
          prev := now
        done;
        check_int "backward steps" 0 !backwards;
        check_bool "positive" true (Int64.compare !prev 0L > 0));
    t "a host called from another domain is refused" (fun () ->
        (* the kernel and its signals resolved this domain's signal store
           when they were built; cycling them in another domain would queue
           writes that no commit ever applies *)
        let host =
          Splice.Interpolator.make_host Splice.Interpolator.Splice_plb_simple
        in
        let outcome =
          Domain.join
            (Domain.spawn (fun () ->
                 match
                   Splice.Interpolator.run host (Splice.Interp_scenarios.by_id 1)
                 with
                 | _ -> None
                 | exception Invalid_argument msg -> Some msg))
        in
        Alcotest.(check (option string))
          "explicit error"
          (Some "Kernel: cycled from a domain other than the one that created it")
          outcome;
        check_int "nothing simulated" 0
          (Kernel.cycles (Splice.Host.kernel host)));
  ]

let scheduler_tests =
  (* the event-driven kernel (default since the dirty-set scheduler landed)
     must be observationally identical to the legacy sweep; only the number
     of comb evaluations may differ *)
  let chain sched =
    (* c2 depends on c1 depends on src, registered in reverse order so
       in-pass propagation is exercised *)
    let src = Signal.create 8 and w1 = Signal.create 8 and w2 = Signal.create 8 in
    let k = Kernel.create ~sched () in
    Kernel.add k
      (Component.make ~reads:[ w1 ]
         ~comb:(fun () -> Signal.set w2 (Signal.get w1))
         "w2");
    Kernel.add k
      (Component.make ~reads:[ src ]
         ~comb:(fun () -> Signal.set w1 (Signal.get src))
         "w1");
    (src, w2, k)
  in
  [
    t "declared reads propagate through a chain" (fun () ->
        let src, w2, k = chain `Event in
        Signal.set_int src 9;
        Kernel.cycle k;
        check_int "propagated" 9 (Signal.get_int w2);
        Signal.set_int src 4;
        Kernel.cycle k;
        check_int "re-propagated" 4 (Signal.get_int w2));
    t "compiled scheduler propagates through a chain" (fun () ->
        (* the second set happens between cycles, with no settle running —
           the fan-out listener must mark the reader, and the levelized
           order must carry the change down the reversed chain *)
        let src, w2, k = chain `Compiled in
        Signal.set_int src 9;
        Kernel.cycle k;
        check_int "propagated" 9 (Signal.get_int w2);
        Signal.set_int src 4;
        Kernel.cycle k;
        check_int "re-propagated" 4 (Signal.get_int w2));
    t "quiescent components are not re-evaluated" (fun () ->
        let run sched =
          let src, w2, k = chain sched in
          Signal.set_int src 9;
          Kernel.run k 10;
          (Signal.get_int w2, (Kernel.stats k).Kernel.comb_evals)
        in
        let v_event, evals_event = run `Event in
        let v_sweep, evals_sweep = run `Sweep in
        let v_compiled, evals_compiled = run `Compiled in
        check_int "same output" v_sweep v_event;
        check_int "same output (compiled)" v_sweep v_compiled;
        check_bool
          (Printf.sprintf "fewer evals (%d < %d)" evals_event evals_sweep)
          true
          (evals_event < evals_sweep);
        check_bool
          (Printf.sprintf "levelized no worse (%d <= %d)" evals_compiled
             evals_event)
          true
          (evals_compiled <= evals_event));
    t "iteration accounting is uniform: productive passes only" (fun () ->
        (* regression for the scheduler accounting skew: sweep used to
           report a minimum of one pass per settle (i + 1 on convergence)
           while event could report 0 — now every scheduler counts passes
           that changed at least one signal. On the reversed 2-level chain
           the first cycle needs 2 passes in registration order (the
           levelized order needs 1), and a quiescent cycle counts 0 for all
           three. *)
        let counts sched =
          let src, _, k = chain sched in
          Signal.set_int src 9;
          Kernel.cycle k;
          let first = (Kernel.stats k).Kernel.comb_iters in
          Kernel.cycle k;
          (first, (Kernel.stats k).Kernel.comb_iters - first)
        in
        let check_pair name exp got =
          Alcotest.(check (pair int int)) name exp got
        in
        check_pair "event (first, quiescent)" (2, 0) (counts `Event);
        check_pair "sweep (first, quiescent)" (2, 0) (counts `Sweep);
        check_pair "compiled (first, quiescent)" (1, 0) (counts `Compiled));
    t "seq-only kernel performs zero comb evals" (fun () ->
        let n = ref 0 in
        let k = Kernel.create () in
        Kernel.add k (Component.make ~seq:(fun () -> incr n) "counter");
        Kernel.run k 5;
        check_int "ran" 5 !n;
        check_int "no comb work" 0 (Kernel.stats k).Kernel.comb_evals);
    t "comb divergence detected with declared reads" (fun () ->
        (* a self-loop: the oscillator reads the signal it drives, so every
           evaluation re-marks it dirty and the delta loop never drains *)
        let s = Signal.create 8 in
        let k = Kernel.create ~max_comb_iters:8 () in
        Kernel.add k
          (Component.make ~reads:[ s ]
             ~comb:(fun () -> Signal.set s (Bits.succ (Signal.get s)))
             "oscillator");
        (match Kernel.cycle k with
        | () -> Alcotest.fail "expected divergence"
        | exception Kernel.Comb_divergence { iterations; _ } ->
            check_int "gave up at the limit" 8 iterations);
        Signal.clear_pending ());
    t "comb divergence detected under the compiled scheduler" (fun () ->
        (* same self-loop: the oscillator's own fan-out listener re-marks
           it on every write (calibration drops the self-edge, so it is
           levelized like any other node), and the divergence guard counts
           executed passes exactly like the registration-order schedulers *)
        let s = Signal.create 8 in
        let k = Kernel.create ~max_comb_iters:8 ~sched:`Compiled () in
        Kernel.add k
          (Component.make ~reads:[ s ]
             ~comb:(fun () -> Signal.set s (Bits.succ (Signal.get s)))
             "oscillator");
        (match Kernel.cycle k with
        | () -> Alcotest.fail "expected divergence"
        | exception Kernel.Comb_divergence { iterations; _ } ->
            check_int "gave up at the limit" 8 iterations);
        Signal.clear_pending ());
    t "edge-sensitive components re-arm every cycle" (fun () ->
        (* comb output depends on state mutated only by the component's own
           seq — no input signal ever changes, yet the output must track the
           internal counter (the conservative ~state:true contract) *)
        let out = Signal.create 8 in
        let count = ref 0 in
        let k = Kernel.create () in
        Kernel.add k
          (Component.make ~reads:[] ~state:true
             ~comb:(fun () -> Signal.set_int out !count)
             ~seq:(fun () -> incr count)
             "edge");
        Kernel.run k 3;
        (* settled (pre-edge) view of the third cycle *)
        check_int "tracks state" 2 (Signal.get_int out));
    t "edge-sensitive components re-arm under the compiled scheduler"
      (fun () ->
        (* no input signal ever changes, so no listener ever marks it dirty
           — only the edge re-arm at every settle keeps the component
           tracking its internal state *)
        let out = Signal.create 8 in
        let count = ref 0 in
        let k = Kernel.create ~sched:`Compiled () in
        Kernel.add k
          (Component.make ~reads:[] ~state:true
             ~comb:(fun () -> Signal.set_int out !count)
             ~seq:(fun () -> incr count)
             "edge");
        Kernel.run k 3;
        check_int "tracks state" 2 (Signal.get_int out));
    t "compiled scheduler re-levelizes after a mid-run registration"
      (fun () ->
        (* registering a reader after the first seal unseals the kernel;
           the next seal re-calibrates and re-orders (w1, w2, w3), so the
           new source value reaches the end of the chain in one productive
           pass, where registration order needs two *)
        let run sched =
          let src, w2, k = chain sched in
          Signal.set_int src 5;
          Kernel.run k 2;
          let w3 = Signal.create 8 in
          Kernel.add k
            (Component.make ~reads:[ w2 ]
               ~comb:(fun () -> Signal.set_int w3 (Signal.get_int w2 + 1))
               "w3");
          Signal.set_int src 7;
          let before = (Kernel.stats k).Kernel.comb_iters in
          Kernel.cycle k;
          (Signal.get_int w3, (Kernel.stats k).Kernel.comb_iters - before)
        in
        Alcotest.(check (pair int int)) "event" (8, 2) (run `Event);
        Alcotest.(check (pair int int)) "compiled" (8, 1) (run `Compiled));
  ]

let wave_tests =
  [
    t "wave captures history" (fun () ->
        let s = Signal.create ~name:"x" 4 in
        let k = Kernel.create () in
        let counter = ref 0 in
        Kernel.add k
          (Component.make
             ~seq:(fun () ->
               incr counter;
               Signal.set_next_int s !counter)
             "drv");
        let w = Wave.create [ s ] in
        Wave.attach w k;
        Kernel.run k 3;
        (* settled (pre-edge) view: the register still shows its old value
           during the cycle in which the new one is being computed *)
        let h = List.map Bits.to_int (Wave.history w s) in
        Alcotest.(check (list int)) "history" [ 0; 1; 2 ] h);
    t "wave renders 1-bit signals as pulses" (fun () ->
        let s = Signal.create ~name:"p" 1 in
        let w = Wave.create [ s ] in
        Signal.set_bool s false;
        Wave.sample w;
        Signal.set_bool s true;
        Wave.sample w;
        Signal.set_bool s false;
        Wave.sample w;
        let r = Wave.render w in
        check_bool "contains _#_" true
          (Astring_contains.contains r "_#_"));
    t "vcd file is written with header and changes" (fun () ->
        let s = Signal.create ~name:"v" 8 in
        let k = Kernel.create () in
        Kernel.add k
          (Component.make ~seq:(fun () -> Signal.set_next_int s 255) "drv");
        let path = Filename.temp_file "splice" ".vcd" in
        let vcd = Vcd.create ~path ~module_name:"tb" [ s ] in
        Vcd.attach vcd k;
        Kernel.run k 2;
        Vcd.close vcd;
        let ic = open_in path in
        let contents = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Sys.remove path;
        check_bool "header" true (Astring_contains.contains contents "$var wire 8");
        check_bool "value change" true (Astring_contains.contains contents "b11111111"));
    t "vcd set_next lands under the right #N marker" (fun () ->
        (* a set_next issued in cycle c commits at the end of c, so the VCD
           (which dumps the settled pre-edge view under #(c+1)) must first
           show it under #(c+2) — a regression guard for the [cycle + 1]
           emission in Vcd.attach *)
        let s = Signal.create ~name:"v" 8 in
        let k = Kernel.create () in
        Kernel.add k
          (Component.make ~seq:(fun () -> Signal.set_next_int s 255) "drv");
        let path = Filename.temp_file "splice" ".vcd" in
        let vcd = Vcd.create ~path ~module_name:"tb" [ s ] in
        Vcd.attach vcd k;
        Kernel.run k 2;
        Vcd.close vcd;
        let ic = open_in path in
        let contents = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Sys.remove path;
        check_bool "under #2" true
          (Astring_contains.contains contents "#2\nb11111111");
        check_bool "not under #1" false
          (Astring_contains.contains contents "#1\nb11111111"));
    t "vcd dump is identical under all three schedulers" (fun () ->
        (* full-stack equivalence: the complete Fig 9.2 driver call, traced
           signal-by-signal and cycle-by-cycle *)
        let dump sched =
          let host =
            Splice.Interpolator.make_host ~sched
              Splice.Interpolator.Splice_plb_simple
          in
          let sis = Splice.Host.sis host in
          let path = Filename.temp_file "splice" ".vcd" in
          let vcd = Vcd.create ~path ~module_name:"tb" (Sis_if.signals sis) in
          Vcd.attach vcd (Splice.Host.kernel host);
          let r, c =
            Splice.Interpolator.run host (Splice.Interp_scenarios.by_id 1)
          in
          Vcd.close vcd;
          let stats = Kernel.stats (Splice.Host.kernel host) in
          let ic = open_in path in
          let contents = really_input_string ic (in_channel_length ic) in
          close_in ic;
          Sys.remove path;
          (r, c, contents, stats)
        in
        let r_e, c_e, d_e, s_e = dump `Event in
        let r_s, c_s, d_s, s_s = dump `Sweep in
        let r_c, c_c, d_c, s_c = dump `Compiled in
        Alcotest.(check int64) "result" r_s r_e;
        Alcotest.(check int64) "result (compiled)" r_s r_c;
        check_int "cycles" c_s c_e;
        check_int "cycles (compiled)" c_s c_c;
        Alcotest.(check string) "vcd dumps" d_s d_e;
        Alcotest.(check string) "vcd dumps (compiled)" d_s d_c;
        (* scheduler-independent kernel stats agree too; comb_iters/evals
           legitimately differ (that is the point of a better scheduler) *)
        check_int "stats cycles" s_s.Kernel.cycles s_c.Kernel.cycles;
        check_int "stats checks_run" s_s.Kernel.checks_run
          s_c.Kernel.checks_run;
        check_int "stats cycles (event)" s_s.Kernel.cycles s_e.Kernel.cycles);
  ]

let determinism_tests =
  [
    t "two identical simulations produce identical traces" (fun () ->
        let run () =
          let spec =
            Splice.Validate.of_string_exn
              ~lookup_bus:Splice.Registry.lookup_caps
              "%device_name d\n%bus_type plb\n%bus_width 32\n%base_address \
               0x0\nint f(int n, int*:n xs);"
          in
          let host =
            Splice.Host.create spec ~behaviors:(fun _ ->
                Splice.Stub_model.behavior ~cycles:5 (fun inputs ->
                    [ List.fold_left Int64.add 0L (List.assoc "xs" inputs) ]))
          in
          let sis = Splice.Host.sis host in
          let wave = Wave.create (Splice.Sis_if.signals sis) in
          Wave.attach wave (Splice.Host.kernel host);
          let r, c =
            Splice.Host.call host ~func:"f"
              ~args:[ ("n", [ 3L ]); ("xs", [ 1L; 2L; 3L ]) ]
          in
          (r, c, Wave.render wave)
        in
        let r1, c1, w1 = run () in
        let r2, c2, w2 = run () in
        Alcotest.(check (list int64)) "results" r1 r2;
        check_int "cycles" c1 c2;
        Alcotest.(check string) "waves" w1 w2);
  ]

(* Deterministic allocation gate: minor-heap words per simulated cycle of a
   warm Fig 9.2 Splice PLB scenario-1 call (95 cycles). About 20 are
   measured; boxed signal values would cost 107-125, so the ceiling catches
   a return to boxing without depending on wall time. *)
let words_per_cycle_ceiling = 60.

let words_per_cycle sched =
  let host =
    Splice.Interpolator.make_host ~sched Splice.Interpolator.Splice_plb_simple
  in
  let scenario = Splice.Interp_scenarios.by_id 1 in
  ignore (Splice.Interpolator.run host scenario);
  let w0 = Gc.minor_words () in
  let _, cycles = Splice.Interpolator.run host scenario in
  let words = Gc.minor_words () -. w0 in
  (cycles, words /. float_of_int cycles)

let alloc_tests =
  List.map
    (fun (label, sched) ->
      t (Printf.sprintf "%s: warm Fig 9.2 call stays under the words/cycle ceiling" label)
        (fun () ->
          let cycles, wpc = words_per_cycle sched in
          check_int "cycles" 95 cycles;
          check_bool
            (Printf.sprintf "%.1f words/cycle <= %.0f" wpc words_per_cycle_ceiling)
            true
            (wpc <= words_per_cycle_ceiling)))
    [ ("event", `Event); ("sweep", `Sweep); ("compiled", `Compiled) ]

let tests =
  [
    ("sim.signal", signal_tests);
    ("sim.storage", storage_tests);
    ("sim.kernel", kernel_tests);
    ("sim.scheduler", scheduler_tests);
    ("sim.wave", wave_tests);
    ("sim.determinism", determinism_tests);
    ("sim.alloc", alloc_tests);
  ]
