(* lib/check tests: per-bus protocol monitors (a deliberately violating
   hand-built trace per bus must raise Check_failed, a clean interpolator
   run per bus must not), Specgen determinism/validity/shrinking, and the
   differential executor — including its ability to catch an injected bug. *)

open Splice

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* -------- hand-built violating traces: monitors must catch bugs -------- *)

let fresh_sis () = Sis_if.create ~bus_width:32 ~func_id_width:4 ~instances:3 ()

(* drive the SIS lines directly (no adapter, no stubs): [drive] is a list of
   per-cycle settings applied before each Kernel.cycle *)
let play kernel sis trace =
  List.iter
    (fun settings ->
      List.iter (fun f -> f sis) settings;
      Kernel.cycle kernel)
    trace

let expect_violation bus trace =
  let kernel = Kernel.create () in
  let sis = fresh_sis () in
  Bus_monitor.attach kernel ~bus sis;
  match play kernel sis trace with
  | () -> Alcotest.failf "%s: violating trace raised no Check_failed" bus
  | exception Kernel.Check_failed { check; _ } ->
      Signal.clear_pending ();
      Alcotest.(check string) "check name" (bus ^ "-protocol") check

let io_enable v (s : Sis_if.t) = Signal.set_bool s.Sis_if.io_enable v
let div v (s : Sis_if.t) = Signal.set_bool s.Sis_if.data_in_valid v
let dov v (s : Sis_if.t) = Signal.set_bool s.Sis_if.data_out_valid v
let io_done v (s : Sis_if.t) = Signal.set_bool s.Sis_if.io_done v
let fid v (s : Sis_if.t) = Signal.set_int s.Sis_if.func_id v
let data v (s : Sis_if.t) = Signal.set s.Sis_if.data_in (Bits.of_int ~width:32 v)

let violation_tests =
  [
    t "plb: RdAck with no read in flight is caught" (fun () ->
        (* dataAck-before-addrAck ordering: DATA_OUT_VALID with no request *)
        expect_violation "plb" [ [ dov true ] ]);
    t "plb: WrAck with no write in flight is caught" (fun () ->
        expect_violation "plb" [ [ io_done true ] ]);
    t "opb: Sln_XferAck held two cycles is caught" (fun () ->
        (* single-cycle acknowledge rule: a second back-to-back ack cycle *)
        expect_violation "opb"
          [ [ io_enable true; div true; fid 1; io_done true ]; [] ]);
    t "fcb: register field changed mid-opcode is caught" (fun () ->
        expect_violation "fcb"
          [
            [ io_enable true; div true; fid 2; data 5 ];
            [ io_enable false; fid 3 ];
          ]);
    t "apb: slave wait state on a write is caught" (fun () ->
        (* APB transfers cannot be paused: IO_DONE low in the access cycle *)
        expect_violation "apb" [ [ io_enable true; div true; fid 1 ] ]);
    t "apb: PENABLE held two cycles is caught" (fun () ->
        (* setup->enable phasing: accesses need an idle cycle between them *)
        expect_violation "apb" [ [ io_enable true; fid 1 ]; [] ]);
    t "ahb: HWDATA changed during a wait-stated beat is caught" (fun () ->
        expect_violation "ahb"
          [
            [ io_enable true; div true; fid 1; data 5 ];
            [ io_enable false; data 6 ];
          ]);
    t "avalon: address changed under waitrequest is caught" (fun () ->
        expect_violation "avalon"
          [ [ io_enable true; fid 2 ]; [ io_enable false; fid 3 ] ]);
    t "wishbone: ACK_O with no cycle in progress is caught" (fun () ->
        expect_violation "wishbone" [ [ io_done true ] ]);
    t "generic monitor guards user-registered buses" (fun () ->
        (* a bus name outside the dedicated set falls back to the capability-
           derived generic monitor, which still catches spurious acks *)
        expect_violation "mystery" [ [ io_done true ] ]);
    t "reset sanity: request strobed during reset is caught" (fun () ->
        expect_violation "plb"
          [ [ (fun s -> Signal.set_bool s.Sis_if.rst true); io_enable true ] ]);
  ]

(* -------- every monitor message, pinned: check name, cycle, text -------- *)

let rst v (s : Sis_if.t) = Signal.set_bool s.Sis_if.rst v

(* play [trace] on a bare kernel carrying [attach]'s monitors and return
   the first failure as "check @cycle: message" *)
let first_failure ?obs attach trace =
  let kernel = Kernel.create ?obs () in
  let sis = fresh_sis () in
  let drive = attach kernel sis in
  match
    List.iter
      (fun settings ->
        List.iter (fun f -> f drive) settings;
        Kernel.cycle kernel)
      trace
  with
  | () -> "no failure"
  | exception Kernel.Check_failed { check; cycle; message } ->
      Signal.clear_pending ();
      Printf.sprintf "%s @%d: %s" check cycle message

let sis_protocol kernel sis =
  Sis_monitor.attach kernel sis ~func_ids:[ 1; 2 ];
  sis

let bus_protocol bus kernel sis =
  Bus_monitor.attach kernel ~bus sis;
  sis

(* a strictly synchronous bus a user registered: it has no dedicated rule
   table, so it gets the generic one, flavoured by its capabilities *)
let user_sync_bus kernel sis =
  let module Sync = struct
    include Apb

    let caps = { Apb.caps with Bus_caps.name = "user-sync" }
  end in
  Registry.register (module Sync);
  Fun.protect
    ~finally:(fun () -> Registry.unregister "user-sync")
    (fun () -> Bus_monitor.attach kernel ~bus:"user-sync" sis);
  sis

(* the AXI native channels of a bridge instance registered on a bare
   kernel (no master, no slave): the trace drives the channels itself *)
let axi_channels kernel sis =
  let aclk = Kernel.add_domain kernel ~name:"axi.aclk" ~period:1 () in
  let fifo () =
    Async_fifo.create kernel ~wr_dom:aclk ~rd_dom:aclk ~depth:2 ~width:8
  in
  let nat = Axi.Native.create ~width:32 in
  Axi.register_instance kernel
    {
      Axi.nat;
      aclk;
      pclk = aclk;
      i_ratio = (1, 1);
      i_depth = 2;
      i_wcmd = fifo ();
      i_rcmd = fifo ();
    };
  Bus_monitor.attach kernel ~bus:"axi" sis;
  nat

let on f v (n : Axi.Native.t) = Signal.set_bool (f n) v

let nat f v (n : Axi.Native.t) = Signal.set_int (f n) v

let message_tests =
  let w = [ io_enable true; div true; fid 1; data 5 ] in
  let cases =
    [
      (* sis-protocol (§4.2) *)
      ( "sis: strobe in reset", sis_protocol, [ [ rst true; io_enable true ] ],
        "sis-protocol @0: IO_ENABLE asserted during reset" );
      ( "sis: strobe over a write", sis_protocol, [ w; [] ],
        "sis-protocol @1: new IO_ENABLE while a write word is outstanding" );
      ( "sis: strobe over a read", sis_protocol,
        [ [ io_enable true; fid 1 ]; [] ],
        "sis-protocol @1: new IO_ENABLE while a read is outstanding" );
      ( "sis: DATA_IN_VALID dropped", sis_protocol,
        [ w; [ io_enable false; div false ] ],
        "sis-protocol @1: DATA_IN_VALID dropped before IO_DONE on a write" );
      ( "sis: DATA_IN changed", sis_protocol, [ w; [ io_enable false; data 6 ] ],
        "sis-protocol @1: DATA_IN changed before IO_DONE on a write (§4.2.1)"
      );
      ( "sis: FUNC_ID changed on a write", sis_protocol,
        [ w; [ io_enable false; fid 2 ] ],
        "sis-protocol @1: FUNC_ID changed before IO_DONE on a write (§4.2.1)"
      );
      ( "sis: FUNC_ID changed on a read", sis_protocol,
        [ [ io_enable true; fid 1 ]; [ io_enable false; fid 2 ] ],
        "sis-protocol @1: FUNC_ID changed while a read is outstanding (§4.2.1)"
      );
      ( "sis: DATA_OUT_VALID without IO_DONE", sis_protocol, [ []; [ dov true ] ],
        "sis-protocol @1: DATA_OUT_VALID asserted without IO_DONE (Fig 4.3)" );
      ( "sis: write to FUNC_ID 0", sis_protocol,
        [ [ io_enable true; div true; io_done true ] ],
        "sis-protocol @0: write presented to FUNC_ID 0 (status register is \
         read-only)" );
      (* per-bus rule tables *)
      ( "opb: back-to-back select", bus_protocol "opb",
        [ [ io_enable true; fid 1; dov true; io_done true ];
          [ dov false; io_done false ] ],
        "opb-protocol @1: OPB_Select held across back-to-back accesses (the \
         OPB has no bursts)" );
      ( "fcb: Done with no opcode", bus_protocol "fcb", [ [ io_done true ] ],
        "fcb-protocol @0: FCB_Done asserted with no decoded opcode in flight" );
      ( "fcb: RdData with no load", bus_protocol "fcb",
        [ [ dov true; io_done true ] ],
        "fcb-protocol @0: FCB_RdData valid with no decoded load opcode in \
         flight" );
      ( "ahb: HADDR changed", bus_protocol "ahb",
        [ [ io_enable true; fid 1 ]; [ io_enable false; fid 2 ] ],
        "ahb-protocol @1: HADDR changed during a wait-stated AHB beat" );
      ( "avalon: writedata changed", bus_protocol "avalon",
        [ w; [ io_enable false; data 6 ] ],
        "avalon-protocol @1: av_writedata changed while av_waitrequest is \
         asserted" );
      ( "wishbone: DAT_O with no cycle", bus_protocol "wishbone",
        [ [ dov true; io_done true ] ],
        "wishbone-protocol @0: DAT_O valid with CYC_I/STB_I negated (no cycle \
         in progress)" );
      ( "axi: PRDATA with no access", bus_protocol "axi",
        [ [ dov true; io_done true ] ],
        "axi-protocol @0: bridge PRDATA strobed with no APB access in flight" );
      ( "axi: PENABLE held", bus_protocol "axi",
        [ [ io_enable true; fid 1; dov true; io_done true ]; [] ],
        "axi-protocol @1: bridge PENABLE held beyond the single enable phase \
         (setup->enable phasing)" );
      ( "axi: write wait state", bus_protocol "axi", [ w ],
        "axi-protocol @0: bridge inserted a wait state on a write (the APB \
         side of the CDC bridge is strictly synchronous)" );
      ( "apb: write wait state", bus_protocol "apb", [ w ],
        "apb-protocol @0: APB slave inserted a wait state on a write (APB \
         transfers cannot be paused)" );
      ( "user bus: write wait state", user_sync_bus, [ w ],
        "user-sync-protocol @0: wait state on a strictly synchronous write \
         (§4.2.2)" );
      ( "user bus: no stall rule when pseudo-asynchronous", bus_protocol "mystery",
        [ w; [ io_enable false ] ], "no failure" );
    ]
  and axi_cases =
    [
      ( "axi: AWVALID dropped",
        [ [ on (fun n -> n.Axi.Native.awvalid) true ];
          [ on (fun n -> n.Axi.Native.awvalid) false ] ],
        "axi-channels @1: AWVALID dropped before AWREADY (VALID must hold \
         until the handshake)" );
      ( "axi: W payload changed",
        [ [ on (fun n -> n.Axi.Native.wvalid) true;
            nat (fun n -> n.Axi.Native.wdata) 5 ];
          [ nat (fun n -> n.Axi.Native.wdata) 6 ] ],
        "axi-channels @1: W payload changed while VALID was waiting for READY"
      );
      ( "axi: ARVALID dropped after a stall",
        [ [ on (fun n -> n.Axi.Native.arvalid) true ]; [];
          [ on (fun n -> n.Axi.Native.arvalid) false ] ],
        "axi-channels @2: ARVALID dropped before ARREADY (VALID must hold \
         until the handshake)" );
      ( "axi: B outnumbers writes",
        [ [ on (fun n -> n.Axi.Native.bvalid) true;
            on (fun n -> n.Axi.Native.bready) true ] ],
        "axi-channels @0: B handshake with no outstanding write (responses \
         outnumber accepted AW/W transfers)" );
      ( "axi: R outnumbers reads",
        [ [ on (fun n -> n.Axi.Native.rvalid) true;
            on (fun n -> n.Axi.Native.rready) true ] ],
        "axi-channels @0: R handshake with no outstanding read (responses \
         outnumber accepted AR transfers)" );
      ( "axi: BRESP not OKAY",
        [ [ on (fun n -> n.Axi.Native.bvalid) true;
            nat (fun n -> n.Axi.Native.bresp) 2 ] ],
        "axi-channels @0: BRESP is not OKAY" );
      ( "axi: RRESP not OKAY",
        [ [ on (fun n -> n.Axi.Native.rvalid) true;
            nat (fun n -> n.Axi.Native.rresp) 3 ] ],
        "axi-channels @0: RRESP is not OKAY" );
      ( "axi: a handshake after a stall is clean",
        [ [ on (fun n -> n.Axi.Native.awvalid) true;
            nat (fun n -> n.Axi.Native.awaddr) 4 ];
          [ on (fun n -> n.Axi.Native.awready) true ];
          [ on (fun n -> n.Axi.Native.awvalid) false;
            on (fun n -> n.Axi.Native.awready) false;
            nat (fun n -> n.Axi.Native.awaddr) 8 ] ],
        "no failure" );
    ]
  in
  List.map
    (fun (name, attach, trace, expected) ->
      t name (fun () ->
          Alcotest.(check string) "failure" expected (first_failure attach trace)))
    cases
  @ [
      (* an unobserved kernel publishes no counts; the check must see the
         changed word all the same *)
      t "sis: DATA_IN changed on an unobserved kernel" (fun () ->
          Alcotest.(check string)
            "failure"
            "sis-protocol @1: DATA_IN changed before IO_DONE on a write \
             (§4.2.1)"
            (first_failure ~obs:Obs.none sis_protocol
               [ w; [ io_enable false; data 6 ] ]));
      t "sis: DATA_IN changed inside one run" (fun () ->
          (* the lines change on a clock edge, not between runs *)
          let kernel = Kernel.create () in
          let sis = fresh_sis () in
          ignore (sis_protocol kernel sis);
          Kernel.add kernel
            (Component.make "driver" ~seq:(fun () ->
                 if Kernel.cycles kernel = 0 then begin
                   Signal.set_next_bool sis.Sis_if.io_enable false;
                   Signal.set_next sis.Sis_if.data_in (Bits.of_int ~width:32 6)
                 end));
          List.iter (fun f -> f sis) w;
          Alcotest.(check string)
            "failure"
            "sis-protocol @1: DATA_IN changed before IO_DONE on a write \
             (§4.2.1)"
            (match Kernel.run kernel 3 with
            | () -> "no failure"
            | exception Kernel.Check_failed { check; cycle; message } ->
                Signal.clear_pending ();
                Printf.sprintf "%s @%d: %s" check cycle message));
    ]
  @ List.map
      (fun (name, trace, expected) ->
        t name (fun () ->
            Alcotest.(check string)
              "failure" expected
              (first_failure axi_channels trace)))
      axi_cases

(* -------- clean runs: monitors must stay silent on correct traffic ------ *)

let clean_tests =
  List.map
    (fun bus ->
      t (Printf.sprintf "clean interpolator run on %s passes all monitors" bus)
        (fun () ->
          let host = Interpolator.make_host_on_bus bus in
          Bus_monitor.attach (Host.kernel host) ~bus (Host.sis host);
          let scenario = Interp_scenarios.by_id 2 in
          let result, cycles = Interpolator.run host scenario in
          Alcotest.(check int64)
            "matches software reference"
            (Interpolator.reference (Interp_scenarios.inputs scenario))
            result;
          check_bool "cycles sane" true (cycles > 0);
          check_bool "bus monitor attached" true
            (List.mem (bus ^ "-protocol")
               (Kernel.check_names (Host.kernel host)))))
    (Registry.names ())

(* -------- Specgen: determinism, validity, shrinking -------- *)

let specgen_tests =
  [
    t "same seed, same spec and traffic" (fun () ->
        let g1 = Specgen.spec (Specgen.Rng.make 1234) in
        let g2 = Specgen.spec (Specgen.Rng.make 1234) in
        Alcotest.(check string) "render" (Specgen.render g1) (Specgen.render g2);
        let spec = Result.get_ok (Specgen.validate g1) in
        let t1 = Specgen.traffic (Specgen.Rng.make 99) spec in
        let t2 = Specgen.traffic (Specgen.Rng.make 99) spec in
        check_bool "traffic deterministic" true (t1 = t2));
    t "seeds 0..49 validate on their bus and on every other bus" (fun () ->
        for seed = 0 to 49 do
          let g = Specgen.spec (Specgen.Rng.make seed) in
          List.iter
            (fun bus ->
              match Specgen.validate (Specgen.with_bus g bus) with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "seed %d bus %s: %s" seed bus e)
            (Registry.names ())
        done);
    t "shrink candidates are smaller and still validate" (fun () ->
        let g = Specgen.spec (Specgen.Rng.make 7) in
        let size g =
          List.fold_left
            (fun acc (f : Specgen.gfunc) ->
              acc + 1 + f.Specgen.g_instances + List.length f.Specgen.g_params)
            0 g.Specgen.g_funcs
        in
        List.iter
          (fun g' ->
            check_bool "structurally no larger" true (size g' <= size g);
            (* CDC candidates shrink simulation dimensions the rendered
               declaration does not carry *)
            check_bool "renders differently or shrinks a CDC dimension" true
              (Specgen.render g' <> Specgen.render g
              || g'.Specgen.g_ratio <> g.Specgen.g_ratio
              || g'.Specgen.g_depth <> g.Specgen.g_depth);
            check_bool "validates" true
              (Result.is_ok (Specgen.validate g')))
          (Specgen.shrink g));
  ]

(* -------- differential executor -------- *)

let diff_tests =
  [
    t "fixed-seed differential sweep is clean on all registered buses" (fun () ->
        let report =
          Diff.run { Diff.default_config with seed = 7; count = 3 }
        in
        (match report.Diff.r_failure with
        | None -> ()
        | Some f ->
            Alcotest.fail
              (Format.asprintf "unexpected failure: %a" Diff.pp_failure f));
        check_int "3 iterations" 3 report.Diff.r_iterations;
        check_bool "calls executed" true (report.Diff.r_calls > 0));
    t "compiled scheduler matches the oracles bit-for-bit at -j 1 and -j 4"
      (fun () ->
        (* every (spec, bus) cell of the fixed corpus runs under event,
           sweep and the levelized compiled scheduler; [exec_bus] raises on
           any per-call cycle-count disagreement and the golden model on
           any data difference, so a clean report IS the bit-for-bit
           property.
           The digest folds every per-call cycle count under every
           scheduler, and must be identical with and without a pool. *)
        let config =
          {
            Diff.default_config with
            seed = 11;
            count = 4;
            scheds = [ `Event; `Sweep; `Compiled ];
          }
        in
        let seq = Diff.run config in
        (match seq.Diff.r_failure with
        | None -> ()
        | Some f ->
            Alcotest.fail
              (Format.asprintf "compiled scheduler diverged: %a"
                 Diff.pp_failure f));
        check_bool "calls cover all three schedulers" true
          (seq.Diff.r_calls > 0 && seq.Diff.r_calls mod 3 = 0);
        let pool = Option.get (Pool.of_jobs 4) in
        let par =
          Fun.protect
            ~finally:(fun () -> Pool.shutdown pool)
            (fun () -> Diff.run ~pool config)
        in
        check_bool "parallel run clean" true (par.Diff.r_failure = None);
        check_bool "digests agree at -j 4" true
          (Int64.equal seq.Diff.r_digest par.Diff.r_digest));
    t "every registered bus participates in the matrix" (fun () ->
        let report =
          Diff.run { Diff.default_config with seed = 1; count = 1 }
        in
        Alcotest.(check (list string))
          "matrix = Registry.names ()" (Registry.names ()) report.Diff.r_buses;
        List.iter
          (fun b -> check_bool (b ^ " enumerable") true (List.mem b report.Diff.r_buses))
          [ "plb"; "opb"; "fcb"; "apb"; "ahb"; "wishbone"; "avalon" ]);
    t "iteration_seed 0 is the base seed (repro contract)" (fun () ->
        check_int "identity at 0" 42 (Diff.iteration_seed 42 0);
        check_bool "distinct later" true
          (Diff.iteration_seed 42 1 <> Diff.iteration_seed 42 2));
    t "registry exposes every adapter module" (fun () ->
        check_int "all = names" (List.length (Registry.names ()))
          (List.length (Registry.all ()));
        List.iter
          (fun (module B : Bus.S) ->
            check_bool "find round-trips" true
              (Registry.find (Bus.name (module B)) <> None))
          (Registry.all ()));
    t "a data-corrupting bus is caught and shrunk" (fun () ->
        (* self-test of the whole loop: register a bus whose port flips the
           low bit of every word it reads back, fuzz it, and require a
           golden-model failure with a reproducible counterexample *)
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
                    (fun w -> Bits.logxor w (Bits.of_int ~width:(Bits.width w) 1))
                    (port.Bus_port.result ()));
            }
        end in
        Registry.register (module Buggy);
        Fun.protect
          ~finally:(fun () -> Registry.unregister "buggy")
          (fun () ->
            let report =
              Diff.run
                { Diff.default_config with seed = 5; count = 20; buses = [ "buggy" ] }
            in
            match report.Diff.r_failure with
            | None -> Alcotest.fail "corrupting bus survived the fuzz loop"
            | Some f ->
                Alcotest.(check string) "failing bus" "buggy" f.Diff.f_bus;
                check_bool "repro command names the seed" true
                  (Diff.repro_command f
                  = Printf.sprintf "splice fuzz --seed %d --count 1 --bus buggy"
                      f.Diff.f_seed);
                (* the shrunk spec still reproduces and is minimal enough to
                   read: a handful of functions at most *)
                check_bool "shrunk spec is small" true
                  (List.length f.Diff.f_spec.Specgen.g_funcs <= 2);
                (* every counterexample ships its flight-recorder dump *)
                match f.Diff.f_dump with
                | None -> Alcotest.fail "failure carried no dump"
                | Some dump -> (
                    match Query.of_string dump with
                    | Error e -> Alcotest.failf "dump does not parse: %s" e
                    | Ok d ->
                        check_bool "dump window is non-empty" true
                          (d.Query.d_events <> []);
                        Alcotest.(check (option string))
                          "dump context is the failure message"
                          (Some f.Diff.f_message) d.Query.d_context;
                        check_bool "signal transitions captured" true
                          (Query.filter ~kinds:[ Recorder.Signal_change ] d
                          <> []))));
    t "failure dumps are byte-identical at -j 1 and -j 4" (fun () ->
        (* the dump is part of the shrunk counterexample, so the PR 4
           determinism contract extends to it: same seed, same bytes,
           whatever the worker count *)
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
                    (fun w -> Bits.logxor w (Bits.of_int ~width:(Bits.width w) 1))
                    (port.Bus_port.result ()));
            }
        end in
        Registry.register (module Buggy);
        Fun.protect
          ~finally:(fun () -> Registry.unregister "buggy")
          (fun () ->
            let config =
              { Diff.default_config with seed = 5; count = 20; buses = [ "buggy" ] }
            in
            let seq = Diff.run config in
            let pool = Option.get (Pool.of_jobs 4) in
            let par =
              Fun.protect
                ~finally:(fun () -> Pool.shutdown pool)
                (fun () -> Diff.run ~pool config)
            in
            match (seq.Diff.r_failure, par.Diff.r_failure) with
            | Some fs, Some fp ->
                check_bool "digests agree" true
                  (Int64.equal seq.Diff.r_digest par.Diff.r_digest);
                (match (fs.Diff.f_dump, fp.Diff.f_dump) with
                | Some ds, Some dp ->
                    Alcotest.(check string) "dumps byte-identical" ds dp
                | _ -> Alcotest.fail "a failure carried no dump");
                Alcotest.(check string) "messages agree" fs.Diff.f_message
                  fp.Diff.f_message
            | _ -> Alcotest.fail "corrupting bus survived a sweep"));
    t "a check failing after sis-protocol leaves its cycle out of the dump"
      (fun () ->
        (* a bus whose own check, registered after sis-protocol, fails on
           the third IO_DONE-high cycle: sis-protocol has already passed
           that cycle, but the cycle never completes, so the dump's SIS and
           arbiter counts must stop at the two words before it *)
        let module Late = struct
          include Plb

          let caps = { Plb.caps with Bus_caps.name = "late" }

          let connect kernel spec (sis : Sis_if.t) =
            let port = Plb.connect kernel spec sis in
            let words = ref 0 in
            Kernel.at_reset kernel (fun () -> words := 0);
            Kernel.add_check kernel "late-protocol" (fun cycle ->
                if Signal.get_bool sis.Sis_if.io_done then begin
                  incr words;
                  if !words = 3 then
                    Kernel.check_fail ~cycle ~check:"late-protocol" "third word"
                end);
            { port with Bus_port.bus_name = "late" }
        end in
        Registry.register (module Late);
        Fun.protect
          ~finally:(fun () -> Registry.unregister "late")
          (fun () ->
            let report =
              Diff.run
                { Diff.default_config with seed = 5; count = 1; buses = [ "late" ] }
            in
            match report.Diff.r_failure with
            | None -> Alcotest.fail "the late check never failed"
            | Some f -> (
                match Option.map Query.of_string f.Diff.f_dump with
                | None -> Alcotest.fail "failure carried no dump"
                | Some (Error e) -> Alcotest.failf "dump does not parse: %s" e
                | Some (Ok d) ->
                    let hists =
                      List.map
                        (fun (h : Query.hist) ->
                          Printf.sprintf "%s n=%d sum=%d min=%d max=%d"
                            h.Query.q_name h.Query.q_count h.Query.q_sum
                            h.Query.q_min h.Query.q_max)
                        d.Query.d_histograms
                    in
                    Alcotest.(check (list (pair string int)))
                      "dump counters"
                      [
                        ("arbiter/grants", 2); ("arbiter/grants/1", 2);
                        ("bus/plb/overhead_cycles", 8); ("bus/plb/transfers", 3);
                        ("bus/plb/wait_states", 4); ("bus/plb/words_read", 1);
                        ("bus/plb/words_written", 1); ("driver/op/read_single", 2);
                        ("driver/op/set_address", 1);
                        ("driver/op/wait_for_results", 1);
                        ("driver/op/write_single", 1); ("driver/ops", 5);
                        ("driver/overhead_cycles", 5); ("driver/polls", 0);
                        ("sim/checks_run", 81); ("sim/comb_evals", 35);
                        ("sim/cycles", 27); ("sis/reads", 1);
                        ("sis/transactions", 2); ("sis/writes", 1);
                      ]
                      d.Query.d_counters;
                    Alcotest.(check (list string))
                      "dump histograms"
                      [
                        "arbiter/wait_cycles n=2 sum=4 min=0 max=4";
                        "bus/plb/burst_words n=3 sum=3 min=1 max=1";
                        "sim/comb_iters n=28 sum=5 min=0 max=1";
                      ]
                      hists)));
  ]

let tests =
  [
    ("check.monitor-violations", violation_tests);
    ("check.monitor-messages", message_tests);
    ("check.monitor-clean", clean_tests);
    ("check.specgen", specgen_tests);
    ("check.diff", diff_tests);
  ]
