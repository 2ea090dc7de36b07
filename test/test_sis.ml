(* SIS-level tests: stub/arbiter executable semantics and the protocol
   behaviours of §4.2 (Fig 4.3 timing shapes, delayed reads, CALC_DONE
   management, multi-instance routing, the protocol monitor). *)

open Splice

let t name f = Alcotest.test_case name `Quick f
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let spec_of ?(bus = "plb") ?(width = 32) ?(extra = "") decls =
  Validate.of_string_exn ~lookup_bus:Registry.lookup_caps
    (Printf.sprintf
       "%%device_name d\n%%bus_type %s\n%%bus_width %d\n%%base_address 0x0\n%s%s"
       bus width extra decls)

(* a bare test bench: peripheral + manually driven SIS lines *)
type bench = { kernel : Kernel.t; periph : Peripheral.t; sis : Sis_if.t }

let bench ?width ?(behaviors = fun _ -> Stub_model.null_behavior) decls =
  let spec = spec_of ?width decls in
  let kernel = Kernel.create () in
  let periph = Peripheral.build kernel spec ~behaviors in
  { kernel; periph; sis = Peripheral.sis periph }

(* the test bench drives the SIS lines combinationally (like an adapter
   whose outputs are already settled for the current cycle) *)

(* present one write word with a one-cycle IO_ENABLE strobe *)
let write_word b ~id v =
  Signal.set_int b.sis.Sis_if.func_id id;
  Signal.set_int b.sis.Sis_if.data_in v;
  Signal.set_bool b.sis.Sis_if.data_in_valid true;
  Signal.set_bool b.sis.Sis_if.io_enable true;
  Kernel.cycle b.kernel;
  (* IO_DONE is driven combinationally during the strobe cycle (Fig 4.3) *)
  let done_now = Signal.get_bool b.sis.Sis_if.io_done in
  Signal.set_bool b.sis.Sis_if.io_enable false;
  if done_now then begin
    Signal.set_bool b.sis.Sis_if.data_in_valid false;
    done_now
  end
  else begin
    (* hold data/valid static until IO_DONE (§4.2.1) *)
    ignore
      (Kernel.run_until ~max:100 ~what:"io_done" b.kernel (fun () ->
           Signal.get_bool b.sis.Sis_if.io_done));
    Signal.set_bool b.sis.Sis_if.data_in_valid false;
    done_now
  end

(* issue a read request and wait for DATA_OUT_VALID; returns (value, cycles
   from request to data) *)
let read_word ?(max = 100) b ~id =
  Signal.set_int b.sis.Sis_if.func_id id;
  Signal.set_bool b.sis.Sis_if.data_in_valid false;
  Signal.set_bool b.sis.Sis_if.io_enable true;
  Kernel.cycle b.kernel;
  let first = Signal.get_bool b.sis.Sis_if.data_out_valid in
  let v0 = Signal.get_int b.sis.Sis_if.data_out in
  Signal.set_bool b.sis.Sis_if.io_enable false;
  if first then (v0, 1)
  else begin
    let cycles =
      Kernel.run_until ~max ~what:"data_out_valid" b.kernel (fun () ->
          Signal.get_bool b.sis.Sis_if.data_out_valid)
    in
    let v = Signal.get_int b.sis.Sis_if.data_out in
    Kernel.cycle b.kernel (* let the stub retire the served word *);
    (v, cycles + 1)
  end

let echo_behavior _ =
  Stub_model.behavior ~cycles:2 (fun inputs ->
      [ List.hd (List.assoc "x" inputs) ])

let stub_tests =
  [
    t "1-cycle write: IO_DONE raised combinationally (Fig 4.3)" (fun () ->
        let b = bench "void f(int x);" in
        check_bool "immediate" true (write_word b ~id:1 42));
    t "write to a non-selected id is ignored" (fun () ->
        let b = bench "void f(int x);\nvoid g(int x);" ~behaviors:(fun _ ->
            Stub_model.null_behavior)
        in
        let stub_f = Peripheral.stub b.periph "f" () in
        (* write to g (id 2): f must stay in its first input state *)
        ignore (write_word b ~id:2 7);
        check_bool "f untouched" true (Stub_model.state stub_f = Stub_model.Input 0));
    t "delayed read: request before calc completes stalls (Fig 4.3)" (fun () ->
        let b = bench "int f(int x);" ~behaviors:echo_behavior in
        ignore (write_word b ~id:1 99);
        (* read immediately: calc takes 2 cycles, so the response is delayed *)
        let v, cycles = read_word b ~id:1 in
        check_int "echoed" 99 v;
        check_bool "delayed" true (cycles > 1));
    t "read after calc done is served in one cycle" (fun () ->
        let b = bench "int f(int x);" ~behaviors:echo_behavior in
        ignore (write_word b ~id:1 123);
        Kernel.run b.kernel 5 (* let the calculation finish *);
        let v, cycles = read_word b ~id:1 in
        check_int "echoed" 123 v;
        check_int "1 cycle" 1 cycles);
    t "CALC_DONE rises on completion and clears after the read (§5.3.1)"
      (fun () ->
        let b = bench "int f(int x);" ~behaviors:echo_behavior in
        ignore (write_word b ~id:1 5);
        Kernel.run b.kernel 5;
        check_int "bit 0 set" 1 (Bits.to_int (Peripheral.status_vector b.periph));
        ignore (read_word b ~id:1);
        Kernel.run b.kernel 1;
        check_int "cleared" 0 (Bits.to_int (Peripheral.status_vector b.periph)));
    t "blocking void function serves a pseudo-output ack (§5.3.1)" (fun () ->
        let b = bench "void f(int x);" in
        ignore (write_word b ~id:1 1);
        let v, _ = read_word b ~id:1 in
        check_int "ack word" 0 v);
    t "nowait function returns to input state without output (§3.1.7)"
      (fun () ->
        let b = bench "nowait f(int x);" in
        let stub = Peripheral.stub b.periph "f" () in
        ignore (write_word b ~id:1 1);
        Kernel.run b.kernel 4;
        check_bool "back to input" true (Stub_model.state stub = Stub_model.Input 0);
        check_int "completed" 1 (Stub_model.completions stub);
        check_int "no calc_done" 0 (Bits.to_int (Peripheral.status_vector b.periph)));
    t "multi-word input sequencing across states" (fun () ->
        let collected = ref [] in
        let b =
          bench "void f(int*:3 xs, int y);" ~behaviors:(fun _ ->
              Stub_model.behavior (fun inputs ->
                  collected := inputs;
                  []))
        in
        List.iter (fun v -> ignore (write_word b ~id:1 v)) [ 10; 20; 30; 40 ];
        Kernel.run b.kernel 4;
        Alcotest.(check (list int64)) "xs" [ 10L; 20L; 30L ]
          (List.assoc "xs" !collected);
        Alcotest.(check (list int64)) "y" [ 40L ] (List.assoc "y" !collected));
    t "implicit count consumed at runtime" (fun () ->
        let got = ref [] in
        let b =
          bench "void f(int n, int*:n xs);" ~behaviors:(fun _ ->
              Stub_model.behavior (fun inputs ->
                  got := List.assoc "xs" inputs;
                  []))
        in
        ignore (write_word b ~id:1 2);
        ignore (write_word b ~id:1 7);
        ignore (write_word b ~id:1 8);
        Kernel.run b.kernel 4;
        Alcotest.(check (list int64)) "xs" [ 7L; 8L ] !got);
    t "stalled write is latched and consumed later (pending_write)" (fun () ->
        (* a nowait function lets the driver fire the next call while the
           previous one is still calculating; the presented word must be
           latched and consumed when the input state is re-entered *)
        let hits = ref [] in
        let b =
          bench "nowait f(int x);" ~behaviors:(fun _ ->
              Stub_model.behavior ~cycles:6 (fun inputs ->
                  hits := List.hd (List.assoc "x" inputs) :: !hits;
                  []))
        in
        let stub = Peripheral.stub b.periph "f" () in
        ignore (write_word b ~id:1 1);
        (* second call's word arrives mid-calculation and stalls until the
           stub re-enters its input state (§4.2.1 holds it static) *)
        check_bool "stalled" false (write_word b ~id:1 2);
        Kernel.run b.kernel 20;
        check_int "both calls ran" 2 (Stub_model.completions stub);
        Alcotest.(check (list int64)) "inputs seen" [ 2L; 1L ] !hits);
    t "reset returns every stub to its first input state" (fun () ->
        let b = bench "int f(int*:4 xs);" ~behaviors:(fun _ ->
            Stub_model.behavior (fun _ -> [ 0L ]))
        in
        ignore (write_word b ~id:1 1);
        ignore (write_word b ~id:1 2);
        Signal.set_bool b.sis.Sis_if.rst true;
        Kernel.cycle b.kernel;
        Signal.set_bool b.sis.Sis_if.rst false;
        Kernel.cycle b.kernel;
        let stub = Peripheral.stub b.periph "f" () in
        check_bool "input 0" true (Stub_model.state stub = Stub_model.Input 0));
  ]

let arbiter_tests =
  [
    t "arbiter routes outputs of the selected function only" (fun () ->
        let b =
          bench "int f(int x);\nint g(int x);" ~behaviors:(fun name ->
              Stub_model.behavior (fun inputs ->
                  let x = List.hd (List.assoc "x" inputs) in
                  [ (if name = "f" then Int64.add x 100L else Int64.add x 200L) ]))
        in
        ignore (write_word b ~id:1 1);
        ignore (write_word b ~id:2 2);
        let v, _ = read_word b ~id:2 in
        check_int "g result" 202 v;
        let v, _ = read_word b ~id:1 in
        check_int "f result" 101 v);
    t "CALC_DONE vector has one bit per instance (§5.2)" (fun () ->
        let b =
          bench "int f(int x):2;\nint g(int x);" ~behaviors:(fun _ ->
              Stub_model.behavior (fun _ -> [ 0L ]))
        in
        check_int "vector width" 3 (Bits.width (Peripheral.status_vector b.periph));
        ignore (write_word b ~id:2 1) (* instance 1 of f *);
        Kernel.run b.kernel 4;
        check_int "bit 1 set" 0b010 (Bits.to_int (Peripheral.status_vector b.periph)));
    t "multi-instance functions run independently (Fig 6.2)" (fun () ->
        let b =
          bench "int f(int x):2;" ~behaviors:(fun _ ->
              Stub_model.behavior ~cycles:3 (fun inputs ->
                  [ Int64.mul 2L (List.hd (List.assoc "x" inputs)) ]))
        in
        ignore (write_word b ~id:1 10);
        ignore (write_word b ~id:2 20) (* both instances now calculating *);
        let v2, _ = read_word b ~id:2 in
        let v1, _ = read_word b ~id:1 in
        check_int "instance 1" 40 v2;
        check_int "instance 0" 20 v1);
    t "duplicate ids rejected" (fun () ->
        let sis = Sis_if.create ~bus_width:32 ~func_id_width:2 ~instances:2 () in
        let p () = Stub_model.create_ports ~bus_width:32 () in
        match Arbiter_model.make ~stubs:[ (1, p ()); (1, p ()) ] sis with
        | _ -> Alcotest.fail "expected rejection"
        | exception Invalid_argument _ -> ());
    t "id 0 rejected for stubs (reserved for status)" (fun () ->
        let sis = Sis_if.create ~bus_width:32 ~func_id_width:2 ~instances:1 () in
        match
          Arbiter_model.make
            ~stubs:[ (0, Stub_model.create_ports ~bus_width:32 ()) ]
            sis
        with
        | _ -> Alcotest.fail "expected rejection"
        | exception Invalid_argument _ -> ());
    t "id beyond CALC_DONE width rejected at construction" (fun () ->
        (* instances:1 gives a 1-bit CALC_DONE; id 2 would need bit 1. The
           old arbiter silently dropped that bit at runtime, so the driver
           would poll a status flag that could never rise *)
        let sis = Sis_if.create ~bus_width:32 ~func_id_width:2 ~instances:1 () in
        match
          Arbiter_model.make
            ~stubs:[ (2, Stub_model.create_ports ~bus_width:32 ()) ]
            sis
        with
        | _ -> Alcotest.fail "expected rejection"
        | exception Invalid_argument msg ->
            check_bool "message names the id" true
              (Astring_contains.contains msg "function id 2"));
  ]

let monitor_tests =
  [
    t "monitor rejects writes to func id 0" (fun () ->
        let b = bench "void f(int x);" in
        Signal.set_int b.sis.Sis_if.func_id 0;
        Signal.set_bool b.sis.Sis_if.data_in_valid true;
        Signal.set_bool b.sis.Sis_if.io_enable true;
        match Kernel.cycle b.kernel with
        | () -> Alcotest.fail "expected check failure"
        | exception Kernel.Check_failed { check = "sis-protocol"; _ } ->
            Signal.clear_pending ());
    t "monitor rejects DATA_IN changing before IO_DONE (§4.2.1)" (fun () ->
        let b =
          bench "int f(int x);" ~behaviors:(fun _ ->
              Stub_model.behavior ~cycles:8 (fun _ -> [ 0L ]))
        in
        (* first word consumed; stub then calculates; present a second word
           (it stalls) and mutate DATA_IN mid-stall *)
        ignore (write_word b ~id:1 1);
        Signal.set_int b.sis.Sis_if.func_id 1;
        Signal.set_int b.sis.Sis_if.data_in 5;
        Signal.set_bool b.sis.Sis_if.data_in_valid true;
        Signal.set_bool b.sis.Sis_if.io_enable true;
        Kernel.cycle b.kernel;
        Signal.set_bool b.sis.Sis_if.io_enable false;
        Signal.set_int b.sis.Sis_if.data_in 6 (* illegal mutation *);
        (match Kernel.run b.kernel 2 with
        | () -> Alcotest.fail "expected check failure"
        | exception Kernel.Check_failed { message; _ } ->
            check_bool "mentions DATA_IN" true
              (Astring_contains.contains message "DATA_IN"));
        Signal.clear_pending ());
    t "monitor compares a 64-bit DATA_IN in full while a write stalls"
      (fun () ->
        (* the same stall as above on a 64-bit interface, where the two
           values differ only in bit 63: the monitor must see the change
           that the low 63 bits alone cannot *)
        let b =
          bench ~width:64 "int f(int x);" ~behaviors:(fun _ ->
              Stub_model.behavior ~cycles:8 (fun _ -> [ 0L ]))
        in
        let data v = Signal.set b.sis.Sis_if.data_in (Bits.create ~width:64 v) in
        ignore (write_word b ~id:1 1);
        Signal.set_int b.sis.Sis_if.func_id 1;
        data 0x8000_0000_0000_0005L;
        Signal.set_bool b.sis.Sis_if.data_in_valid true;
        Signal.set_bool b.sis.Sis_if.io_enable true;
        Kernel.cycle b.kernel;
        Signal.set_bool b.sis.Sis_if.io_enable false;
        (* holding the word is legal *)
        Kernel.cycle b.kernel;
        data 0x0000_0000_0000_0005L (* bit 63 only: illegal mutation *);
        (match Kernel.run b.kernel 2 with
        | () -> Alcotest.fail "expected check failure"
        | exception Kernel.Check_failed { message; _ } ->
            check_bool "mentions DATA_IN" true
              (Astring_contains.contains message "DATA_IN"));
        Signal.clear_pending ());
    t "monitor rejects IO_ENABLE during reset" (fun () ->
        let b = bench "void f(int x);" in
        Signal.set_bool b.sis.Sis_if.rst true;
        Signal.set_bool b.sis.Sis_if.io_enable true;
        (match Kernel.cycle b.kernel with
        | () -> Alcotest.fail "expected check failure"
        | exception Kernel.Check_failed _ -> ());
        Signal.clear_pending ());
    t "compliant traffic passes the monitor" (fun () ->
        let b = bench "int f(int x);" ~behaviors:echo_behavior in
        for i = 1 to 5 do
          ignore (write_word b ~id:1 i);
          let v, _ = read_word b ~id:1 in
          check_int "echo" i v
        done);
  ]

(* the decoder on hand-driven lines: each step sets the lines, samples,
   records what an observer reads, then advances *)
let phase_tests =
  let show = function
    | Sis_phase.Idle -> "idle" | Reset -> "reset" | Write -> "write"
    | Read -> "read" | Wait_w -> "wait_w" | Wait_r -> "wait_r"
    | Ack_w -> "ack_w" | Ack_r -> "ack_r"
  in
  let run steps =
    let sis = Sis_if.create ~bus_width:32 ~func_id_width:4 ~instances:2 () in
    let d = Sis_phase.create (Kernel.create ()) sis in
    List.map
      (fun (rst, en, div, dov, done_, fid) ->
        Signal.set_bool sis.Sis_if.rst rst;
        Signal.set_bool sis.Sis_if.io_enable en;
        Signal.set_bool sis.Sis_if.data_in_valid div;
        Signal.set_bool sis.Sis_if.data_out_valid dov;
        Signal.set_bool sis.Sis_if.io_done done_;
        Signal.set_int sis.Sis_if.func_id fid;
        Sis_phase.sample d;
        let r =
          match d.Sis_phase.phase with
          | Wait_w | Wait_r -> Printf.sprintf "%s %d" (show d.phase) (Sis_phase.waited d)
          | p when Sis_phase.ends d ->
              Printf.sprintf "%s ends %d" (show p) (Sis_phase.waited d)
          | p -> show p
        in
        Sis_phase.advance d;
        r)
      steps
  in
  let o = false and x = true in
  [
    t "decoder: strobes, waits, acknowledges and reset" (fun () ->
        Alcotest.(check (list string))
          "cycle classes"
          [
            (* a write acknowledged in its own cycle leaves nothing
               outstanding *)
            "write"; "idle";
            (* a write stalled two cycles *)
            "write"; "wait_w 1"; "ack_w ends 2";
            (* a read whose data comes back two cycles later *)
            "read"; "wait_r 1"; "ack_r ends 2";
            (* reset drops an outstanding read *)
            "read"; "reset"; "idle";
          ]
          (run
             [
               (o, x, x, o, x, 1); (o, o, x, o, o, 1);
               (o, x, x, o, o, 1); (o, o, x, o, o, 1); (o, o, x, o, x, 1);
               (o, x, o, o, o, 2); (o, o, o, o, o, 2); (o, o, o, x, x, 2);
               (o, x, o, o, o, 2); (x, o, o, o, o, 2); (o, o, o, o, o, 2);
             ]));
  ]

let tests =
  [
    ("sis.phase", phase_tests);
    ("sis.stub", stub_tests);
    ("sis.arbiter", arbiter_tests);
    ("sis.monitor", monitor_tests);
  ]
