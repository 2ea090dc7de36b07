(** Splice: a standardized peripheral logic and interface creation engine.

    Facade over the full library. The usual flow:

    {[
      let spec =
        Splice.Validate.of_string_exn
          ~lookup_bus:Splice.Registry.lookup_caps
          "%device_name d\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\n\
           int add2(int x, int y);"
      in
      (* generate the HDL + C files of Figs 8.3/8.7 *)
      let project = Splice.Project.generate spec in
      (* or simulate the generated system cycle-accurately *)
      let host =
        Splice.Host.create spec ~behaviors:(fun _ ->
            Splice.Stub_model.behavior (fun inputs ->
                [ Int64.add
                    (List.hd (List.assoc "x" inputs))
                    (List.hd (List.assoc "y" inputs)) ]))
      in
      let result, cycles = Splice.Host.call host ~func:"add2"
          ~args:[ ("x", [ 20L ]); ("y", [ 22L ]) ] in
      ignore (project, result, cycles)
    ]} *)

(* value domain + simulation kernel *)
module Bits = Splice_bits.Bits
module Signal = Splice_sim.Signal
module Component = Splice_sim.Component
module Kernel = Splice_sim.Kernel
module Vcd = Splice_sim.Vcd
module Wave = Splice_sim.Wave
module Async_fifo = Splice_sim.Async_fifo

(* specification front-end (Ch 3) *)
module Token = Splice_syntax.Token
module Lexer = Splice_syntax.Lexer
module Ast = Splice_syntax.Ast
module Parser = Splice_syntax.Parser
module Ctype = Splice_syntax.Ctype
module Spec = Splice_syntax.Spec
module Validate = Splice_syntax.Validate
module Bus_caps = Splice_syntax.Bus_caps
module Error = Splice_syntax.Error
module Loc = Splice_syntax.Loc

(* the SIS and its executable models (Chs 4-5) *)
module Plan = Splice_sis.Plan
module Sis_if = Splice_sis.Sis_if
module Sis_monitor = Splice_sis.Sis_monitor
module Stub_model = Splice_sis.Stub_model
module Arbiter_model = Splice_sis.Arbiter_model
module Peripheral = Splice_sis.Peripheral

(* buses (Chs 2, 4) *)
module Bus = Splice_buses.Bus
module Bus_port = Splice_buses.Bus_port
module Adapter_engine = Splice_buses.Adapter_engine
module Registry = Splice_buses.Registry
module Plb = Splice_buses.Plb
module Opb = Splice_buses.Opb
module Fcb = Splice_buses.Fcb
module Apb = Splice_buses.Apb
module Ahb = Splice_buses.Ahb
module Wishbone = Splice_buses.Wishbone
module Avalon = Splice_buses.Avalon
module Axi = Splice_buses.Axi

(* drivers + CPU model (Ch 6) *)
module Op = Splice_driver.Op
module Program = Splice_driver.Program
module Cpu = Splice_driver.Cpu
module Host = Splice_driver.Host

(* HDL + code generation (Chs 5-7) *)
module Hdl_ast = Splice_hdl.Hdl_ast
module Vhdl = Splice_hdl.Vhdl
module Verilog = Splice_hdl.Verilog
module Template = Splice_hdl.Template
module Vhdl_lint = Splice_hdl.Vhdl_lint
module Macro = Splice_codegen.Macro
module Busgen = Splice_codegen.Busgen
module Arbitergen = Splice_codegen.Arbitergen
module Stubgen = Splice_codegen.Stubgen
module Drivergen = Splice_codegen.Drivergen
module Project = Splice_codegen.Project
module Linuxgen = Splice_codegen.Linuxgen
module C_lint = Splice_codegen.C_lint
module Api = Splice_codegen.Api

(* multicore execution: domain pool + deterministic seed splitting *)
module Pool = Splice_par.Pool
module Splitmix = Splice_par.Splitmix

(* conformance checking: bus monitors, spec fuzzer, differential executor *)
module Bus_monitor = Splice_check.Bus_monitor
module Specgen = Splice_check.Specgen
module Diff = Splice_check.Diff

(* functional coverage: coverpoints, per-bus protocol groups *)
module Cover = Splice_cover.Cover
module Bus_cover = Splice_cover.Bus_cover

(* content-hashed design cache with instance-reset replay *)
module Design_cache = Splice_cache.Design_cache

(* observability: metrics, spans, flight recorder, exporters *)
module Obs = Splice_obs.Obs
module Metrics = Splice_obs.Metrics
module Tracer = Splice_obs.Tracer
module Recorder = Splice_obs.Recorder
module Query = Splice_obs.Query
module Openmetrics = Splice_obs.Openmetrics
module Json = Splice_obs.Json
module Export = Splice_obs.Export

(* simulation service: TCP daemon + wire protocol + client *)
module Serve = Splice_serve.Server
module Serve_protocol = Splice_serve.Protocol
module Serve_client = Splice_serve.Client

(* resources + devices + evaluation (Chs 8-9) *)
module Resources = Splice_resources.Model
module Resource_report = Splice_resources.Report
module Timer = Splice_devices.Timer
module Fir = Splice_devices.Fir
module Interpolator = Splice_devices.Interpolator
module Interp_scenarios = Splice_devices.Interp_scenarios
module Handcoded = Splice_devices.Handcoded
module Cycles = Splice_eval.Cycles
module Experiment = Splice_eval.Experiment
module Tables = Splice_eval.Tables

let version = Splice_serve.Server.version
