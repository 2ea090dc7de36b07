(* splice — command-line front end.

   splice check  SPEC           validate a specification
   splice gen    SPEC [-o DIR]  generate the HDL + driver file set
   splice plan   SPEC           show per-function transfer plans
   splice buses                 list registered bus adapters
   splice eval                  reproduce the Ch 9 evaluation tables
   splice fuzz                  differential conformance fuzzing
   splice trace  DUMP           query a flight-recorder failure dump
   splice cover  MAP            report a functional-coverage map *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_spec path =
  match
    Splice.Validate.of_string ~lookup_bus:Splice.Registry.lookup_caps
      (read_file path)
  with
  | Ok spec -> Ok spec
  | Error issues ->
      Error
        (String.concat "\n"
           (List.map
              (fun i -> Format.asprintf "error: %a" Splice.Validate.pp_issue i)
              issues))

let spec_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"SPEC" ~doc:"Splice specification file (Ch 3 syntax).")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Executors to run grid cells on: 1 is strictly sequential, 0 \
           picks one per available core, N>1 uses a pool of N. Results are \
           bit-identical at any value.")

(* [f] receives the pool ([None] = sequential); shutdown is guaranteed *)
let with_jobs jobs f =
  let pool = Splice.Pool.of_jobs jobs in
  Fun.protect
    ~finally:(fun () -> Option.iter Splice.Pool.shutdown pool)
    (fun () -> f pool)

(* ------------------------------------------------------------------ *)

let check_cmd =
  let run path =
    match load_spec path with
    | Ok spec ->
        Format.printf "%a@." Splice.Spec.pp spec;
        print_endline "specification OK";
        0
    | Error msg ->
        prerr_endline msg;
        1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Validate a Splice specification.")
    Term.(const run $ spec_arg)

let gen_cmd =
  let out =
    Arg.(
      value & opt string "."
      & info [ "o"; "output" ] ~docv:"DIR"
          ~doc:"Directory to place the device subdirectory in (§3.2.3).")
  in
  let force =
    Arg.(
      value & flag
      & info [ "f"; "force" ]
          ~doc:"Overwrite an existing device directory without asking.")
  in
  let linux =
    Arg.(
      value & flag
      & info [ "linux" ]
          ~doc:
            "Also generate a Linux platform driver and userspace mmap shim \
             (§10.2).")
  in
  let run path out force linux =
    match load_spec path with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok spec -> (
        let project = Splice.Project.generate ~linux spec in
        match Splice.Project.write_to ~force ~dir:out project with
        | paths ->
            List.iter print_endline paths;
            Printf.printf "generated %d files\n" (List.length paths);
            0
        | exception Failure msg ->
            prerr_endline msg;
            1)
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate the bus adapter, arbiter, user-logic stubs and software \
          drivers for a specification (Figs 8.3/8.7).")
    Term.(const run $ spec_arg $ out $ force $ linux)

let plan_cmd =
  let run path =
    match load_spec path with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok spec ->
        List.iter
          (fun (f : Splice.Spec.func) ->
            (* implicit counts shown for a nominal value of 4 *)
            let plan = Splice.Plan.make spec f ~values:(fun _ -> 4) in
            Format.printf "%a@.@." Splice.Plan.pp plan)
          spec.Splice.Spec.funcs;
        0
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "Show the word-level transfer plan of every function (implicit \
          counts assumed 4).")
    Term.(const run $ spec_arg)

let buses_cmd =
  let run () =
    List.iter
      (fun name ->
        match Splice.Registry.lookup_caps name with
        | Some caps -> Format.printf "%a@." Splice.Bus_caps.pp caps
        | None -> ())
      (Splice.Registry.names ());
    0
  in
  Cmd.v
    (Cmd.info "buses" ~doc:"List the registered bus adapter libraries (§7.2).")
    Term.(const run $ const ())

let lint_cmd =
  let run path =
    match load_spec path with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok spec ->
        let project = Splice.Project.generate spec in
        let bad = ref 0 in
        List.iter
          (fun (f : Splice.Project.file) ->
            let issues =
              if Filename.check_suffix f.path ".vhd" then
                List.map
                  (fun (i : Splice.Vhdl_lint.issue) ->
                    Format.asprintf "%a" Splice.Vhdl_lint.pp_issue i)
                  (Splice.Vhdl_lint.lint f.contents)
              else if
                Filename.check_suffix f.path ".c"
                || Filename.check_suffix f.path ".h"
              then
                List.map
                  (fun (i : Splice.C_lint.issue) ->
                    Format.asprintf "%a" Splice.C_lint.pp_issue i)
                  (Splice.C_lint.lint
                     ~header:(Filename.check_suffix f.path ".h")
                     f.contents)
              else []
            in
            if issues = [] then Printf.printf "%-28s clean\n" f.path
            else begin
              bad := !bad + List.length issues;
              List.iter (fun i -> Printf.printf "%-28s %s\n" f.path i) issues
            end)
          (Splice.Project.files project);
        if !bad = 0 then 0 else 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Generate a specification's project in memory and lint every HDL \
          and C file.")
    Term.(const run $ spec_arg)

let markers_cmd =
  let bus_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BUS" ~doc:"Bus adapter library to inspect.")
  in
  let run bus =
    match Splice.Registry.find bus with
    | None ->
        Printf.eprintf "unknown bus %S\n" bus;
        1
    | Some (module B : Splice.Bus.S) ->
        print_endline "template markers (standard set, Fig 7.1):";
        List.iter
          (fun m -> Printf.printf "  %%%s%%\n" m)
          [ "COMP_NAME"; "BUS_WIDTH"; "FUNC_ID_WIDTH"; "BASE_ADDR"; "GEN_DATE"; "DMA_ENABLED" ];
        print_endline "bus-specific markers (§7.1.2 marker loader):";
        List.iter (fun (m, _) -> Printf.printf "  %%%s%%\n" m) B.extra_markers;
        print_endline "markers referenced by the adapter template:";
        List.iter
          (fun m -> Printf.printf "  %%%s%%\n" m)
          (Splice.Template.markers_in B.adapter_template);
        0
  in
  Cmd.v
    (Cmd.info "markers"
       ~doc:
         "List the template markers a bus adapter library defines and uses \
          (Ch 7).")
    Term.(const run $ bus_arg)

let eval_cmd =
  let stats =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats" ] ~docv:"FILE"
          ~doc:
            "Re-run the Fig 9.2 measurement instrumented and write a \
             plain-text stats report: per-implementation cycle budgets \
             (calc/bus/driver/idle per scenario) followed by every counter \
             and histogram (bus/*, arbiter/*, sis/*, driver/*, sim/*).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON of the instrumented Fig 9.2 \
             runs (one process per implementation, one thread per span \
             track; timestamps in bus-clock cycles). Open at \
             chrome://tracing or ui.perfetto.dev.")
  in
  let openmetrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "openmetrics" ] ~docv:"FILE"
          ~doc:
            "Write an OpenMetrics/Prometheus text exposition of every \
             counter and histogram the instrumented Fig 9.2 runs \
             accumulated (merged across implementations), e.g. \
             BENCH_openmetrics.txt — lets CI scrape cycle counts and comb \
             evaluations as trend series.")
  in
  let digest =
    Arg.(
      value & flag
      & info [ "digest" ]
          ~doc:
            "Print only the deterministic digest of the Fig 9.2 measurement \
             rows (a splitmix64 fold of implementation names and \
             per-scenario cycle counts). A simulation-service $(b,eval) \
             request reports the same value, so daemon-vs-CLI agreement is \
             a string comparison.")
  in
  let run digest stats trace openmetrics jobs =
    if digest then
      with_jobs jobs (fun pool ->
          let rows = Splice.Cycles.measure ?pool () in
          Printf.printf "0x%016Lx\n" (Splice.Cycles.digest rows);
          0)
    else begin
    with_jobs jobs (fun pool ->
        print_string (Splice.Tables.everything ?pool ()));
    match (stats, trace, openmetrics) with
    | None, None, None -> 0
    | _ -> (
        let drows =
          Splice.Cycles.measure_detailed ~tracing:(trace <> None) ()
        in
        try
          Option.iter
            (fun path ->
              Splice.Export.write_file path
                (Splice.Cycles.breakdown_table drows
                ^ "\n"
                ^ Splice.Cycles.stats_report drows);
              Printf.printf "wrote stats report to %s\n" path)
            stats;
          Option.iter
            (fun path ->
              Splice.Export.write_file path
                (Splice.Cycles.chrome_trace_string drows);
              Printf.printf "wrote Chrome trace to %s\n" path)
            trace;
          Option.iter
            (fun path ->
              (* one merged registry: Obs.merge sums commutatively, so the
                 exposition is a stable function of the measurement *)
              let agg = Splice.Obs.create ~recording:false () in
              List.iter
                (fun (r : Splice.Cycles.detailed_row) ->
                  Splice.Obs.merge ~into:agg r.Splice.Cycles.obs)
                drows;
              let m = Splice.Obs.metrics agg in
              (* the measurement ran on this domain, so its design-cache
                 hit/miss counters are part of the exposition too *)
              Splice.Design_cache.metrics_into m;
              Splice.Export.write_file path
                (Splice.Openmetrics.of_metrics_body m
                ^ Splice.Openmetrics.family ~name:"build_info" ~typ:`Gauge
                    [
                      ( [ ("version", Splice.version) ],
                        Splice.Openmetrics.Int 1 );
                    ]
                ^ Splice.Openmetrics.eof);
              Printf.printf "wrote OpenMetrics exposition to %s\n" path)
            openmetrics;
          0
        with Sys_error msg ->
          Printf.eprintf "error: %s\n" msg;
          1)
    end
  in
  Cmd.v
    (Cmd.info "eval"
       ~doc:
         "Reproduce the Ch 9 evaluation (Figs 9.1-9.3 and the ablations). \
          With $(b,--stats), $(b,--trace) and/or $(b,--openmetrics), \
          additionally re-run the Fig 9.2 measurement with the \
          observability layer attached and export the results.")
    Term.(const run $ digest $ stats $ trace $ openmetrics $ jobs_arg)

let fuzz_cmd =
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Base random seed. Defaults to a fresh random seed (printed, so \
             any run can be reproduced).")
  in
  let count =
    Arg.(
      value & opt int 50
      & info [ "count" ] ~docv:"K"
          ~doc:"Random specifications to generate and run.")
  in
  let bus =
    Arg.(
      value
      & opt (some string) None
      & info [ "bus" ] ~docv:"BUS"
          ~doc:
            "Restrict the matrix to one bus (default: every registered bus).")
  in
  let sched =
    Arg.(
      value & opt string "all"
      & info [ "sched" ] ~docv:"SCHED"
          ~doc:
            "Kernel scheduler(s): $(b,event), $(b,sweep), $(b,compiled), \
             $(b,both) (event+sweep), or $(b,all) — the default — running \
             every cell under all three and cross-checking the E14 \
             cycle-count invariant (a compiled-vs-event disagreement is a \
             failure).")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress per-iteration progress.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write a machine-readable summary of the sweep (seed, matrix, \
             calls, throughput, digest) as JSON, e.g. BENCH_fuzz.json.")
  in
  let record =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"FILE"
          ~doc:
            "On failure, write the shrunk counterexample's flight-recorder \
             dump (the last ring of signal transitions, bus transactions, \
             scheduler passes and check evaluations, ending at the \
             violation) to $(docv), ready for $(b,splice trace). No file \
             is written when the sweep passes.")
  in
  let cover =
    Arg.(
      value
      & opt (some string) None
      & info [ "cover" ] ~docv:"FILE"
          ~doc:
            "Collect functional coverage (per-bus protocol phase, burst, \
             wait-state and grant coverpoints) and write the merged map to \
             $(docv) as JSON, ready for $(b,splice cover). Also turns on \
             coverage-guided seed scheduling — new iterations bias toward \
             spec shapes whose bins are still empty — unless \
             $(b,--no-guide) is given. The map is byte-identical at any \
             $(b,-j).")
  in
  let no_guide =
    Arg.(
      value & flag
      & info [ "no-guide" ]
          ~doc:
            "With $(b,--cover): keep collecting coverage but use plain \
             random (canonical per-iteration) seeds — the baseline side of \
             experiment E17.")
  in
  let clock_ratio =
    Arg.(
      value
      & opt (some string) None
      & info [ "clock-ratio" ] ~docv:"A:B"
          ~doc:
            "Pin the ACLK:PCLK clock-frequency ratio of CDC buses (axi) \
             instead of letting every iteration draw one — e.g. $(b,3:1) \
             runs the AXI front end at three times the peripheral clock. \
             Echoed by failure reproduction commands.")
  in
  let fifo_depth =
    Arg.(
      value
      & opt (some int) None
      & info [ "fifo-depth" ] ~docv:"N"
          ~doc:
            "Pin the CDC command/response FIFO depth of CDC buses (axi) to \
             $(docv) (a power of two in 2..64) instead of letting every \
             iteration draw one.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:
            "Disable the per-domain design cache and re-elaborate every \
             (spec, bus, scheduler) cell from scratch. Every report field \
             except the hit/miss counters is byte-identical either way — \
             this flag exists for timing comparisons and for CI's \
             determinism cross-check.")
  in
  let run seed count bus sched quiet jobs json record cover no_guide
      clock_ratio fifo_depth no_cache =
    let seed =
      match seed with
      | Some s -> s
      | None ->
          Random.self_init ();
          Random.bits ()
    in
    let fail e =
      prerr_endline e;
      exit 2
    in
    let get = function Ok v -> v | Error e -> fail e in
    let config =
      {
        Splice.Diff.default_config with
        seed;
        count;
        buses = Option.to_list bus;
        scheds = get (Splice.Diff.scheds_of_string sched);
        cover = cover <> None;
        guide = cover <> None && not no_guide;
        ratio =
          Option.map (fun r -> get (Splice.Diff.ratio_of_string r)) clock_ratio;
        depth = fifo_depth;
        cache = not no_cache;
      }
    in
    get (Splice.Diff.check config);
    let { Splice.Diff.buses; scheds; _ } = config in
    Printf.printf "splice fuzz: seed=%d count=%d buses=%s scheds=%s jobs=%d\n%!"
      seed count
      (String.concat ","
         (match buses with [] -> Splice.Registry.names () | b -> b))
      (String.concat "," (List.map Splice.Diff.sched_name scheds))
      jobs;
    let log = if quiet then ignore else fun line -> Printf.printf "  %s\n%!" line in
    let t0 = Unix.gettimeofday () in
    let report = with_jobs jobs (fun pool -> Splice.Diff.run ~log ?pool config) in
    let wall = Unix.gettimeofday () -. t0 in
    let cells =
      report.Splice.Diff.r_iterations * List.length report.Splice.Diff.r_buses
    in
    let ok = report.Splice.Diff.r_failure = None in
    let pct h t = if t = 0 then 100.0 else 100.0 *. float_of_int h /. float_of_int t in
    let cover_summary =
      Option.map
        (fun c ->
          let h, t = Splice.Cover.totals c in
          let ph, pt =
            Splice.Cover.totals ~prefix:"bus/"
              ~points:[ "phase"; "phase_seq" ] c
          in
          (c, h, t, ph, pt))
        report.Splice.Diff.r_cover
    in
    Option.iter
      (fun path ->
        let safe_rate n = if wall > 0. then float_of_int n /. wall else 0. in
        Splice.Export.write_file path
          (let open Splice.Json in
           to_string
             (Obj
                ([
                  ("seed", Int seed);
                  ("count", Int count);
                  ("jobs", Int jobs);
                  ( "buses",
                    List
                      (List.map
                         (fun b -> Splice.Json.String b)
                         report.Splice.Diff.r_buses) );
                  ( "scheds",
                    List
                      (List.map
                         (fun s ->
                           Splice.Json.String (Splice.Diff.sched_name s))
                         scheds) );
                  ("iterations", Int report.Splice.Diff.r_iterations);
                  ("calls", Int report.Splice.Diff.r_calls);
                  ("wall_s", Float wall);
                  ("specs_per_sec", Float (safe_rate report.Splice.Diff.r_iterations));
                  ("cells_per_sec", Float (safe_rate cells));
                  ( "digest",
                    String (Printf.sprintf "0x%016Lx" report.Splice.Diff.r_digest)
                  );
                  ("ok", Bool ok);
                  ( "cache",
                    Obj
                      [
                        ("enabled", Bool config.Splice.Diff.cache);
                        ("hits", Int report.Splice.Diff.r_cache_hits);
                        ("misses", Int report.Splice.Diff.r_cache_misses);
                      ] );
                ]
                @
                 match cover_summary with
                | None -> []
                | Some (_, h, t, ph, pt) ->
                    [
                      ( "cover",
                        Splice.Json.Obj
                          [
                            ("bins_hit", Splice.Json.Int h);
                            ("bins_total", Int t);
                            ("phase_hit", Int ph);
                            ("phase_total", Int pt);
                            ("guided", Bool config.Splice.Diff.guide);
                            ( "trajectory",
                              List
                                (List.map
                                   (fun (it, hh, tt) ->
                                     Splice.Json.Obj
                                       [
                                         ("iterations", Splice.Json.Int it);
                                         ("bins_hit", Int hh);
                                         ("bins_total", Int tt);
                                       ])
                                   report.Splice.Diff.r_trajectory) );
                          ] );
                    ])));
        Printf.printf "wrote fuzz summary to %s\n" path)
      json;
    (match (cover, cover_summary) with
    | Some path, Some (c, h, t, ph, pt) ->
        Splice.Cover.save c path;
        Printf.printf
          "coverage: %d/%d bins (%.1f%%); protocol phases: %d/%d (%.1f%%)\n" h
          t (pct h t) ph pt (pct ph pt);
        if report.Splice.Diff.r_trajectory <> [] then
          Printf.printf "coverage trajectory (iterations:bins hit): %s\n"
            (String.concat "  "
               (List.map
                  (fun (it, hh, _) -> Printf.sprintf "%d:%d" it hh)
                  report.Splice.Diff.r_trajectory));
        Printf.printf
          "wrote coverage map to %s (inspect with `splice cover %s`)\n" path
          path
    | _ -> ());
    (if config.Splice.Diff.cache then
       let h = report.Splice.Diff.r_cache_hits
       and m = report.Splice.Diff.r_cache_misses in
       Printf.printf "design cache: %d hits, %d misses (%.0f%% hit rate)\n" h m
         (if h + m = 0 then 0.0
          else 100.0 *. float_of_int h /. float_of_int (h + m)));
    match report.Splice.Diff.r_failure with
    | None ->
        Printf.printf
          "OK: %d specs x %d buses, %d calls checked, no protocol or \
           golden-model violations\n"
          report.Splice.Diff.r_iterations
          (List.length report.Splice.Diff.r_buses)
          report.Splice.Diff.r_calls;
        Printf.printf "digest 0x%016Lx\n" report.Splice.Diff.r_digest;
        0
    | Some f ->
        Format.eprintf "%a@." Splice.Diff.pp_failure f;
        (match record with
        | None -> ()
        | Some path -> (
            match f.Splice.Diff.f_dump with
            | Some dump ->
                Splice.Export.write_file path dump;
                Printf.eprintf "wrote failure dump to %s (inspect with \
                                `splice trace %s`)\n" path path
            | None ->
                Printf.eprintf
                  "no flight-recorder dump for this failure (E14 \
                   cycle-count mismatch)\n"));
        1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential conformance fuzzing: run random specifications and \
          random traffic on every registered bus under all three kernel \
          schedulers (event, sweep, compiled), with all protocol \
          monitors attached, asserting golden-model data equality and \
          scheduler cycle-count agreement. Prints a reproduction command \
          on failure.")
    Term.(
      const run $ seed $ count $ bus $ sched $ quiet $ jobs_arg $ json $ record
      $ cover $ no_guide $ clock_ratio $ fifo_depth $ no_cache)

let trace_cmd =
  (* [some string], not [some file]: a missing path must reach [Query.load]
     so every bad-dump mode exits through the same one-line diagnostic *)
  let dump_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DUMP"
          ~doc:
            "Flight-recorder dump (JSON), e.g. the file written by \
             $(b,splice fuzz --record) or $(b,Recorder.dump_string).")
  in
  let signal =
    Arg.(
      value
      & opt (some string) None
      & info [ "signal" ] ~docv:"NAME"
          ~doc:"Only value changes of the named signal.")
  in
  let component =
    Arg.(
      value
      & opt (some string) None
      & info [ "component" ] ~docv:"NAME"
          ~doc:"Only combinational evaluations of the named component.")
  in
  let from_c =
    Arg.(
      value
      & opt (some int) None
      & info [ "from" ] ~docv:"CYCLE" ~doc:"Drop events before $(docv).")
  in
  let to_c =
    Arg.(
      value
      & opt (some int) None
      & info [ "to" ] ~docv:"CYCLE" ~doc:"Drop events after $(docv).")
  in
  let last =
    Arg.(
      value & opt int 0
      & info [ "last" ] ~docv:"N"
          ~doc:"Only the trailing $(docv) matching events (0 = all).")
  in
  let flame =
    Arg.(
      value & flag
      & info [ "flamegraph" ]
          ~doc:
            "Emit collapsed-stack flamegraph lines of per-component comb \
             evaluations inside the window (feed to flamegraph.pl, \
             inferno or speedscope) instead of the event listing.")
  in
  let openm =
    Arg.(
      value & flag
      & info [ "openmetrics" ]
          ~doc:
            "Emit the dump's embedded metrics snapshot as an \
             OpenMetrics/Prometheus text exposition instead of the event \
             listing.")
  in
  let run path signal component from_c to_c last flame openm =
    match Splice.Query.load path with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | Ok d ->
        if flame then begin
          print_string (Splice.Query.flamegraph d);
          0
        end
        else if openm then begin
          print_string (Splice.Query.openmetrics d);
          0
        end
        else begin
          let subject, kinds =
            match (signal, component) with
            | Some _, Some _ ->
                Printf.eprintf
                  "error: --signal and --component are exclusive\n";
                exit 2
            | Some s, None -> (Some s, Some [ Splice.Recorder.Signal_change ])
            | None, Some c -> (Some c, Some [ Splice.Recorder.Comp_eval ])
            | None, None -> (None, None)
          in
          let filtered =
            subject <> None || kinds <> None || from_c <> None || to_c <> None
            || last > 0
          in
          if not filtered then print_string (Splice.Query.summary d);
          let evs =
            Splice.Query.filter ?subject ?kinds ?from_cycle:from_c
              ?to_cycle:to_c d
          in
          let evs = if last > 0 then Splice.Query.last last evs else evs in
          if not filtered then
            Printf.printf "\nevents (%d in window):\n" (List.length evs);
          List.iter
            (fun e -> Format.printf "%a@." Splice.Query.pp_event e)
            evs;
          if filtered then
            Printf.printf "%d matching events\n" (List.length evs);
          0
        end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Query a flight-recorder dump post mortem: list or filter the \
          event window (by signal, component or cycle range), reconstruct \
          per-bus transaction latency percentiles, collapse per-component \
          evaluation counts into a flamegraph, or re-expose the embedded \
          metrics snapshot as OpenMetrics text.")
    Term.(
      const run $ dump_arg $ signal $ component $ from_c $ to_c $ last $ flame
      $ openm)

let cover_cmd =
  let map_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"MAP"
          ~doc:
            "Coverage map (JSON), e.g. the file written by $(b,splice fuzz \
             --cover).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Re-emit the map in its canonical JSON form instead of the \
                report.")
  in
  let openm =
    Arg.(
      value & flag
      & info [ "openmetrics" ]
          ~doc:
            "Emit the map as an OpenMetrics/Prometheus text exposition (one \
             counter per bin plus bins_hit/bins_total gauges) instead of \
             the report.")
  in
  let fail_under =
    Arg.(
      value
      & opt (some float) None
      & info [ "fail-under" ] ~docv:"PCT"
          ~doc:
            "Exit non-zero if protocol-phase coverage — the phase and \
             phase_seq bins across the per-bus groups — is below $(docv) \
             percent. This is the CI regression gate.")
  in
  let run path json openm fail_under =
    match Splice.Cover.load path with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | Ok c -> (
        if json then print_endline (Splice.Cover.to_string c)
        else if openm then print_string (Splice.Cover.openmetrics c)
        else print_string (Splice.Cover.report c);
        match fail_under with
        | None -> 0
        | Some floor ->
            let h, t =
              Splice.Cover.totals ~prefix:"bus/"
                ~points:[ "phase"; "phase_seq" ] c
            in
            let have =
              if t = 0 then 0.0
              else 100.0 *. float_of_int h /. float_of_int t
            in
            if have +. 1e-9 < floor then begin
              Printf.eprintf
                "error: protocol-phase coverage %.1f%% (%d/%d bins) is below \
                 the %.1f%% floor\n"
                have h t floor;
              1
            end
            else begin
              Printf.printf
                "protocol-phase coverage %.1f%% (%d/%d bins) meets the \
                 %.1f%% floor\n"
                have h t floor;
              0
            end)
  in
  Cmd.v
    (Cmd.info "cover"
       ~doc:
         "Report a functional-coverage map written by $(b,splice fuzz \
          --cover): per-group hit/hole listing with a percentage summary, \
          or JSON / OpenMetrics expositions; optionally enforce a \
          protocol-phase coverage floor.")
    Term.(const run $ map_arg $ json $ openm $ fail_under)

let serve_cmd =
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Address to listen on.")
  in
  let port =
    Arg.(
      value & opt int 7777
      & info [ "port" ] ~docv:"PORT"
          ~doc:"TCP port (0 picks an ephemeral one, printed at startup).")
  in
  let queue_limit =
    Arg.(
      value & opt int 16
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:
            "Requests allowed to wait for an executor; beyond it the \
             daemon sheds load with an $(i,overloaded) reply instead of \
             buffering.")
  in
  let dump_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-dir" ] ~docv:"DIR"
          ~doc:
            "Persist the flight-recorder dump of every failing request \
             here as req-NNNNNN-dump.json (the reply echoes the path), \
             ready for $(b,splice trace).")
  in
  let run host port queue_limit dump_dir jobs =
    let jobs = if jobs = 0 then Domain.recommended_domain_count () else jobs in
    let config =
      { Splice.Serve.default_config with host; port; jobs; queue_limit; dump_dir }
    in
    match Splice.Serve.create ~config () with
    | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "error: cannot listen on %s:%d: %s\n" host port
          (Unix.error_message e);
        1
    | t ->
        let stop _ = Splice.Serve.stop t in
        (try
           Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
           Sys.set_signal Sys.sigterm (Sys.Signal_handle stop)
         with Invalid_argument _ -> ());
        Printf.printf "splice serve: listening on %s:%d (jobs %d, queue limit %d)\n%!"
          host (Splice.Serve.port t) jobs queue_limit;
        Splice.Serve.serve t;
        Printf.printf "splice serve: drained %d requests, bye\n"
          (Splice.Serve.served t);
        0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the simulation service: line-delimited JSON requests \
          (spec/eval/fuzz/trace) over TCP, plus HTTP GET /metrics, /healthz \
          and /stats on the same port. Requests shard across $(b,--jobs) \
          worker domains behind a bounded queue; results are byte-identical \
          to the equivalent CLI invocation at any $(b,-j).")
    Term.(const run $ host $ port $ queue_limit $ dump_dir $ jobs_arg)

let client_cmd =
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Daemon address.")
  in
  let port =
    Arg.(
      value & opt int 7777 & info [ "port" ] ~docv:"PORT" ~doc:"Daemon port.")
  in
  let requests =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:
            "JSON request lines, sent in order on one connection (read \
             from stdin when none are given).")
  in
  let run host port requests =
    let requests =
      if requests <> [] then requests
      else
        let rec slurp acc =
          match input_line stdin with
          | line -> slurp (if String.trim line = "" then acc else line :: acc)
          | exception End_of_file -> List.rev acc
        in
        slurp []
    in
    match Splice.Serve_client.connect ~host ~port () with
    | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "error: cannot connect to %s:%d: %s\n" host port
          (Unix.error_message e);
        1
    | c ->
        Fun.protect
          ~finally:(fun () -> Splice.Serve_client.close c)
          (fun () ->
            List.fold_left
              (fun rc line ->
                match Splice.Serve_client.request_line c line with
                | Error e ->
                    Printf.eprintf "error: %s\n" e;
                    1
                | Ok reply ->
                    print_endline (Splice.Json.to_string reply);
                    let ok =
                      match Splice.Json.member "ok" reply with
                      | Some (Splice.Json.Bool true) -> true
                      | _ -> false
                    in
                    if ok then rc else 1)
              0 requests)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send requests to a running $(b,splice serve) daemon and print one \
          reply line per request. Exits non-zero when any reply has \
          ok=false.")
    Term.(const run $ host $ port $ requests)

let () =
  let info =
    Cmd.info "splice" ~version:Splice.version
      ~doc:"A standardized peripheral logic and interface creation engine."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ check_cmd; gen_cmd; plan_cmd; buses_cmd; markers_cmd; lint_cmd;
            eval_cmd; fuzz_cmd; trace_cmd; cover_cmd; serve_cmd; client_cmd ]))
