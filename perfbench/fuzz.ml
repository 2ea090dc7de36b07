open Splice

(* a fixed spec seed for set-up, outside any run's op stream *)
let warm_seed = 0x5eed
let config seed = { Diff.default_config with Diff.seed; count = 1 }

let check_report tally seed (r : Diff.report) =
  match r.r_failure with
  | Some f -> Tally.fail tally (Format.asprintf "fuzz seed %d: %a" seed Diff.pp_failure f)
  | None ->
      Tally.check tally
        (r.r_iterations = 1 && r.r_calls > 0)
        (fun () -> Printf.sprintf "fuzz seed %d: %d calls checked" seed r.r_calls)

let setup () =
  let t = Tally.create () in
  check_report t warm_seed (Diff.run { (config warm_seed) with cache = false });
  match t.errors with [] -> Ok () | e :: _ -> Error e

let op tally ~seed i =
  let s = Diff.iteration_seed seed i in
  check_report tally s (Diff.run (config s))

(* ---- one Diff cell, re-done from the benchmark's own code ----------- *)

let buses () = Registry.names ()
let scheds = Diff.default_config.scheds
let max_cycles = Diff.default_config.max_cycles

(* mirrors the cell [Diff.run] executes: same key, same traffic stream,
   same build (fresh signal names, the CDC pins around [Host.create],
   monitors adopted into the host) *)
let key g tr bus =
  {
    Design_cache.k_tag = "fuzz/calc=" ^ string_of_int tr.Specgen.t_calc_cycles;
    k_src = Specgen.render g;
    k_bus = bus;
    k_ratio = g.Specgen.g_ratio;
    k_depth = g.Specgen.g_depth;
    k_monitors = true;
    k_env = 0;
  }

let traffic iseed spec = Specgen.traffic (Specgen.Rng.make (iseed lxor 0x5bd1e995)) spec

let build spans (key : Design_cache.key) ~sched spec tr bus () =
  Signal.reset_names ();
  let host =
    Spans.span spans "driver.create" (fun () ->
        Fun.protect
          ~finally:(fun () -> Axi.set_cdc None)
          (fun () ->
            Axi.set_cdc (Some { Axi.ratio = key.k_ratio; depth = key.k_depth });
            Host.create ~sched spec
              ~behaviors:(Specgen.behavior ~calc_cycles:tr.Specgen.t_calc_cycles)))
  in
  Spans.span spans "check.monitor_attach" (fun () ->
      Host.adopt host (fun () -> Bus_monitor.attach (Host.kernel host) ~bus (Host.sis host)));
  host

(* the traffic's calls, each checked against the golden model; the
   per-call cycle counts, or the first failure *)
let calls host spec tr =
  try
    Ok
      (List.map
         (fun (c : Specgen.call) ->
           let f = Option.get (Spec.find_func spec c.c_func) in
           let result, cycles =
             Host.call ~instance:c.c_instance ~max_cycles host ~func:c.c_func ~args:c.c_args
           in
           if cycles <= 0 || result <> Specgen.expected_output f ~args:c.c_args then
             failwith (c.c_func ^ ": golden-model mismatch");
           cycles)
         tr.Specgen.t_calls)
  with e ->
    Host.retire host;
    Error (Printexc.to_string e)

let spec_on g bus = Validate.of_string ~lookup_bus:Registry.lookup_caps (Specgen.render (Specgen.with_bus g bus))

let sum = List.fold_left ( + ) 0

(* ---- exact counters -------------------------------------------------- *)

let exact_counters ~seed ~specs =
  let seeds = List.init specs (Diff.iteration_seed seed) in
  let grid = Hashtbl.create 32 in
  let unused_spans = Spans.create () in
  List.iter
    (fun iseed ->
      let g = Specgen.spec ~buses:(buses ()) (Specgen.Rng.make iseed) in
      List.iter
        (fun bus ->
          match spec_on g bus with
          | Error _ -> ()
          | Ok spec ->
              let tr = traffic iseed spec in
              List.iter
                (fun sched ->
                  let host = build unused_spans (key g tr bus) ~sched spec tr bus () in
                  let k = Host.kernel host in
                  let s0 = Kernel.stats k in
                  let w0 = Gc.minor_words () in
                  let out = calls host spec tr in
                  let w1 = Gc.minor_words () in
                  let s1 = Kernel.stats k in
                  let cy, ev, w, fails =
                    Option.value (Hashtbl.find_opt grid (sched, bus)) ~default:(0, 0, 0, 0)
                  in
                  Hashtbl.replace grid (sched, bus)
                    ( cy + (s1.cycles - s0.cycles),
                      ev + (s1.comb_evals - s0.comb_evals),
                      w + int_of_float (w1 -. w0),
                      fails + Result.fold ~ok:(fun _ -> 0) ~error:(fun _ -> 1) out ))
                scheds)
        (buses ()))
    seeds;
  let cells =
    List.concat_map
      (fun sched ->
        List.filter_map
          (fun bus ->
            Option.map
              (fun (cy, ev, w, fails) ->
                Json.Obj
                  [
                    ("sched", Json.String (Diff.sched_name sched));
                    ("bus", Json.String bus);
                    ("cycles", Json.Int cy);
                    ("comb_evals", Json.Int ev);
                    ("minor_words", Json.Int w);
                    ("failed_calls", Json.Int fails);
                  ])
              (Hashtbl.find_opt grid (sched, bus)))
          (buses ()))
      scheds
  in
  let runs =
    List.map
      (fun s ->
        let r = Diff.run (config s) in
        Json.Obj
          [
            ("seed", Json.Int s);
            ("calls", Json.Int r.r_calls);
            ("digest", Json.String (Printf.sprintf "0x%016Lx" r.r_digest));
          ])
      seeds
  in
  Json.Obj [ ("sched_bus", Json.List cells); ("fuzz_runs", Json.List runs) ]

(* ---- traced section -------------------------------------------------- *)

let traced_op spans tally ~seed i =
  let iseed = Diff.iteration_seed seed i in
  let op_id = Spans.enter spans "fuzz.op" in
  let g = Spans.span spans "check.specgen" (fun () -> Specgen.spec ~buses:(buses ()) (Specgen.Rng.make iseed)) in
  let failed = ref None in
  List.iter
    (fun bus ->
      try
      match Spans.span spans "syntax.validate" (fun () -> spec_on g bus) with
      | Error _ -> failed := Some (bus ^ ": generated spec does not validate")
      | Ok spec ->
          let tr = traffic iseed spec in
          let key = key g tr bus in
          let runs =
            List.map
              (fun sched ->
                let aid = Spans.enter spans "cache.acquire" in
                let host, hit =
                  try
                    Design_cache.with_cache Design_cache.default_config ~key ~sched
                      ~build:(build spans key ~sched spec tr bus)
                  with e ->
                    Spans.leave spans aid;
                    raise e
                in
                Spans.leave spans aid ~name:(if hit then "cache.acquire.hit" else "cache.acquire.miss");
                let cid = Spans.enter spans ("buses.call." ^ bus) in
                let w0 = Gc.minor_words () in
                let out = calls host spec tr in
                let w1 = Gc.minor_words () in
                Spans.leave spans cid
                  ~cycles:(Result.fold ~ok:sum ~error:(fun _ -> 0) out)
                  ~words:(int_of_float (w1 -. w0));
                out)
              scheds
          in
          (match runs with
          | Ok first :: rest ->
              List.iter
                (function
                  | Ok c when c = first -> ()
                  | Ok _ -> failed := Some (bus ^ ": schedulers disagree on cycles")
                  | Error e -> failed := Some (bus ^ ": " ^ e))
                rest
          | Error e :: _ -> failed := Some (bus ^ ": " ^ e)
          | [] -> ())
      with e -> failed := Some (bus ^ ": " ^ Printexc.to_string e))
    (buses ());
  Spans.leave spans op_id;
  match !failed with
  | None -> Tally.ok tally
  | Some e -> Tally.fail tally (Printf.sprintf "fuzz seed %d (traced): %s" iseed e)

let traced ~seconds ~seed tally =
  let rec_ = Spans.create () in
  let run = Loop.run ~seconds (fun ~worker:_ -> traced_op rec_ tally ~seed) in
  let spans = Spans.spans rec_ in
  let self = Spans.self_times spans in
  let median_us ?self name = Spans.median_us ?self spans name in
  let count name = List.length (Spans.named spans name) in
  let hits = count "cache.acquire.hit" and misses = count "cache.acquire.miss" in
  let per_bus =
    List.concat_map
      (fun bus ->
        let ns, words, _ = Spans.per_cycle (Spans.named spans ("buses.call." ^ bus)) in
        [
          Metric.v ("buses.ns_per_cycle." ^ bus) "ns" ns;
          Metric.v ("buses.words_per_cycle." ^ bus) "words" words;
        ])
      (buses ())
  in
  let metrics =
    [
      Metric.v "check.specgen_us" "us" (median_us "check.specgen");
      Metric.v "syntax.validate_us" "us" (median_us "syntax.validate");
      Metric.v "driver.create_us" "us" (median_us "driver.create");
      Metric.v "check.monitor_attach_us" "us" (median_us "check.monitor_attach");
      (* self time: the cache's own work, without the build it calls on a miss *)
      Metric.v "cache.acquire_us.hit" "us" (median_us ~self "cache.acquire.hit");
      Metric.v "cache.acquire_us.miss" "us" (median_us ~self "cache.acquire.miss");
      Metric.v "cache.hit_ratio" "ratio" (float_of_int hits /. float_of_int (max 1 (hits + misses)));
    ]
    @ per_bus
  in
  Section.make ~slowdown:(Loop.slowdown run) ~throughput:(Loop.throughput run) ~spans metrics
