(* The benchmark's command line:

     main.exe --workload fig92|fuzz|serve --seed N --seconds S --trace 0|1
              [--splice PATH]

   prints, as its last line, one JSON object with the keys [correct],
   [attempted], [failed] and [metrics], and exits non-zero when any
   operation or check failed. [run.py] builds this program and the
   [splice] CLI that the serve workload spawns. *)

open Perfbench

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  splice : string;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload fig92|fuzz|serve --seed N --seconds S --trace 0|1 [--splice PATH]";
  exit 2

let parse_args () =
  let rec go acc = function
    | [] -> acc
    | flag :: v :: rest -> (
        let acc =
          match flag with
          | "--workload" -> { acc with workload = v }
          | "--seed" -> (
              match int_of_string_opt v with Some seed -> { acc with seed } | None -> usage ())
          | "--seconds" -> (
              match float_of_string_opt v with
              | Some s when s > 0. -> { acc with seconds = s }
              | _ -> usage ())
          | "--trace" -> (
              match v with "0" -> { acc with trace = false } | "1" -> { acc with trace = true } | _ -> usage ())
          | "--splice" -> { acc with splice = v }
          | _ -> usage ()
        in
        go acc rest)
    | _ -> usage ()
  in
  let a =
    go
      { workload = ""; seed = 0; seconds = 10.; trace = false; splice = "_build/default/bin/splice_cli.exe" }
      (List.tl (Array.to_list Sys.argv))
  in
  if not (List.mem a.workload [ "fig92"; "fuzz"; "serve" ]) then usage ();
  a

let ok_or_die = function Ok v -> v | Error e -> failwith e

(* set-up is repeated and its median reported: one run is too short a
   sample of a millisecond-scale phase *)
let setup_reps = 15

(* ---- untraced: the end-to-end metrics -------------------------------- *)

let untraced a tally =
  let setup_s, run, rss_mb =
    match a.workload with
    | "fig92" ->
        let cells = ok_or_die (Fig92.oracle ()) in
        let setup_s, hosts =
          Loop.median_setup ~reps:setup_reps (fun () -> ok_or_die (Fig92.setup cells))
        in
        let op = Fig92.op cells hosts tally ~seed:a.seed in
        let run = Loop.run ~seconds:a.seconds (fun ~worker:_ -> op) in
        (setup_s, run, Sysinfo.peak_rss_mb ())
    | "fuzz" ->
        let setup_s, () = Loop.median_setup ~reps:setup_reps (fun () -> ok_or_die (Fuzz.setup ())) in
        let run = Loop.run ~seconds:a.seconds (fun ~worker:_ -> Fuzz.op tally ~seed:a.seed) in
        (setup_s, run, Sysinfo.peak_rss_mb ())
    | _ ->
        let inputs = ok_or_die (Serve_load.inputs ~seed:a.seed) in
        let setup_s, server =
          Loop.median_setup
            ~discard:(fun s -> ignore (Serve_load.stop s))
            ~reps:setup_reps
            (fun () -> Serve_load.start ~exe:a.splice)
        in
        let load = Serve_load.drive ~seconds:a.seconds ~traced:false ~seed:a.seed inputs server tally in
        let overloaded = Serve_load.reconcile server tally in
        if overloaded > 0 then Printf.eprintf "serve: %d overloaded replies\n%!" overloaded;
        let rss_mb = Sysinfo.peak_rss_mb ~pid:(Serve_load.pid server) () in
        ignore (Serve_load.stop server);
        (setup_s, load.run, rss_mb)
  in
  prerr_endline (Loop.raw_summary run);
  Loop.end_to_end ~setup_s ~rss_mb tally run

(* ---- traced: the per-layer metrics ----------------------------------- *)

(* [seconds] splits as: the run's own workload untraced (1/4, the
   overhead baseline and its GC counts), the same workload traced (1/2),
   and a short traced section of each other workload (1/8 each), so one
   traced run reports every layer. *)
let traced a tally =
  let t = a.seconds in
  let cells = ok_or_die (Fig92.oracle ()) in
  let hosts = ok_or_die (Fig92.setup cells) in
  ok_or_die (Fuzz.setup ());
  let inputs = ok_or_die (Serve_load.inputs ~seed:a.seed) in
  (* counts first, while the process's history is the same for every run
     with this seed *)
  let exact =
    Splice.Json.Obj
      [
        ("workload", Splice.Json.String a.workload);
        ("seed", Splice.Json.Int a.seed);
        ( "fig92_cycles",
          Splice.Json.List
            (Array.to_list
               (Array.map
                  (fun (c : Fig92.cell) ->
                    Splice.Json.Obj
                      [
                        ("impl", Splice.Json.String (Fig92.impl_key c.impl));
                        ("scenario", Splice.Json.Int c.scenario.id);
                        ("cycles", Splice.Json.Int c.cycles);
                      ])
                  cells)) );
        ("fuzz", Fuzz.exact_counters ~seed:a.seed ~specs:3);
      ]
  in
  print_endline (Splice.Json.to_string (Splice.Json.Obj [ ("exact_counters", exact) ]));
  let serve_section ~seconds ~untraced_seconds =
    let server = Serve_load.start ~exe:a.splice in
    let untraced =
      Option.map
        (fun seconds -> Serve_load.drive ~seconds ~traced:false ~seed:a.seed inputs server tally)
        untraced_seconds
    in
    let load = Serve_load.drive ~seconds ~traced:true ~seed:a.seed inputs server tally in
    let overloaded = Serve_load.reconcile server tally in
    let requests = Serve_load.requests server in
    let gc_metrics =
      match (Serve_load.stop server, untraced) with
      | _, None -> []
      | Some g, Some _ -> Sysinfo.gc_metrics g ~ops:requests
      | None, Some _ ->
          Tally.fail tally "serve: no GC report from the server";
          []
    in
    ( Serve_load.section load ~overloaded gc_metrics,
      Option.map (fun (l : Serve_load.load) -> Loop.throughput l.run) untraced )
  in
  let section name ~seconds =
    match name with
    | "fig92" -> Fig92.traced ~seconds ~seed:a.seed cells hosts tally
    | "fuzz" -> Fuzz.traced ~seconds ~seed:a.seed tally
    | _ -> fst (serve_section ~seconds ~untraced_seconds:None)
  in
  let own, untraced_throughput =
    (* in process: the untraced quarter with its GC counts, then the traced half *)
    let local op =
      let g0 = Sysinfo.self_gc () in
      let run = Loop.run ~seconds:(t /. 4.) (fun ~worker:_ -> op) in
      let gc = Sysinfo.gc_since g0 in
      let s = section a.workload ~seconds:(t /. 2.) in
      ( { s with Section.metrics = s.metrics @ Sysinfo.gc_metrics gc ~ops:run.ops },
        Loop.throughput run )
    in
    match a.workload with
    | "fig92" -> local (Fig92.op cells hosts tally ~seed:a.seed)
    | "fuzz" -> local (Fuzz.op tally ~seed:a.seed)
    | _ ->
        let s, untraced = serve_section ~seconds:(t /. 2.) ~untraced_seconds:(Some (t /. 4.)) in
        (s, Option.get untraced)
  in
  let others =
    List.map
      (fun w -> section w ~seconds:(t /. 8.))
      (List.filter (( <> ) a.workload) [ "fig92"; "fuzz"; "serve" ])
  in
  let metrics =
    List.fold_left
      (fun acc (s : Section.t) ->
        acc @ List.filter (fun (x : Metric.t) -> Metric.find acc x.name = None) s.metrics)
      own.metrics others
  in
  let overhead = ((untraced_throughput /. own.throughput) -. 1.) *. 100. in
  let spans = Array.concat (List.map (fun (s : Section.t) -> s.spans) (own :: others)) in
  (try
     (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     let path = Printf.sprintf ".perfbench/spans-%s-seed%d.json" a.workload a.seed in
     let oc = open_out path in
     output_string oc (Splice.Json.to_string (Spans.summary_json spans));
     close_out oc
   with Sys_error _ | Unix.Unix_error _ -> ());
  metrics @ [ Metric.v "trace_overhead_pct" "%" overhead ]

let () =
  let a = parse_args () in
  (* a server that dies mid-run must fail the run, not kill the client *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let tally = Tally.create () in
  match (if a.trace then traced else untraced) a tally with
  | metrics ->
      List.iter (fun e -> Printf.eprintf "FAILED: %s\n" e) tally.errors;
      let correct = tally.failed = 0 && tally.attempted > 0 in
      print_endline
        (Splice.Json.to_string
           (Splice.Json.Obj
              [
                ("correct", Splice.Json.Bool correct);
                ("attempted", Splice.Json.Int tally.attempted);
                ("failed", Splice.Json.Int tally.failed);
                ("metrics", Metric.to_json metrics);
              ]));
      exit (if correct then 0 else 1)
  | exception e ->
      Serve_load.kill_all ();
      Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
      exit 2
