open Splice

type cell = {
  impl : Interpolator.impl;
  impl_index : int;
  scenario : Interp_scenarios.t;
  result : int64;
  cycles : int;
}

let impl_key = function
  | Interpolator.Simple_plb_handcoded -> "plb_naive"
  | Optimized_fcb_handcoded -> "fcb_tuned"
  | Splice_plb_simple -> "splice_plb"
  | Splice_fcb -> "splice_fcb"
  | Splice_plb_dma -> "splice_plb_dma"

let expected_digest = 0x104db98f350ed66aL
let impls = Array.of_list Interpolator.all_impls

let digest_gate ~expected rows =
  let d = Cycles.digest rows in
  if d = expected then Ok ()
  else Error (Printf.sprintf "Fig 9.2 grid digest 0x%016Lx, expected 0x%016Lx" d expected)

let rows_of cycles_of =
  Array.to_list
    (Array.mapi
       (fun i impl ->
         let per_scenario =
           List.map
             (fun (sc : Interp_scenarios.t) -> (sc.id, cycles_of i sc))
             Interp_scenarios.all
         in
         { Cycles.impl; per_scenario; total = List.fold_left (fun a (_, c) -> a + c) 0 per_scenario })
       impls)

let oracle ?(expected = expected_digest) () =
  let rows = Cycles.measure ~cache:Design_cache.disabled () in
  Result.map
    (fun () ->
      Array.of_list
        (List.concat
           (List.mapi
              (fun impl_index (row : Cycles.row) ->
                List.map
                  (fun (sc : Interp_scenarios.t) ->
                    {
                      impl = row.impl;
                      impl_index;
                      scenario = sc;
                      result = Interpolator.reference (Interp_scenarios.inputs sc);
                      cycles = List.assoc sc.id row.per_scenario;
                    })
                  Interp_scenarios.all)
              rows)))
    (digest_gate ~expected rows)

let cycles_per_op cells =
  float_of_int (Array.fold_left (fun a c -> a + c.cycles) 0 cells)
  /. float_of_int (Array.length cells)

type hosts = Host.t array

let check_call tally c (result, cycles) =
  Tally.check tally
    (result = c.result && cycles = c.cycles)
    (fun () ->
      Printf.sprintf "fig92 %s scenario %d: result %Ld in %d cycles, expected %Ld in %d"
        (impl_key c.impl) c.scenario.id result cycles c.result c.cycles)

let call tally hosts c = check_call tally c (Interpolator.run hosts.(c.impl_index) c.scenario)

let setup ?(expected = expected_digest) cells =
  let hosts = Array.map (fun impl -> Interpolator.make_host impl) impls in
  let tally = Tally.create () in
  let observed = Hashtbl.create 20 in
  Array.iter
    (fun c ->
      let r, cy = Interpolator.run hosts.(c.impl_index) c.scenario in
      Hashtbl.replace observed (c.impl_index, c.scenario.id) cy;
      check_call tally c (r, cy))
    cells;
  match tally.errors with
  | e :: _ -> Error e
  | [] ->
      Result.map
        (fun () -> hosts)
        (digest_gate ~expected
           (rows_of (fun i (sc : Interp_scenarios.t) -> Hashtbl.find observed (i, sc.id))))

let op cells hosts tally ~seed =
  let rng = Splitmix.make seed in
  let n = Array.length cells in
  fun _ -> call tally hosts cells.(Splitmix.int rng n)

(* One traced driver call: the span covers only [Interpolator.run]; the
   minor-heap words are read inside it, the kernel counters outside. *)
let traced_call spans tally name host c =
  let k = Host.kernel host in
  let s0 = Kernel.stats k in
  let id = Spans.enter spans name in
  let w0 = Gc.minor_words () in
  let out = Interpolator.run host c.scenario in
  let w1 = Gc.minor_words () in
  let s1 = Kernel.stats k in
  Spans.leave spans id
    ~cycles:(s1.cycles - s0.cycles)
    ~words:(int_of_float (w1 -. w0))
    ~evals:(s1.comb_evals - s0.comb_evals);
  check_call tally c out

let traced ~seconds ~seed cells hosts tally =
  let rec_ = Spans.create () in
  let variants =
    [|
      ("sim.call.sweep", Array.map (fun i -> Interpolator.make_host ~sched:`Sweep i) impls);
      ("sim.call.compiled", Array.map (fun i -> Interpolator.make_host ~sched:`Compiled i) impls);
      ("obs.call_off", Array.map (fun i -> Interpolator.make_host ~obs:Obs.none i) impls);
    |]
  in
  (* first calls seal (and, under `Compiled, compile) the kernels: set-up,
     not steady state *)
  Array.iter (fun (_, hs) -> Array.iter (fun c -> call tally hs c) cells) variants;
  let rng = Splitmix.make seed in
  let draw () = cells.(Splitmix.int rng (Array.length cells)) in
  let main =
    Loop.run ~seconds:(0.6 *. seconds) (fun ~worker:_ _ ->
        let c = draw () in
        traced_call rec_ tally ("driver.call." ^ impl_key c.impl) hosts.(c.impl_index) c)
  in
  let variant_run =
    Loop.run ~seconds:(0.4 *. seconds) (fun ~worker:_ i ->
        let name, hs = variants.(i mod Array.length variants) in
        let c = draw () in
        traced_call rec_ tally name hs.(c.impl_index) c)
  in
  let spans = Spans.spans rec_ in
  let sched_metrics sched (ns, words, evals) =
    [
      Metric.v ("sim.ns_per_cycle." ^ sched) "ns" ns;
      Metric.v ("sim.words_per_cycle." ^ sched) "words" words;
      Metric.v ("sim.comb_evals_per_cycle." ^ sched) "count" evals;
    ]
  in
  (* the set-up hosts run the default scheduler, `Event *)
  let event =
    Spans.per_cycle
      (List.concat_map
         (fun i -> Spans.named spans ("driver.call." ^ impl_key i))
         Interpolator.all_impls)
  in
  let metrics =
    List.map
      (fun impl ->
        Metric.v ("driver.call_us." ^ impl_key impl) "us"
          (Spans.median_us spans ("driver.call." ^ impl_key impl)))
      Interpolator.all_impls
    @ sched_metrics "event" event
    @ sched_metrics "sweep" (Spans.per_cycle (Spans.named spans "sim.call.sweep"))
    @ sched_metrics "compiled" (Spans.per_cycle (Spans.named spans "sim.call.compiled"))
    @ [
        Metric.v "sim.cycles_per_op" "cycles" (cycles_per_op cells);
        Metric.v "obs.call_us_off" "us" (Spans.median_us spans "obs.call_off");
      ]
  in
  Section.make
    ~slowdown:(Stats.median [ Loop.slowdown main; Loop.slowdown variant_run ])
    ~throughput:(Loop.throughput main) ~spans metrics
