open Splice_syntax
open Splice_sis
open Splice_driver

let validate src =
  Validate.of_string_exn ~lookup_bus:Splice_buses.Registry.lookup_caps src

(* grid cells fan out over an optional domain pool; every cell builds its
   own host, so results are identical with and without one *)
let pool_map pool f l =
  match pool with
  | None -> List.map f l
  | Some p -> Array.to_list (Splice_par.Pool.map_ordered p f (Array.of_list l))

let sink_behavior name =
  ignore name;
  Stub_model.behavior ~cycles:1 (fun _ -> [])

(* one blocking call moving [n] elements named "xs" plus count "n" *)
let run_call host ~n ~elems =
  let args = [ ("n", [ Int64.of_int n ]); ("xs", elems) ] in
  let _, cycles = Host.call host ~func:"sink" ~args in
  cycles

let elems_of n = List.init n (fun i -> Int64.of_int (i land 0x7f))

(* ------------------------------------------------------------------ *)

module Packing = struct
  type point = {
    chars : int;
    words_unpacked : int;
    words_packed : int;
    cycles_unpacked : int;
    cycles_packed : int;
  }

  let spec_src ~packed =
    Printf.sprintf
      {|%%device_name packdemo
%%bus_type plb
%%bus_width 32
%%base_address 0x80000000
void sink(char n, char*:n%s xs);
|}
      (if packed then "+" else "")

  let words spec n (f : Spec.func) =
    let plan = Plan.make spec f ~values:(fun _ -> n) in
    Plan.total_input_words plan

  let run ?(sizes = [ 4; 8; 16; 32; 64 ]) () =
    let spec_u = validate (spec_src ~packed:false) in
    let spec_p = validate (spec_src ~packed:true) in
    let host_u = Host.create spec_u ~behaviors:sink_behavior in
    let host_p = Host.create spec_p ~behaviors:sink_behavior in
    let f_u = Option.get (Spec.find_func spec_u "sink") in
    let f_p = Option.get (Spec.find_func spec_p "sink") in
    List.map
      (fun n ->
        {
          chars = n;
          words_unpacked = words spec_u n f_u;
          words_packed = words spec_p n f_p;
          cycles_unpacked = run_call host_u ~n ~elems:(elems_of n);
          cycles_packed = run_call host_p ~n ~elems:(elems_of n);
        })
      sizes

  let table points =
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      "Packing ablation (E4, §3.1.3): n chars over a 32-bit PLB\n";
    Buffer.add_string buf
      (Printf.sprintf "%6s %12s %12s %14s %14s %9s\n" "chars" "words(plain)"
         "words(+)" "cycles(plain)" "cycles(+)" "saving");
    List.iter
      (fun p ->
        Buffer.add_string buf
          (Printf.sprintf "%6d %12d %12d %14d %14d %8.0f%%\n" p.chars
             p.words_unpacked p.words_packed p.cycles_unpacked p.cycles_packed
             (100.0
             *. (1.0
                -. float_of_int p.cycles_packed /. float_of_int p.cycles_unpacked)
             )))
      points;
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)

module Dma_crossover = struct
  type point = { words : int; pio_cycles : int; dma_cycles : int }

  let spec_src ~dma =
    Printf.sprintf
      {|%%device_name dmademo
%%bus_type plb
%%bus_width 32
%%base_address 0x80000000
%%dma_support %b
void sink(int n, int*:n%s xs);
|}
      dma
      (if dma then "^" else "")

  let run ?(sizes = [ 1; 2; 3; 4; 5; 6; 8; 12; 16; 24; 32 ]) () =
    let spec_pio = validate (spec_src ~dma:false) in
    let spec_dma = validate (spec_src ~dma:true) in
    let host_pio = Host.create spec_pio ~behaviors:sink_behavior in
    let host_dma = Host.create spec_dma ~behaviors:sink_behavior in
    List.map
      (fun n ->
        {
          words = n;
          pio_cycles = run_call host_pio ~n ~elems:(elems_of n);
          dma_cycles = run_call host_dma ~n ~elems:(elems_of n);
        })
      sizes

  let crossover points =
    List.find_map
      (fun p -> if p.dma_cycles < p.pio_cycles then Some p.words else None)
      (List.sort (fun a b -> compare a.words b.words) points)

  let table points =
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      "DMA crossover (E5, §9.2.1): n-word PLB transfer, PIO vs DMA\n";
    Buffer.add_string buf (Printf.sprintf "%6s %12s %12s %8s\n" "words" "PIO" "DMA" "winner");
    List.iter
      (fun p ->
        Buffer.add_string buf
          (Printf.sprintf "%6d %12d %12d %8s\n" p.words p.pio_cycles p.dma_cycles
             (if p.dma_cycles < p.pio_cycles then "DMA" else "PIO")))
      points;
    (match crossover points with
    | Some w ->
        Buffer.add_string buf
          (Printf.sprintf
             "DMA first wins at %d words (paper: no benefit at <= 4 words)\n" w)
    | None -> Buffer.add_string buf "DMA never wins in this range\n");
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)

module Arbitration = struct
  type point = { functions : int; cycles : int }

  let spec_src k =
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      "%device_name arbdemo\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\n";
    Buffer.add_string buf "void sink(int n, int*:n xs);\n";
    for i = 2 to k do
      Buffer.add_string buf (Printf.sprintf "int idle_%d(int x);\n" i)
    done;
    Buffer.contents buf

  let behaviors name =
    if name = "sink" then sink_behavior name
    else Stub_model.behavior (fun inputs -> [ List.hd (List.assoc "x" inputs) ])

  let run ?pool ?(max_functions = 8) () =
    pool_map pool
      (fun k ->
        let spec = validate (spec_src k) in
        let host = Host.create spec ~behaviors in
        { functions = k; cycles = run_call host ~n:8 ~elems:(elems_of 8) })
      (List.init max_functions (fun i -> i + 1))

  let table points =
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      "Arbitration scaling (E8, §5.2): 8-word call with k functions sharing \
       the arbiter\n";
    Buffer.add_string buf (Printf.sprintf "%10s %8s\n" "functions" "cycles");
    List.iter
      (fun p -> Buffer.add_string buf (Printf.sprintf "%10d %8d\n" p.functions p.cycles))
      points;
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)

module Scheduler = struct
  type point = {
    label : string;
    cycles_sweep : int;
    cycles_event : int;
    cycles_compiled : int;
    evals_sweep : int;
    evals_event : int;
    evals_compiled : int;
  }

  let saving p =
    100.0 *. (1.0 -. float_of_int p.evals_event /. float_of_int (max 1 p.evals_sweep))

  let saving_compiled p =
    100.0
    *. (1.0 -. float_of_int p.evals_compiled /. float_of_int (max 1 p.evals_sweep))

  let agree p =
    p.cycles_sweep = p.cycles_event && p.cycles_event = p.cycles_compiled

  let point_of ~label measure =
    let cycles_sweep, evals_sweep = measure `Sweep in
    let cycles_event, evals_event = measure `Event in
    let cycles_compiled, evals_compiled = measure `Compiled in
    {
      label;
      cycles_sweep;
      cycles_event;
      cycles_compiled;
      evals_sweep;
      evals_event;
      evals_compiled;
    }

  let kernel_totals host cycles =
    let s = Splice_sim.Kernel.stats (Host.kernel host) in
    (cycles, s.Splice_sim.Kernel.comb_evals)

  (* the Fig 9.2 workload: all four scenarios through one implementation.
     The design cache makes the ablation itself cheap: the scheduler is not
     part of the key, so one elaboration serves all three measurements of a
     point (and replays Cycles.measure's, when the cells share a domain) *)
  let interp_point ?(cache = Splice_cache.Design_cache.default_config) impl =
    point_of
      ~label:(Splice_devices.Interpolator.impl_name impl)
      (fun sched ->
        let host, _hit =
          Splice_cache.Design_cache.with_cache cache
            ~key:(Cycles.interp_key impl) ~sched
            ~build:(fun () ->
              Splice_devices.Interpolator.make_host ~sched impl)
        in
        let cycles =
          List.fold_left
            (fun acc s -> acc + snd (Splice_devices.Interpolator.run host s))
            0 Splice_devices.Interp_scenarios.all
        in
        kernel_totals host cycles)

  let arb_key k =
    {
      Splice_cache.Design_cache.k_tag = "eval/arb";
      k_src = Arbitration.spec_src k;
      k_bus = "plb";
      k_ratio = (1, 1);
      k_depth = 0;
      k_monitors = true;
      k_env = 0;
    }

  (* the E8 workload: the 8-word call with k functions behind the arbiter,
     where the sweep kernel's cost grows with k but the call does not *)
  let arbitration_point ?(cache = Splice_cache.Design_cache.default_config) k =
    point_of
      ~label:(Printf.sprintf "E8 arbitration, %d function(s)" k)
      (fun sched ->
        let host, _hit =
          Splice_cache.Design_cache.with_cache cache ~key:(arb_key k) ~sched
            ~build:(fun () ->
              let spec = validate (Arbitration.spec_src k) in
              Host.create ~sched spec ~behaviors:Arbitration.behaviors)
        in
        kernel_totals host (run_call host ~n:8 ~elems:(elems_of 8)))

  let run ?pool ?cache ?(max_functions = 8) () =
    let cells =
      List.map (fun i -> `Impl i) Splice_devices.Interpolator.all_impls
      @ List.init max_functions (fun i -> `Arb (i + 1))
    in
    pool_map pool
      (function
        | `Impl i -> interp_point ?cache i
        | `Arb k -> arbitration_point ?cache k)
      cells

  let table points =
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      "Scheduler ablation (E14): sweep-until-quiescent vs event-driven \
       delta scheduling vs compiled (levelized) scheduling\n";
    Buffer.add_string buf
      "(identical cycle counts required; comb evaluations are the work \
       saved)\n";
    Buffer.add_string buf
      (Printf.sprintf "%-28s %9s %9s %9s %6s %11s %11s %11s %8s %8s\n"
         "workload" "cyc(swp)" "cyc(evt)" "cyc(cmp)" "match" "evals(swp)"
         "evals(evt)" "evals(cmp)" "sav(evt)" "sav(cmp)");
    List.iter
      (fun p ->
        Buffer.add_string buf
          (Printf.sprintf
             "%-28s %9d %9d %9d %6s %11d %11d %11d %7.0f%% %7.0f%%\n" p.label
             p.cycles_sweep p.cycles_event p.cycles_compiled
             (if agree p then "yes" else "NO!")
             p.evals_sweep p.evals_event p.evals_compiled (saving p)
             (saving_compiled p)))
      points;
    (if List.for_all agree points then
       Buffer.add_string buf
         "every workload cycles identically under all three schedulers\n"
     else
       Buffer.add_string buf
         "CYCLE MISMATCH: a sensitivity list is missing a signal\n");
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)

module Interrupts = struct
  type point = {
    calc_cycles : int;
    poll_cycles : int;
    poll_reads : int;
    irq_cycles : int;
    irq_reads : int;
  }

  let spec_src ~irq =
    Printf.sprintf
      {|%%device_name irqdemo
%%bus_type apb
%%bus_width 32
%%base_address 0x80000000
%%interrupt_support %b
int slowcalc(int x);
|}
      irq

  let behaviors calc _name =
    Stub_model.behavior ~cycles:calc (fun inputs ->
        [ List.hd (List.assoc "x" inputs) ])

  let one ~irq calc =
    let spec = validate (spec_src ~irq) in
    let host = Host.create spec ~behaviors:(behaviors calc) in
    let r, cycles = Host.call host ~func:"slowcalc" ~args:[ ("x", [ 9L ]) ] in
    assert (r = [ 9L ]);
    (cycles, Cpu.polls (Host.cpu host))

  let run ?(calcs = [ 4; 16; 64; 256 ]) () =
    List.map
      (fun calc ->
        let poll_cycles, poll_reads = one ~irq:false calc in
        let irq_cycles, irq_reads = one ~irq:true calc in
        { calc_cycles = calc; poll_cycles; poll_reads; irq_cycles; irq_reads })
      calcs

  let table points =
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      "Interrupt ablation (E11, §10.2): APB call, polling vs completion IRQ
";
    Buffer.add_string buf
      "(completion is gated by the calculation either way; interrupts free
";
    Buffer.add_string buf
      " the shared bus and the CPU from the poll loop, §6.1.1)
";
    Buffer.add_string buf
      (Printf.sprintf "%6s %10s %12s %10s %12s %14s
" "calc" "poll cyc"
         "status reads" "irq cyc" "status reads" "reads saved");
    List.iter
      (fun p ->
        Buffer.add_string buf
          (Printf.sprintf "%6d %10d %12d %10d %12d %13.0f%%
" p.calc_cycles
             p.poll_cycles p.poll_reads p.irq_cycles p.irq_reads
             (100.0
             *. (1.0 -. float_of_int p.irq_reads /. float_of_int (max 1 p.poll_reads))
             )))
      points;
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)

module Consolidation = struct
  type point = {
    functions : int;
    consolidated_slices : int;
    separate_slices : int;
  }

  let one_device k =
    let decls =
      String.concat "\n"
        (List.init k (fun i -> Printf.sprintf "int f%d(int n, int*:n xs);" i))
    in
    validate
      ("%device_name consolidated\n%bus_type plb\n%bus_width 32\n%base_address \
        0x80000000\n" ^ decls)

  let single_device i =
    validate
      (Printf.sprintf
         "%%device_name dev%d\n%%bus_type plb\n%%bus_width 32\n%%base_address \
          0x%08x\nint f%d(int n, int*:n xs);"
         i
         (0x80000000 + (i * 0x1000))
         i)

  let run ?(max_functions = 8) () =
    List.map
      (fun k ->
        let consolidated =
          (Splice_resources.Model.estimate (one_device k))
            .Splice_resources.Model.slices
        in
        let separate =
          List.fold_left
            (fun acc i ->
              acc
              + (Splice_resources.Model.estimate (single_device i))
                  .Splice_resources.Model.slices)
            0
            (List.init k (fun i -> i))
        in
        { functions = k; consolidated_slices = consolidated; separate_slices = separate })
      (List.init max_functions (fun i -> i + 1))

  let table points =
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      "Consolidation ablation (E12, §5.2): k functions behind one arbiter vs\n";
    Buffer.add_string buf
      "k single-function peripherals, each with its own PLB adapter\n";
    Buffer.add_string buf
      (Printf.sprintf "%10s %14s %12s %9s\n" "functions" "consolidated"
         "separate" "saving");
    List.iter
      (fun p ->
        Buffer.add_string buf
          (Printf.sprintf "%10d %14d %12d %8.0f%%\n" p.functions
             p.consolidated_slices p.separate_slices
             (100.0
             *. (1.0
                -. float_of_int p.consolidated_slices
                   /. float_of_int p.separate_slices))))
      points;
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)

module Burst = struct
  type point = { words : int; burst_cycles : int; single_cycles : int }

  let spec_src ~burst =
    Printf.sprintf
      {|%%device_name burstdemo
%%bus_type fcb
%%bus_width 32
%%burst_support %b
void sink(int n, int*:n xs);
|}
      burst

  let run ?(sizes = [ 2; 4; 8; 16; 32 ]) () =
    let spec_b = validate (spec_src ~burst:true) in
    let spec_s = validate (spec_src ~burst:false) in
    let host_b = Host.create spec_b ~behaviors:sink_behavior in
    let host_s = Host.create spec_s ~behaviors:sink_behavior in
    List.map
      (fun n ->
        {
          words = n;
          burst_cycles = run_call host_b ~n ~elems:(elems_of n);
          single_cycles = run_call host_s ~n ~elems:(elems_of n);
        })
      sizes

  let table points =
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      "Burst ablation (E9, §3.2.2): n-word FCB array transfer\n";
    Buffer.add_string buf
      (Printf.sprintf "%6s %12s %12s %9s\n" "words" "burst" "singles" "saving");
    List.iter
      (fun p ->
        Buffer.add_string buf
          (Printf.sprintf "%6d %12d %12d %8.0f%%\n" p.words p.burst_cycles
             p.single_cycles
             (100.0
             *. (1.0 -. float_of_int p.burst_cycles /. float_of_int p.single_cycles)
             )))
      points;
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)

module Scaling = struct
  type point = {
    jobs : int;
    wall_s : float;
    speedup : float;
    calls : int;
    digest : int64;
    deterministic : bool;
  }

  let default_jobs = [ 1; 2; 4; 8 ]

  let fuzz_config ~seed ~count ~buses =
    { Splice_check.Diff.default_config with seed; count; buses }

  let run ?(jobs = default_jobs) ?(seed = 42) ?(count = 8)
      ?(buses = [ "plb"; "apb" ]) () =
    let one j =
      let config = fuzz_config ~seed ~count ~buses in
      let t0 = Unix.gettimeofday () in
      let report =
        match Splice_par.Pool.of_jobs j with
        | None -> Splice_check.Diff.run config
        | Some pool ->
            Fun.protect
              ~finally:(fun () -> Splice_par.Pool.shutdown pool)
              (fun () -> Splice_check.Diff.run ~pool config)
      in
      (j, Unix.gettimeofday () -. t0, report)
    in
    let raw = List.map one jobs in
    let base_wall, base_digest =
      match raw with
      | (_, w, r) :: _ -> (w, r.Splice_check.Diff.r_digest)
      | [] -> (1.0, 0L)
    in
    List.map
      (fun (j, w, (r : Splice_check.Diff.report)) ->
        {
          jobs = j;
          wall_s = w;
          speedup = base_wall /. Float.max w 1e-9;
          calls = r.Splice_check.Diff.r_calls;
          digest = r.Splice_check.Diff.r_digest;
          deterministic = Int64.equal r.Splice_check.Diff.r_digest base_digest;
        })
      raw

  let deterministic points = List.for_all (fun p -> p.deterministic) points

  let table points =
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      "Parallel scaling (E15): the fixed-seed differential fuzz sweep on a \
       domain pool\n";
    Buffer.add_string buf
      "(identical digests required at every -j; wall-clock and speedup are \
       machine-dependent\n and only meaningful on a multicore host — CI \
       containers often expose one core)\n";
    Buffer.add_string buf
      (Printf.sprintf "%4s %10s %9s %8s %18s %14s\n" "-j" "wall(s)" "speedup"
         "calls" "digest" "deterministic");
    List.iter
      (fun p ->
        Buffer.add_string buf
          (Printf.sprintf "%4d %10.3f %8.2fx %8d 0x%016Lx %14s\n" p.jobs
             p.wall_s p.speedup p.calls p.digest
             (if p.deterministic then "yes" else "NO!")))
      points;
    (if deterministic points then
       Buffer.add_string buf
         "every worker count produced a bit-identical sweep digest\n"
     else
       Buffer.add_string buf
         "DIGEST MISMATCH: parallel execution changed the results — a task \
          is sharing state\n");
    Buffer.contents buf
end


module Coverage = struct
  type point = {
    iterations : int;
    guided_hit : int;
    random_hit : int;
    total : int;
  }

  let run ?(seed = 42) ?(count = 20) ?(buses = []) () =
    let mode guide =
      Splice_check.Diff.run
        { Splice_check.Diff.default_config with
          seed; count; buses; cover = true; guide }
    in
    let guided = mode true in
    let random = mode false in
    (* both modes batch iterations identically (Diff's coverage batch is
       fixed), so the two trajectories sample the same iteration
       boundaries *)
    List.map2
      (fun (it, gh, tot) (_, rh, _) ->
        { iterations = it; guided_hit = gh; random_hit = rh; total = tot })
      guided.Splice_check.Diff.r_trajectory
      random.Splice_check.Diff.r_trajectory

  let final points =
    match List.rev points with p :: _ -> Some p | [] -> None

  let guided_wins points =
    match final points with
    | Some p -> p.guided_hit > p.random_hit
    | None -> false

  let table points =
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      "Coverage-guided fuzzing (E17): hole-directed seed scheduling vs \
       uniform random\n";
    Buffer.add_string buf
      "(same seed, same iteration budget, same bin universe; bins hit \
       after each batch)\n";
    Buffer.add_string buf
      (Printf.sprintf "%6s %8s %8s %9s %9s\n" "iters" "guided" "random"
         "guided%" "random%");
    List.iter
      (fun p ->
        let pct h = 100.0 *. float_of_int h /. float_of_int (max p.total 1) in
        Buffer.add_string buf
          (Printf.sprintf "%6d %8d %8d %8.1f%% %8.1f%%\n" p.iterations
             p.guided_hit p.random_hit (pct p.guided_hit) (pct p.random_hit)))
      points;
    (match final points with
    | Some p ->
        Buffer.add_string buf
          (Printf.sprintf
             "at the full budget guided covers %d of %d bins, random %d \
              (%+d bins)\n"
             p.guided_hit p.total p.random_hit (p.guided_hit - p.random_hit))
    | None -> ());
    Buffer.contents buf
end

module Cache_replay = struct
  type point = {
    cache_on : bool;
    wall_s : float;
    calls : int;
    digest : int64;
    hits : int;
    misses : int;
  }

  let hit_rate p =
    if p.hits + p.misses = 0 then 0.0
    else 100.0 *. float_of_int p.hits /. float_of_int (p.hits + p.misses)

  (* paired minima, modes interleaved: load spikes hit both sides equally
     and the min filters them. The hit/miss counters come from the first
     (cold-cache) repetition — later repetitions replay designs the
     previous sweep left in the persistent per-domain caches, which is the
     steady-state benefit but would overstate the cold hit rate. *)
  let run ?pool ?(reps = 2) ?(seed = 42) ?(count = 10)
      ?(buses = [ "plb"; "apb" ]) () =
    let cfg cache =
      { Splice_check.Diff.default_config with seed; count; buses; cache }
    in
    let best = [| infinity; infinity |] in
    let cold = [| None; None |] in
    for _ = 1 to max 1 reps do
      List.iter
        (fun i ->
          let t0 = Unix.gettimeofday () in
          let r = Splice_check.Diff.run ?pool (cfg (i = 1)) in
          let w = Unix.gettimeofday () -. t0 in
          if w < best.(i) then best.(i) <- w;
          if cold.(i) = None then cold.(i) <- Some r)
        [ 0; 1 ]
    done;
    List.map
      (fun i ->
        let r = Option.get cold.(i) in
        {
          cache_on = i = 1;
          wall_s = best.(i);
          calls = r.Splice_check.Diff.r_calls;
          digest = r.Splice_check.Diff.r_digest;
          hits = r.Splice_check.Diff.r_cache_hits;
          misses = r.Splice_check.Diff.r_cache_misses;
        })
      [ 0; 1 ]

  let speedup points =
    match
      ( List.find_opt (fun p -> not p.cache_on) points,
        List.find_opt (fun p -> p.cache_on) points )
    with
    | Some off, Some on_ -> off.wall_s /. Float.max on_.wall_s 1e-9
    | _ -> 1.0

  let deterministic points =
    match points with
    | p :: rest -> List.for_all (fun q -> Int64.equal q.digest p.digest) rest
    | [] -> true

  let table points =
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      "Design-cache replay (E19): the fixed-seed differential fuzz sweep, \
       cache off vs on\n";
    Buffer.add_string buf
      "(identical digests required — replay must be invisible; wall-clock \
       is the paired\n minimum and machine-dependent)\n";
    Buffer.add_string buf
      (Printf.sprintf "%6s %10s %8s %7s %7s %7s %18s\n" "cache" "wall(s)"
         "calls" "hits" "misses" "hit%" "digest");
    List.iter
      (fun p ->
        Buffer.add_string buf
          (Printf.sprintf "%6s %10.3f %8d %7d %7d %6.1f%% 0x%016Lx\n"
             (if p.cache_on then "on" else "off")
             p.wall_s p.calls p.hits p.misses (hit_rate p) p.digest))
      points;
    Buffer.add_string buf
      (Printf.sprintf "replay speedup %.2fx; %s\n" (speedup points)
         (if deterministic points then
            "digests identical with and without the cache"
          else "DIGEST MISMATCH: the cache changed the results"));
    Buffer.contents buf
end

module Cdc_sweep = struct
  type point = {
    ratio : int * int;
    depth : int;
    cycles : int;
    aclk_edges : int;
    pclk_edges : int;
    agree : bool;
  }

  let spec_src =
    {|%device_name cdcdemo
%bus_type axi
%bus_width 32
%base_address 0x80000000
void sink(int n, int*:8 xs);|}

  let default_ratios = [ (1, 1); (2, 1); (3, 1); (3, 2); (5, 2) ]
  let default_depths = [ 2; 4; 8 ]

  (* ratio and depth are key fields, so each grid cell elaborates once and
     the other two schedulers replay it; the ambient CDC config only
     matters inside the build closure (it is consumed at elaboration) *)
  let cell ?(cache = Splice_cache.Design_cache.default_config) (ratio, depth) =
    let key =
      {
        Splice_cache.Design_cache.k_tag = "eval/cdc";
        k_src = spec_src;
        k_bus = "axi";
        k_ratio = ratio;
        k_depth = depth;
        k_monitors = true;
        k_env = 0;
      }
    in
    let run sched =
      Splice_buses.Axi.set_cdc (Some { Splice_buses.Axi.ratio; depth });
      Fun.protect
        ~finally:(fun () -> Splice_buses.Axi.set_cdc None)
        (fun () ->
          let host, _hit =
            Splice_cache.Design_cache.with_cache cache ~key ~sched
              ~build:(fun () ->
                Host.create ~sched (validate spec_src)
                  ~behaviors:sink_behavior)
          in
          let cycles = run_call host ~n:8 ~elems:(elems_of 8) in
          let k = Host.kernel host in
          let edges d =
            match Splice_sim.Kernel.find_domain k d with
            | Some d -> Splice_sim.Kernel.domain_cycles d
            | None -> 0
          in
          (cycles, edges "axi.aclk", edges "axi.pclk"))
    in
    let c_e, a, p = run `Event in
    let c_s, _, _ = run `Sweep in
    let c_c, _, _ = run `Compiled in
    {
      ratio;
      depth;
      cycles = c_e;
      aclk_edges = a;
      pclk_edges = p;
      agree = c_e = c_s && c_e = c_c;
    }

  let run ?pool ?cache ?(ratios = default_ratios) ?(depths = default_depths)
      () =
    pool_map pool (cell ?cache)
      (List.concat_map (fun r -> List.map (fun d -> (r, d)) depths) ratios)

  let all_agree = List.for_all (fun p -> p.agree)

  let table points =
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      "CDC ratio sweep (E18): one 8-word AXI4-Lite write crossing the \
       Gray-FIFO bridge\n";
    Buffer.add_string buf
      "(base-grid cycles per call; edge counts show the domains' relative \
       rates)\n";
    Buffer.add_string buf
      (Printf.sprintf "%7s %6s %8s %7s %7s %7s\n" "ratio" "depth" "cycles"
         "aclk" "pclk" "agree");
    List.iter
      (fun p ->
        Buffer.add_string buf
          (Printf.sprintf "%4d:%-2d %6d %8d %7d %7d %7s\n" (fst p.ratio)
             (snd p.ratio) p.depth p.cycles p.aclk_edges p.pclk_edges
             (if p.agree then "yes" else "NO!")))
      points;
    (if all_agree points then
       Buffer.add_string buf
         "every scheduler agrees on every (ratio, depth) cell\n"
     else
       Buffer.add_string buf
         "SCHEDULER DISAGREEMENT inside the CDC grid — the multi-domain \
          interleaving is leaking into comb scheduling\n");
    Buffer.contents buf
end
