open Splice_obs

type sched = [ `Event | `Sweep | `Compiled ]

type domain = {
  d_name : string;
  d_period : int; (* ticks between edges, >= 1 *)
  d_phase : int; (* tick offset of the first edge, < period *)
  mutable d_cycles : int; (* edges fired so far *)
}

(* a domain's edge falls on tick [n] iff [n mod period = phase]; the base
   domain (period 1, phase 0) fires on every tick, so single-clock designs
   behave exactly as before *)
let dom_fires d tick = tick mod d.d_period = d.d_phase

(* CLOCK_MONOTONIC in nanoseconds (clock_stubs.c): never steps backwards,
   so phase times and latencies measured with it are never negative *)
external now_ns : unit -> (int64[@unboxed])
  = "splice_now_ns_byte" "splice_now_ns"
[@@noalloc]

type t = {
  max_comb_iters : int;
  mutable sched : sched;
      (* mutable so a cached design can be re-targeted: the cache resets the
         kernel and flips the scheduler, and the next seal rebuilds whatever
         the new scheduler needs (listeners, plus the levelized order under
         [`Compiled]) from the restored build-time state *)
  gen : int;
      (* process-unique kernel generation id (from a global atomic counter,
         never 0): components stamp it into [reg_gen] when they register
         their fan-out listeners, so a component reused by a later kernel
         re-registers there and this kernel's listeners turn into no-ops
         instead of corrupting a dead kernel's dirty count *)
  obs : Obs.t;
  store : Signal.store;
      (* the creating domain's signal store, resolved once: every settle
         and commit uses it, and each run checks it is still the running
         domain's *)
  base : domain;
  mutable domains : domain list; (* reversed; always contains [base] *)
  mutable multi : bool; (* more than one domain registered *)
  mutable components : (Component.t * domain) list; (* reversed *)
  mutable checks : (string * (int -> unit) * domain) list; (* reversed *)
  mutable settle_hooks : ((int -> unit) * domain) list; (* reversed *)
  mutable cycle_count : int;
  mutable comb_iters_total : int;
  mutable comb_evals_total : int;
  mutable checks_run_total : int;
  iter_counts : int array;
      (* settles per productive delta-pass count (index = iterations), not
         yet folded into [comb_hist] *)
  (* the counter values last published to the registry *)
  mutable pub_cycles : int;
  mutable pub_evals : int;
  mutable pub_checks : int;
  mutable publish_hooks : (unit -> unit) list;
  (* forward-order caches, rebuilt lazily whenever a registration list
     changes (sealing); cycle/settle never traverse the reversed lists *)
  mutable sealed : bool;
  mutable comps_fwd : Component.t array;
  mutable comp_doms : domain array; (* parallel to [comps_fwd] *)
  mutable checks_fwd : (string * (int -> unit)) array;
  mutable check_doms : domain array; (* parallel to [checks_fwd] *)
  mutable settle_hooks_fwd : (int -> unit) array;
  mutable settle_doms : domain array; (* parallel to [settle_hooks_fwd] *)
  mutable edge_comps : Component.t array;
      (* state-sensitive components, re-marked dirty at every settle *)
  mutable order : Component.t array;
      (* what a dirty-set delta pass walks: [comps_fwd] under [`Event];
         under [`Compiled] the combinational components in levelized order
         (see [levelize]) *)
  mutable n_dirty : int;
  mutable reset_hooks : (unit -> unit) list; (* reversed *)
      (* design-level reset actions beyond per-component [reset] callbacks:
         coverage samplers, FIFO memories, connect-time side effects a replay
         must reproduce *)
  mutable k_elaborate_ns : int64;
      (* build-phase accounting, distinct from settle time: elaborate is
         stamped by the host ([note_elaborate_ns]), seal/compile are
         accumulated here across (re-)seals *)
  mutable k_seal_ns : int64;
  mutable k_compile_ns : int64;
  (* flight recorder (Obs.recorder obs, cached to skip the option chase on
     the hot path) plus interned subject ids for the kernel itself and the
     registered checks *)
  rec_ : Recorder.t option;
  rec_kernel_id : int;
  mutable check_ids : int array;
  comb_hist : Metrics.histogram;
  cycles_counter : Metrics.counter;
  checks_counter : Metrics.counter;
  evals_counter : Metrics.counter;
}

type stats = {
  cycles : int;
  comb_iters : int;
  comb_evals : int;
  checks_run : int;
  elaborate_ns : int64;
  seal_ns : int64;
  compile_ns : int64;
}

exception Comb_divergence of { cycle : int; iterations : int }
exception Timeout of { cycle : int; elapsed : int; waiting_for : string }
exception Check_failed of { cycle : int; check : string; message : string }

(* cold only on the first evaluation per (component, recorder) pair *)
let record_eval r (c : Component.t) =
  let id =
    if c.Component.rec_stamp = Recorder.stamp r then c.Component.rec_id
    else begin
      let id = Recorder.intern r c.Component.name in
      c.Component.rec_stamp <- Recorder.stamp r;
      c.Component.rec_id <- id;
      id
    end
  in
  Recorder.comp_eval r ~subject:id

let gen_counter = Atomic.make 0

let create ?(max_comb_iters = 64) ?(sched = `Event) ?obs () =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let m = Obs.metrics obs in
  let rec_ = Obs.recorder obs in
  let base = { d_name = "base"; d_period = 1; d_phase = 0; d_cycles = 0 } in
  {
    base;
    domains = [ base ];
    multi = false;
    rec_;
    gen = 1 + Atomic.fetch_and_add gen_counter 1;
    rec_kernel_id =
      (match rec_ with Some r -> Recorder.intern r "kernel" | None -> -1);
    check_ids = [||];
    max_comb_iters;
    sched;
    obs;
    store = Signal.store ();
    components = [];
    checks = [];
    settle_hooks = [];
    cycle_count = 0;
    comb_iters_total = 0;
    comb_evals_total = 0;
    checks_run_total = 0;
    iter_counts = Array.make (max 0 max_comb_iters + 1) 0;
    pub_cycles = 0;
    pub_evals = 0;
    pub_checks = 0;
    publish_hooks = [];
    sealed = false;
    comps_fwd = [||];
    comp_doms = [||];
    checks_fwd = [||];
    check_doms = [||];
    settle_hooks_fwd = [||];
    settle_doms = [||];
    edge_comps = [||];
    order = [||];
    n_dirty = 0;
    reset_hooks = [];
    k_elaborate_ns = 0L;
    k_seal_ns = 0L;
    k_compile_ns = 0L;
    comb_hist =
      Metrics.histogram ~limits:[| 1; 2; 3; 4; 6; 8; 16; 32; 64 |] m
        "sim/comb_iters";
    cycles_counter = Metrics.counter m "sim/cycles";
    checks_counter = Metrics.counter m "sim/checks_run";
    evals_counter = Metrics.counter m "sim/comb_evals";
  }

let base_domain t = t.base
let domain_period d = d.d_period
let domain_cycles d = d.d_cycles

let find_domain t name =
  List.find_opt (fun d -> String.equal d.d_name name) t.domains

let add_domain t ~name ?(phase = 0) ~period () =
  if period < 1 then invalid_arg "Kernel.add_domain: period must be >= 1";
  if phase < 0 || phase >= period then
    invalid_arg "Kernel.add_domain: phase must be in [0, period)";
  if find_domain t name <> None then
    invalid_arg ("Kernel.add_domain: duplicate domain name " ^ name);
  let d = { d_name = name; d_period = period; d_phase = phase; d_cycles = 0 } in
  t.domains <- d :: t.domains;
  t.multi <- true;
  t.sealed <- false;
  d

(* valid while the current tick is in flight (settle, checks, settle hooks,
   seq) — [cycle_count] has not been incremented yet *)
let fires t d = dom_fires d t.cycle_count

let add_in t d c =
  t.components <- (c, d) :: t.components;
  t.sealed <- false

let add t c = add_in t t.base c

let add_check_in t d name f =
  t.checks <- (name, f, d) :: t.checks;
  t.sealed <- false

let add_check t name f = add_check_in t t.base name f

let check_fail ~cycle ~check message = raise (Check_failed { cycle; check; message })

let on_settle_in t d f =
  t.settle_hooks <- (f, d) :: t.settle_hooks;
  t.sealed <- false

let on_settle t f = on_settle_in t t.base f
let on_publish t f = t.publish_hooks <- t.publish_hooks @ [ f ]

let rehome_all t d =
  t.components <- List.map (fun (c, _) -> (c, d)) t.components;
  t.checks <- List.map (fun (name, f, _) -> (name, f, d)) t.checks;
  t.settle_hooks <- List.map (fun (f, _) -> (f, d)) t.settle_hooks;
  t.sealed <- false

let mark_dirty t (c : Component.t) =
  if not c.Component.dirty then begin
    c.Component.dirty <- true;
    t.n_dirty <- t.n_dirty + 1
  end

(* [`Compiled]: levelize the combinational components from the
   writer -> reader edges the fan-out listeners reveal, and return them in
   evaluation order.

   Write discovery is one calibration pass: every comb runs once in
   registration order (exactly the all-dirty first pass the event scheduler
   starts from), and after each evaluation the dirty flags its writes
   raised are drained — a component marked by [u]'s evaluation reads
   something [u] wrote. Each reader is drained once per writer, so the
   edges come out duplicate-free. Only writes that change a value are seen;
   a missed edge costs at most an extra delta pass at run time, never
   correctness, because the settle loop is still a fixpoint iteration.

   Kahn's algorithm then orders the graph, ties (and cycles, e.g.
   combinational feedback through handshakes) broken toward the lowest
   registration index so in-pass propagation order stays a subsequence of
   the event scheduler's. O(n^2) in the component count, run once per
   seal. Every component leaves dirty, so the first settle evaluates each
   of them once more in the new order. *)
let levelize t =
  let cands =
    Array.of_list
      (List.filter (fun (c : Component.t) -> c.Component.has_comb)
         (Array.to_list t.comps_fwd))
  in
  let n = Array.length cands in
  Array.iter (fun (c : Component.t) -> c.Component.dirty <- false) t.comps_fwd;
  t.n_dirty <- 0;
  let succs = Array.make n [] and indeg = Array.make n 0 in
  let drain u =
    for v = 0 to n - 1 do
      let c = Array.unsafe_get cands v in
      if c.Component.dirty then begin
        c.Component.dirty <- false;
        t.n_dirty <- t.n_dirty - 1;
        if v <> u then begin
          succs.(u) <- v :: succs.(u);
          indeg.(v) <- indeg.(v) + 1
        end
      end
    done
  in
  Array.iteri
    (fun u (c : Component.t) ->
      c.Component.comb ();
      drain u)
    cands;
  let emitted = Array.make n false in
  let order = Array.make n 0 in
  for pos = 0 to n - 1 do
    let pick = ref (-1) in
    for u = n - 1 downto 0 do
      if (not emitted.(u)) && indeg.(u) = 0 then pick := u
    done;
    if !pick < 0 then
      (* every remaining node sits on a cycle: force the earliest-registered
         one and let the fixpoint loop absorb the feedback *)
      for u = n - 1 downto 0 do
        if not emitted.(u) then pick := u
      done;
    let u = !pick in
    emitted.(u) <- true;
    order.(pos) <- u;
    List.iter (fun v -> indeg.(v) <- indeg.(v) - 1) succs.(u)
  done;
  Array.iter (mark_dirty t) cands;
  Array.map (Array.get cands) order

let seal t =
  let t0 = now_ns () in
  let comps = Array.of_list (List.rev t.components) in
  t.comps_fwd <- Array.map fst comps;
  t.comp_doms <- Array.map snd comps;
  let checks = Array.of_list (List.rev t.checks) in
  t.checks_fwd <- Array.map (fun (name, f, _) -> (name, f)) checks;
  t.check_doms <- Array.map (fun (_, _, d) -> d) checks;
  (match t.rec_ with
  | Some r ->
      t.check_ids <- Array.map (fun (name, _) -> Recorder.intern r name) t.checks_fwd
  | None -> t.check_ids <- [||]);
  let settles = Array.of_list (List.rev t.settle_hooks) in
  t.settle_hooks_fwd <- Array.map fst settles;
  t.settle_doms <- Array.map snd settles;
  let edge = ref [] in
  Array.iter
    (fun (c : Component.t) ->
      if c.Component.edge then edge := c :: !edge;
      if t.sched <> `Sweep && c.Component.reg_gen <> t.gen then begin
        (* a component migrating from an earlier kernel may carry that
           kernel's dirty bit; clear it before this kernel counts it *)
        if c.Component.reg_gen <> 0 then c.Component.dirty <- false;
        c.Component.reg_gen <- t.gen;
        (* the generation guard inside the listener turns a stale kernel's
           fan-out into no-ops once a later kernel takes over the
           component *)
        List.iter
          (fun s ->
            Signal.on_change s (fun () ->
                if c.Component.reg_gen = t.gen then mark_dirty t c))
          c.Component.reads;
        (* newly registered components evaluate once to establish their
           outputs, exactly like the sweep's first pass would *)
        if c.Component.has_comb then mark_dirty t c
      end)
    t.comps_fwd;
  t.edge_comps <- Array.of_list (List.rev !edge);
  let compile_delta =
    if t.sched = `Compiled then begin
      let c0 = now_ns () in
      t.order <- levelize t;
      let d = Int64.sub (now_ns ()) c0 in
      t.k_compile_ns <- Int64.add t.k_compile_ns d;
      d
    end
    else begin
      t.order <- t.comps_fwd;
      0L
    end
  in
  t.sealed <- true;
  (* seal time excludes the levelization, which is accounted separately *)
  t.k_seal_ns <-
    Int64.add t.k_seal_ns (Int64.sub (Int64.sub (now_ns ()) t0) compile_delta)

(* Sweep: every component, every delta pass *)
let sweep_pass t =
  let comps = t.comps_fwd in
  for i = 0 to Array.length comps - 1 do
    let c = Array.unsafe_get comps i in
    c.Component.comb ();
    match t.rec_ with None -> () | Some r -> record_eval r c
  done;
  Array.length comps

(* Event and Compiled: a delta pass only evaluates dirty components, in
   [order] (registration order under [`Event], so in-pass propagation
   matches the sweep; levelized under [`Compiled]); evaluations mark their
   fan-out dirty for this pass (later components) or the next one (earlier
   components). Returns the evaluations run. *)
let event_pass t =
  let comps = t.order in
  let evals = ref 0 in
  for i = 0 to Array.length comps - 1 do
    let c = Array.unsafe_get comps i in
    if c.Component.dirty then begin
      c.Component.dirty <- false;
      t.n_dirty <- t.n_dirty - 1;
      c.Component.comb ();
      (match t.rec_ with None -> () | Some r -> record_eval r c);
      incr evals
    end
  done;
  !evals

let diverged t executed =
  raise (Comb_divergence { cycle = t.cycle_count; iterations = executed })

(* [iters] counts {e productive} delta passes — passes that changed at least
   one signal — identically for all three schedulers (a quiescent settle
   reports 0). Divergence guards still count {e executed} passes, so a
   design oscillating under [max_comb_iters] unproductive-free passes is
   caught no later than before. Both loops return the productive count and
   add their evaluations to [comb_evals_total]. *)
let settle_sweep t =
  (* legacy scheduler: re-evaluate every component on every delta pass
     until a pass leaves the global change counter untouched *)
  let executed = ref 0 and productive = ref 0 and again = ref true in
  while !again do
    if !executed >= t.max_comb_iters then diverged t !executed;
    let before = Signal.change_count t.store in
    t.comb_evals_total <- t.comb_evals_total + sweep_pass t;
    again := Signal.change_count t.store <> before;
    if !again then begin
      incr executed;
      incr productive
    end
  done;
  !productive

let settle_event t =
  let edge = t.edge_comps in
  for i = 0 to Array.length edge - 1 do
    mark_dirty t (Array.unsafe_get edge i)
  done;
  let executed = ref 0 and productive = ref 0 in
  while t.n_dirty > 0 do
    if !executed >= t.max_comb_iters then diverged t !executed;
    let before = Signal.change_count t.store in
    t.comb_evals_total <- t.comb_evals_total + event_pass t;
    if Signal.change_count t.store <> before then incr productive;
    incr executed
  done;
  !productive

let settle t =
  if not t.sealed then seal t;
  let evals_before = t.comb_evals_total in
  let iters =
    match
      match t.sched with
      | `Sweep -> settle_sweep t
      | `Event | `Compiled -> settle_event t
    with
    | iters -> iters
    | exception e ->
        (* an aborted settle counts no evaluations *)
        t.comb_evals_total <- evals_before;
        raise e
  in
  t.comb_iters_total <- t.comb_iters_total + iters;
  t.iter_counts.(iters) <- t.iter_counts.(iters) + 1;
  match t.rec_ with
  | Some r -> Recorder.sched_pass r ~subject:t.rec_kernel_id ~iters
  | None -> ()

(* the registered checks due on [tick], in registration order; returns how
   many ran *)
let run_checks t tick =
  let checks = t.checks_fwd in
  let ran = ref 0 in
  for i = 0 to Array.length checks - 1 do
    if (not t.multi) || dom_fires (Array.unsafe_get t.check_doms i) tick then begin
      (match t.rec_ with
      | None -> ()
      | Some r -> Recorder.check_eval r ~subject:(Array.unsafe_get t.check_ids i));
      (snd (Array.unsafe_get checks i)) tick;
      incr ran
    end
  done;
  !ran

let rec count_edges tick = function
  | [] -> ()
  | d :: ds ->
      if dom_fires d tick then d.d_cycles <- d.d_cycles + 1;
      count_edges tick ds

let step t =
  (* guarded: [Obs.none] is one value shared by every kernel that opted
     out, including kernels in other pool domains — never write to it *)
  if Obs.active t.obs then Obs.set_now t.obs t.cycle_count;
  (* (re-)point the domain-local signal store at this kernel's recorder —
     [None] detaches, so an opted-out kernel never records into the ring
     of whichever instrumented kernel ran before it in this domain *)
  Signal.attach_recorder t.store t.rec_;
  settle t;
  let tick = t.cycle_count in
  (* [multi] gates every per-item domain test off the single-clock hot
     path. Domain gating is scheduler-independent (only the settle strategy
     differs between schedulers), so multi-clock interleaving is
     deterministic and identical under Event/Sweep/Compiled. *)
  let checks_ran =
    match t.rec_ with
    | None -> run_checks t tick
    | Some r -> (
        (* the last events a failing run records are its own check
           evaluation and the failure itself — the dump ends at the bug.
           One handler outside the loop (the failing check's name rides on
           the exception), so the per-check cost is one recorded event. *)
        try run_checks t tick
        with Check_failed { check; message; _ } as e ->
          Recorder.check_fail r ~subject:(Recorder.intern r check) ~message;
          raise e)
  in
  t.checks_run_total <- t.checks_run_total + checks_ran;
  let settles = t.settle_hooks_fwd in
  for i = 0 to Array.length settles - 1 do
    if (not t.multi) || dom_fires (Array.unsafe_get t.settle_doms i) tick then
      (Array.unsafe_get settles i) tick
  done;
  (* only components whose domain has an edge on this tick clock their
     state; everyone reads settled pre-edge values, so evaluation order
     between coincident domains cannot matter *)
  let comps = t.comps_fwd in
  for i = 0 to Array.length comps - 1 do
    if (not t.multi) || dom_fires (Array.unsafe_get t.comp_doms i) tick then
      (Array.unsafe_get comps i).Component.seq ()
  done;
  Signal.commit_pending t.store;
  count_edges tick t.domains;
  t.cycle_count <- t.cycle_count + 1

(* The per-cycle path counts in plain fields; the registry sees the counts
   once per run, when it returns or raises, so a failure dump taken after a
   [Check_failed] holds exactly what per-cycle recording held. A settle
   records its iteration count only when it completes, checks only when
   they all pass, a cycle only when it ends. *)
let publish t =
  if Obs.active t.obs then begin
    Metrics.add t.cycles_counter (t.cycle_count - t.pub_cycles);
    Metrics.add t.evals_counter (t.comb_evals_total - t.pub_evals);
    Metrics.add t.checks_counter (t.checks_run_total - t.pub_checks);
    for iters = 0 to Array.length t.iter_counts - 1 do
      Metrics.observe_n t.comb_hist iters t.iter_counts.(iters);
      t.iter_counts.(iters) <- 0
    done;
    t.pub_cycles <- t.cycle_count;
    t.pub_evals <- t.comb_evals_total;
    t.pub_checks <- t.checks_run_total
  end;
  List.iter (fun f -> f ()) t.publish_hooks

(* a kernel cycles only in the domain that created it: its cached store is
   that domain's, and another domain's writes would land elsewhere *)
let running t f =
  if Signal.store () != t.store then
    invalid_arg "Kernel: cycled from a domain other than the one that created it";
  match f () with
  | v ->
      publish t;
      v
  | exception e ->
      publish t;
      raise e

let cycle t = running t (fun () -> step t)

let run t n =
  running t (fun () ->
      for _ = 1 to n do
        step t
      done)

let run_until ?(max = 100_000) ?(what = "condition") t p =
  running t @@ fun () ->
  let start = t.cycle_count in
  let rec go () =
    if p () then t.cycle_count - start
    else if t.cycle_count - start >= max then
      raise
        (Timeout
           {
             cycle = t.cycle_count;
             elapsed = t.cycle_count - start;
             waiting_for = what;
           })
    else begin
      step t;
      go ()
    end
  in
  go ()

let cycles t = t.cycle_count
let id t = t.gen
let obs t = t.obs
let sched t = t.sched
let check_names t = List.rev_map (fun (name, _, _) -> name) t.checks

let stats t =
  {
    cycles = t.cycle_count;
    comb_iters = t.comb_iters_total;
    comb_evals = t.comb_evals_total;
    checks_run = t.checks_run_total;
    elaborate_ns = t.k_elaborate_ns;
    seal_ns = t.k_seal_ns;
    compile_ns = t.k_compile_ns;
  }

let note_elaborate_ns t ns = t.k_elaborate_ns <- Int64.add t.k_elaborate_ns ns

let at_reset t f = t.reset_hooks <- f :: t.reset_hooks

(* Instance reset: bring a finished kernel back to the state it had at the
   end of design elaboration, so the next run replays byte-identically to a
   fresh build. The caller (the design cache, via the host) restores signal
   values and observability state around this; [reset] handles everything
   the kernel itself owns. The kernel is left {e unsealed}: the first cycle
   of the replay re-seals — re-interning check ids and, under [`Compiled],
   re-levelizing from the restored values — exactly the sequence a fresh
   host executes, which is what makes replay outputs bit-equal. *)
let reset ?sched t =
  (* reset hooks may drive signals: record none of it *)
  Signal.attach_recorder t.store None;
  (match sched with Some s -> t.sched <- s | None -> ());
  t.cycle_count <- 0;
  List.iter (fun d -> d.d_cycles <- 0) t.domains;
  t.comb_iters_total <- 0;
  t.comb_evals_total <- 0;
  t.checks_run_total <- 0;
  Array.fill t.iter_counts 0 (Array.length t.iter_counts) 0;
  t.pub_cycles <- 0;
  t.pub_evals <- 0;
  t.pub_checks <- 0;
  t.k_elaborate_ns <- 0L;
  t.k_seal_ns <- 0L;
  t.k_compile_ns <- 0L;
  (* unseal; clear dirty bookkeeping, then queue every combinational
     component for the first pass — the state a fresh kernel
     reaches right before its first seal marks them. Components whose
     listeners are already registered with this kernel (reg_gen = gen) are
     skipped by the next seal's registration loop, so the marks below stand
     in for the ones seal would have made. *)
  t.sealed <- false;
  List.iter (fun ((c : Component.t), _) -> c.Component.dirty <- false) t.components;
  t.n_dirty <- 0;
  List.iter
    (fun ((c : Component.t), _) -> if c.Component.has_comb then mark_dirty t c)
    t.components;
  (* component-local state first, then design-level hooks, both in
     registration order (the order the build created that state in) *)
  List.iter (fun ((c : Component.t), _) -> c.Component.reset ()) (List.rev t.components);
  List.iter (fun f -> f ()) (List.rev t.reset_hooks)
