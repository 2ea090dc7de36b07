open Splice_sim
open Splice_obs

type st = {
  (* counts not yet published. The check counts a cycle only once it is
     known to have completed (the check runs on a later tick, or the run
     returned past it), so a check registered later that fails the same
     cycle leaves it uncounted *)
  mutable staged_tick : int; (* the cycle whose lines [d] holds, or -1 *)
  mutable words : int; (* IO_DONE-high cycles: SIS words and arbiter grants *)
  mutable writes : int;
  mutable reads : int;
  grants_by_id : int array; (* indexed by FUNC_ID *)
  mutable wait_id : int; (* function whose request awaits its grant, or -1 *)
  mutable wait_start : int;
  mutable waits : int array; (* request-to-grant latencies, [n_waits] used *)
  mutable n_waits : int;
}

let observe_wait st w =
  if st.n_waits = Array.length st.waits then begin
    let a = Array.make (2 * st.n_waits) 0 in
    Array.blit st.waits 0 a 0 st.n_waits;
    st.waits <- a
  end;
  st.waits.(st.n_waits) <- w;
  st.n_waits <- st.n_waits + 1

(* Count the cycle whose lines the decoder holds if it completed before
   tick [completed]: the SIS word counts and the arbiter's grant
   bookkeeping (a grant is an IO_DONE-high cycle for the selected
   function; the wait runs from the request strobe to the first grant).
   The lines stay in the decoder until the next check samples over them;
   a cycle that did not complete is dropped: it runs again under the same
   tick. *)
let retire st (d : Sis_phase.t) ~completed =
  let tick = st.staged_tick in
  if tick >= 0 && tick < completed then
    if d.rst then st.wait_id <- -1
    else begin
      let io_en = d.io_enable and fid = d.func_id in
      if d.io_done then begin
        st.words <- st.words + 1;
        if fid < Array.length st.grants_by_id then
          st.grants_by_id.(fid) <- st.grants_by_id.(fid) + 1;
        if st.wait_id = fid then begin
          observe_wait st (tick - st.wait_start);
          st.wait_id <- -1
        end
        else if io_en then observe_wait st 0
      end
      else if io_en && st.wait_id < 0 then begin
        st.wait_id <- fid;
        st.wait_start <- tick
      end;
      if io_en then
        if d.data_in_valid then st.writes <- st.writes + 1
        else st.reads <- st.reads + 1
    end;
  st.staged_tick <- -1

let attach kernel (sis : Sis_if.t) ~func_ids =
  let obs = Kernel.obs kernel in
  let counting = Obs.active obs in
  let ids = List.sort_uniq compare func_ids in
  let st =
    {
      staged_tick = -1;
      words = 0;
      writes = 0;
      reads = 0;
      grants_by_id = Array.make (List.fold_left max 0 ids + 1) 0;
      wait_id = -1;
      wait_start = 0;
      waits = Array.make 16 0;
      n_waits = 0;
    }
  in
  let clear_counts () =
    st.words <- 0;
    st.writes <- 0;
    st.reads <- 0;
    Array.fill st.grants_by_id 0 (Array.length st.grants_by_id) 0;
    st.n_waits <- 0
  in
  let d = Sis_phase.create kernel sis in
  Kernel.at_reset kernel (fun () ->
      st.staged_tick <- -1;
      st.wait_id <- -1;
      clear_counts ());
  if counting then begin
    let m = Obs.metrics obs in
    let c_words = Metrics.counter m "sis/transactions" in
    let c_writes = Metrics.counter m "sis/writes" in
    let c_reads = Metrics.counter m "sis/reads" in
    let c_grants = Metrics.counter m "arbiter/grants" in
    let c_by_id =
      List.map
        (fun id -> (id, Metrics.counter m (Printf.sprintf "arbiter/grants/%d" id)))
        ids
    in
    let h_wait =
      Metrics.histogram ~limits:[| 0; 1; 2; 4; 8; 16; 32; 64; 128 |] m
        "arbiter/wait_cycles"
    in
    Kernel.on_publish kernel (fun () ->
        retire st d ~completed:(Kernel.cycles kernel);
        Metrics.add c_words st.words;
        Metrics.add c_writes st.writes;
        Metrics.add c_reads st.reads;
        Metrics.add c_grants st.words;
        List.iter (fun (id, c) -> Metrics.add c st.grants_by_id.(id)) c_by_id;
        for i = 0 to st.n_waits - 1 do
          Metrics.observe h_wait st.waits.(i)
        done;
        clear_counts ())
  end;
  let fail cycle message =
    Kernel.check_fail ~cycle ~check:"sis-protocol" message
  in
  Kernel.add_check kernel "sis-protocol" (fun cycle ->
      if counting then retire st d ~completed:cycle;
      Sis_phase.sample d;
      let io_en = d.io_enable and fid = d.func_id in
      if d.rst then begin
        if io_en then fail cycle "IO_ENABLE asserted during reset"
      end
      else begin
        (match d.transfer with
        | Writing ->
            if io_en then
              fail cycle "new IO_ENABLE while a write word is outstanding";
            if not d.data_in_valid then
              fail cycle "DATA_IN_VALID dropped before IO_DONE on a write";
            if not (Sis_phase.data_held d) then
              fail cycle "DATA_IN changed before IO_DONE on a write (§4.2.1)";
            if fid <> d.held_fid then
              fail cycle "FUNC_ID changed before IO_DONE on a write (§4.2.1)"
        | Reading ->
            if io_en then fail cycle "new IO_ENABLE while a read is outstanding";
            if fid <> d.held_fid then
              fail cycle "FUNC_ID changed while a read is outstanding (§4.2.1)"
        | Quiet -> ());
        if d.data_out_valid && not d.io_done then
          fail cycle "DATA_OUT_VALID asserted without IO_DONE (Fig 4.3)";
        if d.phase = Write && fid = 0 then
          fail cycle "write presented to FUNC_ID 0 (status register is read-only)"
      end;
      Sis_phase.advance d;
      if counting then st.staged_tick <- cycle)

let attach_tracer kernel (sis : Sis_if.t) =
  let obs = Kernel.obs kernel in
  if Obs.tracing obs then begin
    let tracer = Obs.tracer obs in
    let d = Sis_phase.create kernel sis in
    (* the outstanding transfer's span, dropped unended by an instance
       reset (a design-cache replay starts a new run) *)
    let span = ref None in
    let end_span cycle =
      if d.transfer <> Quiet then
        Option.iter (fun s -> Tracer.end_span s ~ts:cycle) !span;
      span := None
    in
    Kernel.on_settle kernel (fun cycle ->
        Sis_phase.sample d;
        if d.io_done && not d.rst then
          Tracer.instant tracer ~track:"sis" ~ts:cycle "word";
        if d.rst || Sis_phase.ends d then end_span cycle;
        let presented = d.phase = Write || d.phase = Read in
        Sis_phase.advance d;
        if presented then begin
          let name =
            Printf.sprintf "%s id=%d"
              (if d.data_in_valid then "write" else "read")
              d.func_id
          in
          (* a presentation its own cycle acknowledges is not outstanding *)
          if d.transfer = Quiet then
            Tracer.complete tracer ~track:"sis" ~ts:cycle ~dur:0 name
          else span := Some (Tracer.begin_span tracer ~track:"sis" ~ts:cycle name)
        end)
  end
