open Splice_sim
open Splice_bits
open Splice_obs

type st = {
  (* outstanding-request state: at most one request is outstanding
     (§4.2.1), so one slot each, -1 when empty *)
  mutable write_fid : int;
  mutable write_raw : int; (* DATA_IN as [Signal.get_raw] *)
  mutable write_wide : Bits.t; (* DATA_IN of a 64-bit interface *)
  mutable read_fid : int;
  (* counts not yet published. The check stages each cycle's sample and
     counts it only once the cycle is known to have completed (the check
     runs on a later tick, or the run returned past it), so a check
     registered later that fails the same cycle leaves it uncounted *)
  mutable staged_tick : int; (* -1 when nothing is staged *)
  mutable staged_rst : bool;
  mutable staged_io_en : bool;
  mutable staged_div : bool;
  mutable staged_done : bool;
  mutable staged_fid : int;
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

(* Count the staged sample if its cycle completed before tick [completed]:
   the SIS word counts and the arbiter's grant bookkeeping (a grant is an
   IO_DONE-high cycle for the selected function; the wait runs from the
   request strobe to the first grant). A sample of a cycle that did not
   complete is dropped: that cycle runs again under the same tick. *)
let retire st ~completed =
  let tick = st.staged_tick in
  if tick >= 0 && tick < completed then
    if st.staged_rst then st.wait_id <- -1
    else begin
      let io_en = st.staged_io_en and fid = st.staged_fid in
      if st.staged_done then begin
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
        if st.staged_div then st.writes <- st.writes + 1
        else st.reads <- st.reads + 1
    end;
  st.staged_tick <- -1

let attach kernel (sis : Sis_if.t) ~func_ids =
  let obs = Kernel.obs kernel in
  let counting = Obs.active obs in
  let ids = List.sort_uniq compare func_ids in
  let st =
    {
      write_fid = -1;
      write_raw = 0;
      write_wide = Bits.zero 1;
      read_fid = -1;
      staged_tick = -1;
      staged_rst = false;
      staged_io_en = false;
      staged_div = false;
      staged_done = false;
      staged_fid = 0;
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
  Kernel.at_reset kernel (fun () ->
      st.write_fid <- -1;
      st.read_fid <- -1;
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
        retire st ~completed:(Kernel.cycles kernel);
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
  let wide = Signal.width sis.data_in > 63 in
  let fail cycle fmt =
    Format.kasprintf
      (fun message ->
        Kernel.check_fail ~cycle ~check:"sis-protocol" message)
      fmt
  in
  Kernel.add_check kernel "sis-protocol" (fun cycle ->
      let rst = Signal.get_bool sis.rst in
      let io_en = Signal.get_bool sis.io_enable in
      let div = Signal.get_bool sis.data_in_valid in
      let dov = Signal.get_bool sis.data_out_valid in
      let done_ = Signal.get_bool sis.io_done in
      let fid = Signal.get_int sis.func_id in
      if rst then begin
        if io_en then fail cycle "IO_ENABLE asserted during reset";
        st.write_fid <- -1;
        st.read_fid <- -1
      end
      else begin
        (* outstanding-write stability *)
        if st.write_fid >= 0 then begin
          if io_en then
            fail cycle "new IO_ENABLE while a write word is outstanding";
          if not div then
            fail cycle "DATA_IN_VALID dropped before IO_DONE on a write";
          if
            not
              (if wide then Signal.holds sis.data_in st.write_wide
               else Signal.get_raw sis.data_in = st.write_raw)
          then fail cycle "DATA_IN changed before IO_DONE on a write (§4.2.1)";
          if fid <> st.write_fid then
            fail cycle "FUNC_ID changed before IO_DONE on a write (§4.2.1)"
        end;
        (* outstanding-read stability *)
        if st.read_fid >= 0 then begin
          if io_en then
            fail cycle "new IO_ENABLE while a read is outstanding";
          if fid <> st.read_fid then
            fail cycle "FUNC_ID changed while a read is outstanding (§4.2.1)"
        end;
        if dov && not done_ then
          fail cycle "DATA_OUT_VALID asserted without IO_DONE (Fig 4.3)";
        (* new request bookkeeping *)
        if io_en && div && fid = 0 then
          fail cycle "write presented to FUNC_ID 0 (status register is read-only)";
        if io_en && not done_ then
          if div then begin
            st.write_fid <- fid;
            st.write_raw <- Signal.get_raw sis.data_in;
            if wide then st.write_wide <- Signal.get sis.data_in
          end
          else st.read_fid <- fid;
        if done_ then begin
          st.write_fid <- -1;
          (* a read completes only when data comes back *)
          if dov then st.read_fid <- -1
        end
      end;
      if counting then begin
        retire st ~completed:cycle;
        st.staged_tick <- cycle;
        st.staged_rst <- rst;
        st.staged_io_en <- io_en;
        st.staged_div <- div;
        st.staged_done <- done_;
        st.staged_fid <- fid
      end)

let attach_tracer kernel (sis : Sis_if.t) =
  let obs = Kernel.obs kernel in
  if Obs.tracing obs then begin
    let tracer = Obs.tracer obs in
    (* at most one SIS request is outstanding (§4.2.1), so a single slot *)
    let pending = ref None in
    Kernel.at_reset kernel (fun () -> pending := None);
    Kernel.on_settle kernel (fun cycle ->
        if Signal.get_bool sis.rst then begin
          match !pending with
          | Some (span, _) ->
              Tracer.end_span span ~ts:cycle;
              pending := None
          | None -> ()
        end
        else begin
          let io_en = Signal.get_bool sis.io_enable in
          let div = Signal.get_bool sis.data_in_valid in
          let dov = Signal.get_bool sis.data_out_valid in
          let done_ = Signal.get_bool sis.io_done in
          let fid = Signal.get_int sis.func_id in
          if done_ then Tracer.instant tracer ~track:"sis" ~ts:cycle "word";
          (match !pending with
          | Some (span, `Write) when done_ ->
              Tracer.end_span span ~ts:cycle;
              pending := None
          | Some (span, `Read) when dov ->
              Tracer.end_span span ~ts:cycle;
              pending := None
          | _ -> ());
          if io_en && !pending = None then begin
            let kind, completed = if div then ("write", done_) else ("read", dov) in
            let name = Printf.sprintf "%s id=%d" kind fid in
            if completed then
              Tracer.complete tracer ~track:"sis" ~ts:cycle ~dur:0 name
            else
              pending :=
                Some
                  ( Tracer.begin_span tracer ~track:"sis" ~ts:cycle name,
                    if div then `Write else `Read )
          end
        end)
  end
