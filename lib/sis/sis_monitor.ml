open Splice_sim
open Splice_bits

type st = {
  mutable write_pending : (Bits.t * int) option;  (* data, func_id *)
  mutable read_pending : int option;  (* func_id *)
}

let attach kernel (sis : Sis_if.t) =
  let st = { write_pending = None; read_pending = None } in
  Kernel.at_reset kernel (fun () ->
      st.write_pending <- None;
      st.read_pending <- None);
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
        st.write_pending <- None;
        st.read_pending <- None
      end
      else begin
        (* outstanding-write stability *)
        (match st.write_pending with
        | Some (data, id) ->
            if io_en then
              fail cycle "new IO_ENABLE while a write word is outstanding";
            if not div then
              fail cycle "DATA_IN_VALID dropped before IO_DONE on a write";
            if not (Signal.holds sis.data_in data) then
              fail cycle "DATA_IN changed before IO_DONE on a write (§4.2.1)";
            if fid <> id then
              fail cycle "FUNC_ID changed before IO_DONE on a write (§4.2.1)"
        | None -> ());
        (* outstanding-read stability *)
        (match st.read_pending with
        | Some id ->
            if io_en then
              fail cycle "new IO_ENABLE while a read is outstanding";
            if fid <> id then
              fail cycle "FUNC_ID changed while a read is outstanding (§4.2.1)"
        | None -> ());
        if dov && not done_ then
          fail cycle "DATA_OUT_VALID asserted without IO_DONE (Fig 4.3)";
        (* new request bookkeeping *)
        if io_en && div && fid = 0 then
          fail cycle "write presented to FUNC_ID 0 (status register is read-only)";
        let completes = done_ in
        (match (io_en, div) with
        | true, true ->
            if not completes then
              st.write_pending <- Some (Signal.get sis.data_in, fid)
        | true, false -> if not completes then st.read_pending <- Some fid
        | false, _ -> ());
        if completes then begin
          st.write_pending <- None;
          (* a read completes only when data comes back *)
          if dov then st.read_pending <- None
        end
      end)

(* One completed word transfer per IO_DONE-high cycle: back-to-back 1-cycle
   writes keep IO_DONE high continuously, one word per cycle (Fig 4.3). *)
let transactions (sis : Sis_if.t) =
  let count = ref 0 in
  fun () ->
    if Signal.get_bool sis.io_done then incr count;
    !count

let attach_tracer kernel (sis : Sis_if.t) =
  let open Splice_obs in
  let obs = Kernel.obs kernel in
  if Obs.active obs then begin
    let m = Obs.metrics obs in
    let tracer = Obs.tracer obs in
    let words = Metrics.counter m "sis/transactions" in
    let writes = Metrics.counter m "sis/writes" in
    let reads = Metrics.counter m "sis/reads" in
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
          if done_ then begin
            Metrics.incr words;
            Tracer.instant tracer ~track:"sis" ~ts:cycle "word"
          end;
          if io_en then
            if div then Metrics.incr writes else Metrics.incr reads;
          if Tracer.enabled tracer then begin
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
          end
        end)
  end
