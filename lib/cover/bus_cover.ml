open Splice_sim
open Splice_sis
open Splice_syntax
open Splice_buses

let group_name bus = "bus/" ^ bus

(* Phase encoding shared by the [phase] aspect bins and the [phase_seq]
   transition bins. The classification mirrors Bus_monitor's SIS-side
   model: a presentation cycle is IO_ENABLE with DATA_IN_VALID selecting
   write vs read; IO_DONE without DATA_OUT_VALID acknowledges a write;
   DATA_OUT_VALID acknowledges a read; an outstanding transfer with no
   strobe and no acknowledge is a wait state. *)
let ph_idle = 0
let ph_reset = 1
let ph_write = 2
let ph_read = 3
let ph_wait_w = 4
let ph_wait_r = 5
let ph_ack_w = 6
let ph_ack_r = 7

let phase_bins ~pseudo_async =
  [ ("reset", ph_reset); ("idle", ph_idle); ("write", ph_write);
    ("read", ph_read) ]
  @ (if pseudo_async then [ ("wait_w", ph_wait_w) ] else [])
  @ [ ("wait_r", ph_wait_r); ("ack_w", ph_ack_w); ("ack_r", ph_ack_r) ]

(* The canonical legal-next-phase pairs. Strictly synchronous buses may
   not stall writes (Bus_monitor's no_write_stall axiom), so their
   write-wait transitions are not coverable and are dropped rather than
   left as permanent holes. *)
let seq_pairs ~pseudo_async =
  let all =
    [ ("idle->write", ph_idle, ph_write); ("idle->read", ph_idle, ph_read);
      ("write->write", ph_write, ph_write);
      ("write->wait_w", ph_write, ph_wait_w);
      ("write->ack_w", ph_write, ph_ack_w);
      ("write->idle", ph_write, ph_idle);
      ("wait_w->wait_w", ph_wait_w, ph_wait_w);
      ("wait_w->ack_w", ph_wait_w, ph_ack_w);
      ("read->read", ph_read, ph_read);
      ("read->wait_r", ph_read, ph_wait_r);
      ("read->ack_r", ph_read, ph_ack_r); ("read->idle", ph_read, ph_idle);
      ("wait_r->wait_r", ph_wait_r, ph_wait_r);
      ("wait_r->ack_r", ph_wait_r, ph_ack_r);
      ("ack_w->write", ph_ack_w, ph_write);
      ("ack_w->read", ph_ack_w, ph_read); ("ack_w->idle", ph_ack_w, ph_idle);
      ("ack_r->read", ph_ack_r, ph_read);
      ("ack_r->write", ph_ack_r, ph_write);
      ("ack_r->idle", ph_ack_r, ph_idle) ]
  in
  if pseudo_async then all
  else
    List.filter (fun (_, f, t) -> f <> ph_wait_w && t <> ph_wait_w) all

let grant_bins =
  [ ("status", 0); ("first", 1); ("repeat", 2); ("switch", 3) ]

let wait_ranges =
  [ ("0", 0, 0); ("1", 1, 1); ("2-3", 2, 3); ("4-7", 4, 7);
    ("8+", 8, max_int) ]

(* Burst-length bins follow the bus's real transfer ceiling: native burst
   words or the DMA window, whichever is larger, in log-spaced ranges with
   one open overflow bin. APB (1 word, no DMA) gets three bins; PLB
   (4-word bursts, 256-byte DMA) gets eight. *)
let burst_ranges (caps : Bus_caps.t option) =
  let cap =
    match caps with
    | Some c -> max c.max_burst_words (c.dma_max_bytes / 4)
    | None -> 8
  in
  let cap = max cap 2 in
  let base =
    [ ("1", 1, 1); ("2", 2, 2); ("3-4", 3, 4); ("5-8", 5, 8);
      ("9-16", 9, 16); ("17-32", 17, 32); ("33-64", 33, 64) ]
  in
  let kept = List.filter (fun (_, lo, _) -> lo <= cap) base in
  let top =
    match List.rev kept with (_, _, hi) :: _ -> hi + 1 | [] -> 2
  in
  kept @ [ (Printf.sprintf "%d+" top, top, max_int) ]

let dir_write = 0
let dir_read = 1
let dir_dma_write = 2
let dir_dma_read = 3

let dir_bins (caps : Bus_caps.t option) =
  let dma = match caps with Some c -> c.supports_dma | None -> false in
  [ ("w", dir_write); ("r", dir_read) ]
  @ if dma then [ ("dma_w", dir_dma_write); ("dma_r", dir_dma_read) ] else []

let pseudo_async_of = function
  | Some (c : Bus_caps.t) -> c.pseudo_async
  | None -> true

(* ---- AXI channel handshake / CDC configuration points -------------
   The AXI4-Lite bus is the one registered bus with native channels on a
   second clock domain; [attach] samples them from the bridge instance
   the bus model publishes per kernel. *)

let axi_handshake_bins =
  [ ("aw", 0); ("w", 1); ("ar", 2); ("r", 3); ("b", 4);
    (* a VALID seen without READY: the slave is withholding acceptance,
       on AW/AR that is the command FIFO's full backpressure surfacing *)
    ("aw_stall", 5); ("ar_stall", 6);
    (* command FIFOs observed full from the write side *)
    ("bp_w", 7); ("bp_r", 8) ]

(* the fuzzer's clock-ratio universe, encoded [100*fast + slow] *)
let ratio_code (a, b) = (100 * a) + b

let axi_ratio_bins =
  List.map
    (fun ((a, b) as r) -> (Printf.sprintf "%d:%d" a b, ratio_code r))
    Axi.ratios_all

let axi_depth_bins =
  [ ("2", 2, 2); ("4", 4, 4); ("8", 8, 8); ("16", 16, 16); ("32-64", 32, 64) ]

let declare_axi g =
  ignore (Cover.point g "handshake" (Cover.Values axi_handshake_bins));
  let ratio = Cover.point g "cdc_ratio" (Cover.Values axi_ratio_bins) in
  let depth = Cover.point g "cdc_depth" (Cover.Ranges axi_depth_bins) in
  ignore (Cover.cross g "ratio_x_depth" ratio depth)

let declare c ~bus =
  let caps = Registry.lookup_caps bus in
  let g = Cover.group c (group_name bus) in
  let pa = pseudo_async_of caps in
  ignore (Cover.point g "phase" (Cover.Values (phase_bins ~pseudo_async:pa)));
  ignore
    (Cover.point g "phase_seq"
       (Cover.Transitions (seq_pairs ~pseudo_async:pa)));
  ignore (Cover.point g "grant" (Cover.Values grant_bins));
  ignore (Cover.point g "wait_r" (Cover.Ranges wait_ranges));
  if pa then ignore (Cover.point g "wait_w" (Cover.Ranges wait_ranges));
  let burst = Cover.point g "burst" (Cover.Ranges (burst_ranges caps)) in
  let dir = Cover.point g "dir" (Cover.Values (dir_bins caps)) in
  ignore (Cover.cross g "dir_x_burst" dir burst);
  if bus = "axi" then declare_axi g

(* ---- cycle-level sampling ---------------------------------------- *)

type st = {
  mutable in_write : bool;
  mutable in_read : bool;
  mutable prev : int;  (* previous cycle's primary phase *)
  mutable seen_prev : bool;
  mutable last_fid : int;
  mutable seen_grant : bool;
  mutable wcnt : int;  (* wait cycles of the outstanding write word *)
  mutable rcnt : int;
}

let find g n = Option.get (Cover.find_point g n)

let sample_sis g ~bus kernel (sis : Sis_if.t) =
  let pa = pseudo_async_of (Registry.lookup_caps bus) in
  let find = find g in
  let phase = find "phase" in
  let seq = find "phase_seq" in
  let grant = find "grant" in
  let wait_r = find "wait_r" in
  let wait_w = if pa then Some (find "wait_w") else None in
  let st =
    { in_write = false; in_read = false; prev = ph_idle; seen_prev = false;
      last_fid = 0; seen_grant = false; wcnt = 0; rcnt = 0 }
  in
  Kernel.at_reset kernel (fun () ->
      st.in_write <- false;
      st.in_read <- false;
      st.prev <- ph_idle;
      st.seen_prev <- false;
      st.last_fid <- 0;
      st.seen_grant <- false;
      st.wcnt <- 0;
      st.rcnt <- 0);
  (* a bus whose peripheral side lives in a named slow domain (the AXI
     bridge's "<bus>.pclk") only drives the SIS lines on that domain's
     edges; sampling the ticks in between would count each phase once per
     tick instead of once per bus cycle and flood phase_seq with
     self-transitions *)
  let dom =
    match Kernel.find_domain kernel (bus ^ ".pclk") with
    | Some d -> d
    | None -> Kernel.base_domain kernel
  in
  Kernel.on_settle_in kernel dom (fun _cycle ->
      let rst = Signal.get_bool sis.Sis_if.rst in
      let io_en = Signal.get_bool sis.Sis_if.io_enable in
      let div = Signal.get_bool sis.Sis_if.data_in_valid in
      let dov = Signal.get_bool sis.Sis_if.data_out_valid in
      let done_ = Signal.get_bool sis.Sis_if.io_done in
      let fid = Signal.get_int sis.Sis_if.func_id in
      let primary =
        if rst then begin
          Cover.sample phase ph_reset;
          st.in_write <- false;
          st.in_read <- false;
          st.seen_grant <- false;
          ph_reset
        end
        else begin
          (* a presentation is the first strobed cycle of a word — the
             engine holds IO_ENABLE across wait states, so strobes must
             be edge-detected against the outstanding-transfer state or
             every stall cycle would look like a fresh presentation *)
          let new_write = io_en && div && not st.in_write in
          let new_read = io_en && (not div) && not st.in_read in
          let wr_ack = done_ && not dov in
          let rd_ack = dov in
          let waiting_w =
            st.in_write && (not new_write) && (not wr_ack) && not rd_ack
          in
          let waiting_r =
            st.in_read && (not new_read) && (not new_write) && not rd_ack
          in
          (* multi-hot aspects: a strictly synchronous write cycle is both
             a presentation and its own acknowledge *)
          if new_write then Cover.sample phase ph_write;
          if new_read then Cover.sample phase ph_read;
          if wr_ack then Cover.sample phase ph_ack_w;
          if rd_ack then Cover.sample phase ph_ack_r;
          if waiting_w then Cover.sample phase ph_wait_w;
          if waiting_r then Cover.sample phase ph_wait_r;
          (* grant patterns: who wins the strobe at each presentation
             (not per held-strobe cycle — a stalled word is one grant) *)
          if new_write || new_read then begin
            if fid = 0 then Cover.sample grant 0
            else begin
              if not st.seen_grant then Cover.sample grant 1
              else if fid = st.last_fid then Cover.sample grant 2
              else Cover.sample grant 3;
              st.seen_grant <- true;
              st.last_fid <- fid
            end
          end;
          (* per-word wait-state counts — cycles the acknowledge was
             withheld, 0 = acknowledged in the presentation cycle —
             sampled at the acknowledge *)
          if new_write then st.wcnt <- (if wr_ack then 0 else 1);
          if new_read then st.rcnt <- (if rd_ack then 0 else 1);
          if st.in_write && (not new_write) && not wr_ack then
            st.wcnt <- st.wcnt + 1;
          if st.in_read && (not new_read) && not rd_ack then
            st.rcnt <- st.rcnt + 1;
          if wr_ack && (st.in_write || new_write) then begin
            (match wait_w with
            | Some p -> Cover.sample p st.wcnt
            | None -> ());
            st.wcnt <- 0
          end;
          if rd_ack && (st.in_read || new_read) then begin
            Cover.sample wait_r st.rcnt;
            st.rcnt <- 0
          end;
          (* outstanding-transfer bookkeeping (same as Bus_monitor's) *)
          if new_write && not done_ then st.in_write <- true;
          if new_read && not dov then st.in_read <- true;
          if wr_ack then st.in_write <- false;
          if dov then st.in_read <- false;
          if new_write then ph_write
          else if new_read then ph_read
          else if wr_ack then ph_ack_w
          else if rd_ack then ph_ack_r
          else if waiting_w then ph_wait_w
          else if waiting_r then ph_wait_r
          else begin
            Cover.sample phase ph_idle;
            ph_idle
          end
        end
      in
      if st.seen_prev then Cover.sample_pair seq ~from_:st.prev ~to_:primary;
      st.prev <- primary;
      st.seen_prev <- true)

(* ---- transaction-level sampling (bus port observer) --------------- *)

(* Status polls (func_id 0) are served by the adapter's internal register
   and never assert IO_ENABLE, so the grant point's "status" bin is only
   reachable here at the transaction level — the cycle-level sampler in
   [sample_sis] covers the first/repeat/switch bins. *)
let observe_txns g (port : Bus_port.t) =
  let dir = find g "dir" and burst = find g "burst" in
  let cross = find g "dir_x_burst" and grant = find g "grant" in
  port.Bus_port.on_transaction (fun req ->
      let d, func_id =
        match req with
        | Bus_port.Write { func_id; _ } -> (dir_write, func_id)
        | Bus_port.Read { func_id; _ } -> (dir_read, func_id)
        | Bus_port.Dma_write { func_id; _ } -> (dir_dma_write, func_id)
        | Bus_port.Dma_read { func_id; _ } -> (dir_dma_read, func_id)
      in
      let words = Bus_port.words_of_req req in
      Cover.sample dir d;
      Cover.sample burst words;
      Cover.sample2 cross d words;
      if func_id = 0 then Cover.sample grant 0)

(* ---- AXI native side (ACLK-edge sampling) ------------------------- *)

let sample_axi g kernel =
  match Axi.instance_for kernel with
  | None -> ()
  | Some i ->
      let handshake = find g "handshake" in
      let ratio = find g "cdc_ratio" and depth = find g "cdc_depth" in
      let cross = find g "ratio_x_depth" in
      (* which cell of the ratio x depth design grid this simulation
         exercised: once per build, and again on every instance-reset
         replay of it *)
      let sample_cdc () =
        let rc = ratio_code i.Axi.i_ratio in
        Cover.sample ratio rc;
        Cover.sample depth i.Axi.i_depth;
        Cover.sample2 cross rc i.Axi.i_depth
      in
      sample_cdc ();
      Kernel.at_reset kernel sample_cdc;
      let nat = i.Axi.nat and wcmd = i.Axi.i_wcmd and rcmd = i.Axi.i_rcmd in
      let on = Signal.get_bool in
      let fire v r = on v && on r in
      Kernel.on_settle_in kernel i.Axi.aclk (fun _ ->
          let open Axi.Native in
          (* codes are the [axi_handshake_bins] values *)
          if fire nat.awvalid nat.awready then Cover.sample handshake 0;
          if fire nat.wvalid nat.wready then Cover.sample handshake 1;
          if fire nat.arvalid nat.arready then Cover.sample handshake 2;
          if fire nat.rvalid nat.rready then Cover.sample handshake 3;
          if fire nat.bvalid nat.bready then Cover.sample handshake 4;
          if on nat.awvalid && not (on nat.awready) then
            Cover.sample handshake 5;
          if on nat.arvalid && not (on nat.arready) then
            Cover.sample handshake 6;
          if on (Async_fifo.full wcmd) then Cover.sample handshake 7;
          if on (Async_fifo.full rcmd) then Cover.sample handshake 8)

let attach c ~bus kernel sis port =
  declare c ~bus;
  let g = Cover.group c (group_name bus) in
  sample_sis g ~bus kernel sis;
  observe_txns g port;
  if bus = "axi" then sample_axi g kernel

let phase_totals c =
  Cover.totals ~prefix:"bus/" ~points:[ "phase"; "phase_seq" ] c
