open Splice_sim
open Splice_sis
open Splice_syntax
open Splice_buses

let group_name bus = "bus/" ^ bus

(* The [phase] aspect bins and the [phase_seq] transition bins, one per
   {!Sis_phase.phase}: the cycle classes every SIS observer reads off the
   same decoder. *)
let code : Sis_phase.phase -> int = function
  | Idle -> 0 | Reset -> 1 | Write -> 2 | Read -> 3
  | Wait_w -> 4 | Wait_r -> 5 | Ack_w -> 6 | Ack_r -> 7

let bin_name : Sis_phase.phase -> string = function
  | Idle -> "idle" | Reset -> "reset" | Write -> "write" | Read -> "read"
  | Wait_w -> "wait_w" | Wait_r -> "wait_r" | Ack_w -> "ack_w" | Ack_r -> "ack_r"

(* Strictly synchronous buses may not stall writes (Bus_monitor's
   no_write_stall axiom), so their write-wait bins are not coverable and
   are dropped rather than left as permanent holes. *)
let phase_bins ~pseudo_async =
  List.filter_map
    (fun p ->
      if pseudo_async || p <> Sis_phase.Wait_w then Some (bin_name p, code p)
      else None)
    [ Reset; Idle; Write; Read; Wait_w; Wait_r; Ack_w; Ack_r ]

(* the canonical legal-next-phase pairs *)
let seq_pairs ~pseudo_async =
  List.filter_map
    (fun (f, t) ->
      if pseudo_async || (f <> Sis_phase.Wait_w && t <> Sis_phase.Wait_w) then
        Some (bin_name f ^ "->" ^ bin_name t, code f, code t)
      else None)
    [ (Idle, Write); (Idle, Read); (Write, Write); (Write, Wait_w);
      (Write, Ack_w); (Write, Idle); (Wait_w, Wait_w); (Wait_w, Ack_w);
      (Read, Read); (Read, Wait_r); (Read, Ack_r); (Read, Idle);
      (Wait_r, Wait_r); (Wait_r, Ack_r); (Ack_w, Write); (Ack_w, Read);
      (Ack_w, Idle); (Ack_r, Read); (Ack_r, Write); (Ack_r, Idle) ]

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

let find g n = Option.get (Cover.find_point g n)

let sample_sis g ~bus kernel (sis : Sis_if.t) =
  let pa = pseudo_async_of (Registry.lookup_caps bus) in
  let find = find g in
  let phase = find "phase" in
  let seq = find "phase_seq" in
  let grant = find "grant" in
  let wait_r = find "wait_r" in
  let wait_w = if pa then Some (find "wait_w") else None in
  let d = Sis_phase.create kernel sis in
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
      Sis_phase.sample d;
      (* the cycle's phase, with acknowledges counted as aspects of their
         own: a strictly synchronous write cycle is both a presentation
         and its acknowledge *)
      (match d.phase with
      | Ack_w | Ack_r -> ()
      | p -> Cover.sample phase (code p));
      if not d.rst then begin
        let wr_ack = Sis_phase.write_ack d and rd_ack = d.data_out_valid in
        if wr_ack then Cover.sample phase (code Ack_w);
        if rd_ack then Cover.sample phase (code Ack_r);
        (* grant patterns: who wins the strobe at each presentation,
           against the previous presentation since reset *)
        if d.io_enable then begin
          let fid = d.func_id in
          Cover.sample grant
            (if fid = 0 then 0
             else if d.held_fid < 0 then 1
             else if fid = d.held_fid then 2
             else 3)
        end;
        (* per-word wait-state counts — cycles the acknowledge was
           withheld, 0 = acknowledged in the presentation cycle —
           sampled at the acknowledge *)
        (match wait_w with
        | Some p when wr_ack && (d.phase = Write || d.transfer = Writing) ->
            Cover.sample p (Sis_phase.waited d)
        | _ -> ());
        if rd_ack && (d.phase = Read || d.transfer = Reading) then
          Cover.sample wait_r (Sis_phase.waited d)
      end;
      (* no pair leaves [Reset], the first cycle's [prev] *)
      Cover.sample_pair seq ~from_:(code d.prev) ~to_:(code d.phase);
      Sis_phase.advance d)

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
      let ch = Axi.channels kernel i in
      let full = Async_fifo.full in
      Kernel.on_settle_in kernel i.Axi.aclk (fun _ ->
          Axi.sample_channels ch;
          (* codes are the [axi_handshake_bins] values *)
          if ch.aw.fire then Cover.sample handshake 0;
          if ch.w.fire then Cover.sample handshake 1;
          if ch.ar.fire then Cover.sample handshake 2;
          if ch.r.fire then Cover.sample handshake 3;
          if ch.b.fire then Cover.sample handshake 4;
          if ch.aw.stall then Cover.sample handshake 5;
          if ch.ar.stall then Cover.sample handshake 6;
          if Signal.get_bool (full i.Axi.i_wcmd) then Cover.sample handshake 7;
          if Signal.get_bool (full i.Axi.i_rcmd) then Cover.sample handshake 8;
          Axi.advance_channels ch)

let attach c ~bus kernel sis port =
  declare c ~bus;
  let g = Cover.group c (group_name bus) in
  sample_sis g ~bus kernel sis;
  observe_txns g port;
  if bus = "axi" then sample_axi g kernel

let phase_totals c =
  Cover.totals ~prefix:"bus/" ~points:[ "phase"; "phase_seq" ] c
