open Splice_sim
open Splice_sis
open Splice_buses

(* What a bus's handshake axioms look like when watched through the SIS
   lines (the adapter mappings of Figs 4.5-4.8 are combinational, so every
   native-side rule has an exact SIS-side rendering). A [None] message
   disables the rule for that bus. [no_write_stall] is the one rule a bus
   does not choose: it holds exactly on the strictly synchronous buses
   (their [Bus_caps.pseudo_async] is false), and the table only words it. *)
type rules = {
  check : string;  (* Kernel.add_check name, "<bus>-protocol" *)
  wr_ack_needs_req : string option;
  rd_ack_needs_req : string option;
  single_cycle_ack : string option;
  single_cycle_access : string option;
  stable_fid : string option;
  stable_data : string option;
  no_write_stall : string;
}

(* failures only: the hot path allocates no formatting closure *)
let rule_fail ~cycle (r : rules) message =
  Kernel.check_fail ~cycle ~check:r.check message

let run_rules kernel (r : rules) ~strictly_sync (sis : Sis_if.t) =
  let d = Sis_phase.create kernel sis in
  let rule msg cond ~cycle =
    match msg with Some m when cond -> rule_fail ~cycle r m | _ -> ()
  in
  fun cycle ->
    Sis_phase.sample d;
    if d.rst then begin
      if d.io_enable then rule_fail ~cycle r "request strobed during bus reset"
    end
    else begin
      let fid = d.func_id in
      let new_write = d.phase = Write in
      if new_write && fid = 0 then
        rule_fail ~cycle r
          "write presented to the read-only status register (FUNC_ID 0)";
      (* acknowledges may only answer a request (addrAck-before-dataAck) *)
      rule r.wr_ack_needs_req ~cycle
        (Sis_phase.write_ack d && not (d.transfer = Writing || new_write));
      rule r.rd_ack_needs_req ~cycle
        (d.data_out_valid && not (d.transfer = Reading || d.phase = Read));
      (* single-cycle acknowledge / mandatory idle phase between accesses *)
      rule r.single_cycle_ack ~cycle (d.io_done && d.prev_done);
      rule r.single_cycle_access ~cycle
        (d.io_enable && (d.prev = Write || d.prev = Read));
      (* qualifier stability while a transfer is wait-stated *)
      if d.transfer <> Quiet then begin
        rule r.stable_fid ~cycle (fid <> d.held_fid);
        rule r.stable_data ~cycle
          (d.transfer = Writing && not (Sis_phase.data_held d))
      end;
      (* strictly synchronous transfers cannot be paused by the slave *)
      if strictly_sync && new_write && fid <> 0 && not d.io_done then
        rule_fail ~cycle r r.no_write_stall
    end;
    Sis_phase.advance d

let no_rules name =
  {
    check = name ^ "-protocol";
    wr_ack_needs_req = None;
    rd_ack_needs_req = None;
    single_cycle_ack = None;
    single_cycle_access = None;
    stable_fid = None;
    stable_data = None;
    no_write_stall = "wait state on a strictly synchronous write (§4.2.2)";
  }

let plb_rules =
  {
    (no_rules "plb") with
    wr_ack_needs_req =
      Some "PLB_WrAck asserted with no write in flight (dataAck before addrAck)";
    rd_ack_needs_req =
      Some "PLB_RdAck asserted with no read in flight (dataAck before addrAck)";
    stable_fid = Some "PLB_RdCE/PLB_WrCE one-hot select changed mid-transaction";
    stable_data = Some "PLB_DataIn changed before the acknowledge (Fig 4.5)";
  }

let opb_rules =
  {
    (no_rules "opb") with
    wr_ack_needs_req = Some "Sln_XferAck asserted with no OPB transfer in flight";
    rd_ack_needs_req = Some "Sln_DBus driven valid with no OPB read in flight";
    single_cycle_ack =
      Some "Sln_XferAck held for consecutive cycles (xferAck is a single-cycle strobe)";
    single_cycle_access =
      Some "OPB_Select held across back-to-back accesses (the OPB has no bursts)";
    stable_fid = Some "OPB_ABus changed before Sln_XferAck";
  }

let fcb_rules =
  {
    (no_rules "fcb") with
    wr_ack_needs_req = Some "FCB_Done asserted with no decoded opcode in flight";
    rd_ack_needs_req = Some "FCB_RdData valid with no decoded load opcode in flight";
    stable_fid =
      Some "FCB_Reg (the opcode's register field) changed while an opcode is outstanding";
    stable_data = Some "FCB_WrData changed before FCB_Done";
  }

let apb_rules =
  {
    (no_rules "apb") with
    rd_ack_needs_req = Some "PRDATA strobed with no APB access in flight";
    single_cycle_access =
      Some "PENABLE held beyond the single enable phase (setup->enable phasing)";
    no_write_stall =
      "APB slave inserted a wait state on a write (APB transfers cannot be paused)";
  }

let ahb_rules =
  {
    (no_rules "ahb") with
    wr_ack_needs_req = Some "HREADY write acknowledge with no active HTRANS beat";
    rd_ack_needs_req = Some "HRDATA valid with no active HTRANS beat";
    stable_fid = Some "HADDR changed during a wait-stated AHB beat";
    stable_data = Some "HWDATA changed during a wait-stated AHB beat";
  }

let avalon_rules =
  {
    (no_rules "avalon") with
    wr_ack_needs_req = Some "Avalon write completion with no av_write request in flight";
    rd_ack_needs_req = Some "av_readdata valid with no av_read request in flight";
    stable_fid = Some "av_address changed while av_waitrequest is asserted";
    stable_data = Some "av_writedata changed while av_waitrequest is asserted";
  }

let wishbone_rules =
  {
    (no_rules "wishbone") with
    wr_ack_needs_req = Some "ACK_O asserted with CYC_I/STB_I negated (no cycle in progress)";
    rd_ack_needs_req = Some "DAT_O valid with CYC_I/STB_I negated (no cycle in progress)";
    stable_fid = Some "ADR_I changed before ACK_O within a classic cycle";
    stable_data = Some "DAT_I changed before ACK_O within a classic cycle";
  }

let axi_rules =
  (* the SIS-facing half of the AXI4-Lite bridge is its APB engine, so the
     SIS axioms are the APB's; the native AXI channels get their own
     dedicated check (see [attach_axi_native]) *)
  {
    (no_rules "axi") with
    rd_ack_needs_req =
      Some "bridge PRDATA strobed with no APB access in flight";
    single_cycle_access =
      Some
        "bridge PENABLE held beyond the single enable phase (setup->enable \
         phasing)";
    no_write_stall =
      "bridge inserted a wait state on a write (the APB side of the CDC \
       bridge is strictly synchronous)";
  }

let dedicated =
  [
    ("plb", plb_rules); ("opb", opb_rules); ("fcb", fcb_rules);
    ("apb", apb_rules); ("ahb", ahb_rules); ("avalon", avalon_rules);
    ("wishbone", wishbone_rules); ("axi", axi_rules);
  ]

(* User-registered buses without a dedicated monitor still get the axioms
   every SIS adapter must satisfy. *)
let generic_rules name =
  {
    (no_rules name) with
    wr_ack_needs_req = Some "write acknowledge with no write in flight";
    rd_ack_needs_req = Some "read data valid with no read in flight";
    stable_fid = Some "FUNC_ID changed while a transfer is outstanding (§4.2.1)";
  }

let rules_for name =
  match List.assoc_opt name dedicated with
  | Some r -> r
  | None -> generic_rules name

(* Native-side AXI4-Lite channel axioms, checked at ACLK edges: once VALID
   is asserted it must hold, with stable payload, until the READY handshake
   (A3.2.1 of the AMBA spec); responses may not outnumber the accepted
   requests they answer; AXI4-Lite slaves only ever answer OKAY here (no
   decode errors inside the bridge's own address window). *)

let axi_check = "axi-channels"
let axi_fail ~cycle message = Kernel.check_fail ~cycle ~check:axi_check message

(* one channel's hold axioms: what VALID waited with must still be there *)
let axi_hold ~cycle (c : Axi.Channel.t) =
  if Axi.Channel.dropped c then
    axi_fail ~cycle
      (Printf.sprintf
         "%sVALID dropped before %sREADY (VALID must hold until the \
          handshake)"
         c.name c.name);
  if c.waiting && not (Axi.Channel.payload_held c) then
    axi_fail ~cycle
      (Printf.sprintf "%s payload changed while VALID was waiting for READY"
         c.name)

let attach_axi_native kernel =
  match Axi.instance_for kernel with
  | None -> ()
  | Some inst ->
      let nat = inst.Axi.nat in
      let ch = Axi.channels kernel inst in
      Kernel.add_check_in kernel inst.Axi.aclk axi_check (fun cycle ->
          Axi.sample_channels ch;
          axi_hold ~cycle ch.aw;
          axi_hold ~cycle ch.w;
          axi_hold ~cycle ch.ar;
          axi_hold ~cycle ch.r;
          axi_hold ~cycle ch.b;
          if (ch.b.fire || ch.b.stall) && Signal.get_int nat.Axi.Native.bresp <> 0
          then axi_fail ~cycle "BRESP is not OKAY";
          if (ch.r.fire || ch.r.stall) && Signal.get_int nat.Axi.Native.rresp <> 0
          then axi_fail ~cycle "RRESP is not OKAY";
          Axi.advance_channels ch;
          if ch.b.fired > min ch.aw.fired ch.w.fired then
            axi_fail ~cycle "B handshake with no outstanding write (responses outnumber \
                  accepted AW/W transfers)";
          if ch.r.fired > ch.ar.fired then
            axi_fail ~cycle "R handshake with no outstanding read (responses outnumber \
                  accepted AR transfers)")

let attach kernel ~bus sis =
  let r = rules_for bus in
  let strictly_sync =
    match Registry.lookup_caps bus with
    | Some c -> not c.Splice_syntax.Bus_caps.pseudo_async
    | None -> false
  in
  let rules = run_rules kernel r ~strictly_sync sis in
  (* a CDC bus's SIS side lives in its peripheral clock domain: gate the
     protocol rules there so "previous cycle" means the previous PCLK edge *)
  (match Kernel.find_domain kernel (bus ^ ".pclk") with
  | Some d -> Kernel.add_check_in kernel d r.check rules
  | None -> Kernel.add_check kernel r.check rules);
  if String.equal bus "axi" then attach_axi_native kernel
