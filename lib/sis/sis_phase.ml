open Splice_sim
open Splice_bits

type phase = Idle | Reset | Write | Read | Wait_w | Wait_r | Ack_w | Ack_r
type transfer = Quiet | Writing | Reading

(* hot fields first: every observer touches the lines, the phase and the
   transfer each cycle; the held word only at write presentations *)
type t = {
  sis : Sis_if.t;
  mutable rst : bool;
  mutable io_enable : bool;
  mutable data_in_valid : bool;
  mutable data_out_valid : bool;
  mutable io_done : bool;
  mutable func_id : int;
  mutable phase : phase;
  mutable transfer : transfer;
  mutable held_fid : int;
  mutable prev_done : bool;
  mutable prev : phase;
  mutable waits : int;
  mutable held_raw : int;
  mutable held_wide : Bits.t;
  wide : bool;
}

let quiet d =
  d.transfer <- Quiet;
  d.held_fid <- -1;
  d.prev_done <- false

let create kernel (sis : Sis_if.t) =
  let d =
    { sis; rst = false; io_enable = false; data_in_valid = false;
      data_out_valid = false; io_done = false; func_id = 0; phase = Idle;
      transfer = Quiet; held_fid = -1; prev_done = false; prev = Reset;
      waits = 0; held_raw = 0; held_wide = Bits.zero 1;
      wide = Signal.width sis.data_in > 63 }
  in
  Kernel.at_reset kernel (fun () ->
      quiet d;
      d.prev <- Reset);
  d

let[@inline] write_ack d = d.io_done && not d.data_out_valid

let[@inline] ends d =
  match d.transfer with
  | Writing -> write_ack d
  | Reading -> d.data_out_valid
  | Quiet -> false

let sample d =
  let s = d.sis in
  let rst = Signal.get_bool s.rst and en = Signal.get_bool s.io_enable in
  let div = Signal.get_bool s.data_in_valid in
  let dov = Signal.get_bool s.data_out_valid in
  let done_ = Signal.get_bool s.io_done in
  d.rst <- rst;
  d.io_enable <- en;
  d.data_in_valid <- div;
  d.data_out_valid <- dov;
  d.io_done <- done_;
  d.func_id <- Signal.get_int s.func_id;
  d.phase <-
    (if rst then Reset
     else if en then if div then Write else Read
     else if done_ && not dov then Ack_w
     else if dov then Ack_r
     else
       match d.transfer with
       | Writing -> Wait_w
       | Reading -> Wait_r
       | Quiet -> Idle)

let data_held d =
  if d.wide then Signal.holds d.sis.data_in d.held_wide
  else Signal.get_raw d.sis.data_in = d.held_raw

let waited d = if d.io_enable then 0 else d.waits

let advance d =
  d.prev <- d.phase;
  if d.rst then quiet d
  else begin
    if ends d then d.transfer <- Quiet
    else if d.transfer <> Quiet then d.waits <- d.waits + 1;
    if d.io_enable then begin
      d.held_fid <- d.func_id;
      (* a presentation its own cycle does not acknowledge stays outstanding *)
      if d.data_in_valid then begin
        if not d.io_done then begin
          d.transfer <- Writing;
          d.waits <- 1;
          d.held_raw <- Signal.get_raw d.sis.data_in;
          if d.wide then d.held_wide <- Signal.get d.sis.data_in
        end
      end
      else if not d.data_out_valid then begin
        d.transfer <- Reading;
        d.waits <- 1
      end
    end;
    d.prev_done <- d.io_done
  end
