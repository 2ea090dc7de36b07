open Splice_sim
open Splice_bits
open Splice_obs

(* output mux, selected by FUNC_ID: the selected stub's ports, or all
   zeros when no stub owns the id *)
let rec mux (sis : Sis_if.t) id = function
  | [] ->
      Signal.set_int sis.Sis_if.data_out 0;
      Signal.set_bool sis.Sis_if.data_out_valid false;
      Signal.set_bool sis.Sis_if.io_done false
  | (i, (p : Stub_model.ports)) :: rest ->
      if i <> id then mux sis id rest
      else begin
        Signal.assign ~dst:sis.Sis_if.data_out ~src:p.data_out;
        Signal.assign ~dst:sis.Sis_if.data_out_valid ~src:p.data_out_valid;
        Signal.assign ~dst:sis.Sis_if.io_done ~src:p.io_done
      end

(* CALC_DONE status vector: bit (id-1) per instance *)
let rec done_bits acc = function
  | [] -> acc
  | (id, (p : Stub_model.ports)) :: rest ->
      done_bits
        (if Signal.get_bool p.calc_done then acc lor (1 lsl (id - 1)) else acc)
        rest

let make ?(obs = Obs.none) ~stubs (sis : Sis_if.t) =
  let ids = List.map fst stubs in
  List.iter
    (fun id -> if id <= 0 then invalid_arg "Arbiter_model.make: id must be >= 1")
    ids;
  let sorted = List.sort_uniq compare ids in
  if List.length sorted <> List.length ids then
    invalid_arg "Arbiter_model.make: duplicate function ids";
  let vec_width = Signal.width sis.Sis_if.calc_done in
  List.iter
    (fun id ->
      if id - 1 >= vec_width then
        invalid_arg
          (Printf.sprintf
             "Arbiter_model.make: function id %d needs CALC_DONE bit %d but \
              the vector is only %d bit(s) wide"
             id (id - 1) vec_width))
    ids;
  let comb () =
    mux sis (Signal.get_int sis.Sis_if.func_id) stubs;
    (* construction rejected any id whose bit would fall outside the
       vector; only a 64-bit vector needs the [Bits] path for bit 63 *)
    if vec_width <= 63 then Signal.set_int sis.Sis_if.calc_done (done_bits 0 stubs)
    else
      Signal.set sis.Sis_if.calc_done
        (List.fold_left
           (fun acc (id, (p : Stub_model.ports)) ->
             Bits.set_bit acc (id - 1) (Signal.get_bool p.calc_done))
           (Bits.zero vec_width) stubs)
  in
  (* grant bookkeeping: a grant is an IO_DONE-high cycle for the selected
     function; the wait histogram measures request strobe -> first grant *)
  let m = Obs.metrics obs in
  let grants = Metrics.counter m "arbiter/grants" in
  let per_id =
    List.map
      (fun id -> (id, Metrics.counter m (Printf.sprintf "arbiter/grants/%d" id)))
      sorted
  in
  let h_wait =
    Metrics.histogram ~limits:[| 0; 1; 2; 4; 8; 16; 32; 64; 128 |] m
      "arbiter/wait_cycles"
  in
  let waiting = ref None in
  let seq () =
    if Obs.active obs then begin
      if Signal.get_bool sis.Sis_if.rst then waiting := None
      else begin
        let id = Signal.get_int sis.Sis_if.func_id in
        let done_ = Signal.get_bool sis.Sis_if.io_done in
        let requested = Signal.get_bool sis.Sis_if.io_enable in
        if done_ then begin
          Metrics.incr grants;
          (match List.assoc_opt id per_id with
          | Some c -> Metrics.incr c
          | None -> ());
          match !waiting with
          | Some (wid, start) when wid = id ->
              Metrics.observe h_wait (Obs.now obs - start);
              waiting := None
          | _ -> if requested then Metrics.observe h_wait 0
        end
        else if requested && !waiting = None then
          waiting := Some (id, Obs.now obs)
      end
    end
  in
  (* the mux is a pure function of FUNC_ID and the stub port outputs; [seq]
     only does grant bookkeeping that [comb] never reads, hence ~state:false *)
  let reads =
    sis.Sis_if.func_id
    :: List.concat_map
         (fun (_, (p : Stub_model.ports)) ->
           [ p.data_out; p.data_out_valid; p.io_done; p.calc_done ])
         stubs
  in
  Component.make ~reads ~state:false ~comb ~seq
    ~reset:(fun () -> waiting := None)
    "arbiter"
