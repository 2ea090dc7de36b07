open Splice_sim
open Splice_bits

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

let make ~stubs (sis : Sis_if.t) =
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
  (* the mux is a pure function of FUNC_ID and the stub port outputs *)
  let reads =
    sis.Sis_if.func_id
    :: List.concat_map
         (fun (_, (p : Stub_model.ports)) ->
           [ p.data_out; p.data_out_valid; p.io_done; p.calc_done ])
         stubs
  in
  Component.make ~reads ~comb "arbiter"
