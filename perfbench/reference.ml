let nominal_ns = 1_000_000

(* two allocation-free loops: table lookups with data-dependent branches,
   and hashtable finds on immediate keys with in-place updates *)
let table = Array.init 8192 (fun i -> (i * 2654435761) land 0xffff)
let counters = Hashtbl.create 4096
let () = for i = 0 to 4095 do Hashtbl.replace counters (i * 7919) (ref i) done

let kernel () =
  let acc = ref 0 and x = ref 1 in
  for _ = 1 to 100_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let v = table.(!x land 8191) in
    if v land 1 = 0 then acc := !acc + v else acc := !acc lxor (v lsl 3)
  done;
  for i = 0 to 14_000 do
    let c = Hashtbl.find counters (((i * 31) land 4095) * 7919) in
    incr c;
    acc := !acc + !c
  done;
  !acc

let burst = 12

let sample () =
  let t0 = Clock.now_ns () in
  for _ = 1 to burst do
    ignore (Sys.opaque_identity (kernel ()))
  done;
  float_of_int (Clock.since_ns t0) /. float_of_int burst

let slowdown samples = Stats.mean samples /. float_of_int nominal_ns
