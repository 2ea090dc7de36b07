type span = {
  name : string;
  parent : int;
  start_ns : int;
  end_ns : int;
  cycles : int;
  words : int;
  evals : int;
}

type t = { mutable buf : span array; mutable len : int; mutable current : int }

let dummy =
  { name = ""; parent = -1; start_ns = 0; end_ns = 0; cycles = 0; words = 0; evals = 0 }

let create () = { buf = Array.make 1024 dummy; len = 0; current = -1 }

let add t s =
  if t.len = Array.length t.buf then begin
    let bigger = Array.make (2 * t.len) dummy in
    Array.blit t.buf 0 bigger 0 t.len;
    t.buf <- bigger
  end;
  t.buf.(t.len) <- s;
  t.len <- t.len + 1;
  t.len - 1

let enter t name =
  let id =
    add t { dummy with name; parent = t.current; start_ns = Clock.now_ns () }
  in
  t.current <- id;
  id

let leave ?name ?(cycles = 0) ?(words = 0) ?(evals = 0) t id =
  let end_ns = Clock.now_ns () in
  let s = t.buf.(id) in
  let name = Option.value name ~default:s.name in
  t.buf.(id) <- { s with name; end_ns; cycles; words; evals };
  t.current <- s.parent

let span t name f =
  let id = enter t name in
  match f () with
  | v ->
      leave t id;
      v
  | exception e ->
      leave t id;
      raise e

let spans t = Array.sub t.buf 0 t.len

let merge ts =
  let out = ref [] in
  let base = ref 0 in
  List.iter
    (fun t ->
      let b = !base in
      Array.iter
        (fun s ->
          let parent = if s.parent < 0 then -1 else s.parent + b in
          out := { s with parent } :: !out)
        (spans t);
      base := b + t.len)
    ts;
  Array.of_list (List.rev !out)

let duration s = s.end_ns - s.start_ns

let self_time ~start_ns ~end_ns children =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a start_ns and b = min b end_ns in
        if b > a then Some (a, b) else None)
      children
  in
  let covered, _ =
    List.fold_left
      (fun (covered, reach) (a, b) ->
        let a = max a reach in
        if b > a then (covered + (b - a), b) else (covered, reach))
      (0, start_ns)
      (List.sort compare clipped)
  in
  end_ns - start_ns - covered

let self_times spans =
  let kids = Array.make (Array.length spans) [] in
  Array.iter
    (fun s ->
      if s.parent >= 0 then
        kids.(s.parent) <- (s.start_ns, s.end_ns) :: kids.(s.parent))
    spans;
  Array.mapi
    (fun i s -> self_time ~start_ns:s.start_ns ~end_ns:s.end_ns kids.(i))
    spans

let named spans name =
  Array.fold_right (fun s acc -> if s.name = name then s :: acc else acc) spans []

let median_us ?self spans name =
  let l = ref [] in
  Array.iteri
    (fun i s ->
      if s.name = name then
        let ns = match self with Some self -> self.(i) | None -> duration s in
        l := (float_of_int ns /. 1e3) :: !l)
    spans;
  match !l with [] -> 0. | l -> Stats.median l

let per_cycle l =
  let sum f = float_of_int (List.fold_left (fun a s -> a + f s) 0 l) in
  let cycles = max 1. (sum (fun s -> s.cycles)) in
  (sum duration /. cycles, sum (fun s -> s.words) /. cycles, sum (fun s -> s.evals) /. cycles)

let summary_json spans =
  let tbl = Hashtbl.create 32 in
  let self = self_times spans in
  Array.iteri
    (fun i s ->
      let n, total, self_total, cycles, words =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0, 0, 0, 0)
      in
      Hashtbl.replace tbl s.name
        ( n + 1,
          total + duration s,
          self_total + self.(i),
          cycles + s.cycles,
          words + s.words ))
    spans;
  let rows =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  Splice.Json.Obj
    (List.map
       (fun (name, (n, total, self, cycles, words)) ->
         ( name,
           Splice.Json.Obj
             [
               ("count", Splice.Json.Int n);
               ("total_ns", Splice.Json.Int total);
               ("self_ns", Splice.Json.Int self);
               ("cycles", Splice.Json.Int cycles);
               ("words", Splice.Json.Int words);
             ] ))
       rows)
