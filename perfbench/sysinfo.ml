let peak_rss_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> 0.
            | line -> (
                match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
                | Some kb -> float_of_int kb /. 1024.
                | None -> scan ())
          in
          scan ())

(* read every round: one static buffer and a raw descriptor, because an
   [in_channel] mallocs a 64 KiB buffer that lives until the GC
   finalises it, and would show up in the peak RSS being measured *)
let stat_buf = Bytes.create 4096

let cpu_ticks () =
  match Unix.openfile "/proc/stat" [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> (0, 0)
  | fd -> (
      let n =
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () -> try Unix.read fd stat_buf 0 (Bytes.length stat_buf) with Unix.Unix_error _ -> 0)
      in
      let text = Bytes.sub_string stat_buf 0 n in
      let line = match String.index_opt text '\n' with Some i -> String.sub text 0 i | None -> text in
      match
        List.filter_map int_of_string_opt
          (List.filter (( <> ) "") (String.split_on_char ' ' line))
      with
      | user :: nice :: system :: _idle :: _iowait :: irq :: softirq :: steal :: _ ->
          (steal, user + nice + system + irq + softirq + steal)
      | _ -> (0, 0))

type gc = { minor_collections : int; major_collections : int }

let self_gc () =
  let s = Gc.quick_stat () in
  { minor_collections = s.Gc.minor_collections; major_collections = s.Gc.major_collections }

let gc_since g0 =
  let g1 = self_gc () in
  {
    minor_collections = g1.minor_collections - g0.minor_collections;
    major_collections = g1.major_collections - g0.major_collections;
  }

let gc_metrics g ~ops =
  let per_kop n = float_of_int n *. 1000. /. float_of_int (max 1 ops) in
  [
    Metric.v "gc.minor_per_kop" "count" (per_kop g.minor_collections);
    Metric.v "gc.major_per_kop" "count" (per_kop g.major_collections);
  ]

let parse_gc_report text =
  let field name =
    List.find_map
      (fun line -> Scanf.sscanf_opt line (name ^^ ": %d") Fun.id)
      (String.split_on_char '\n' text)
  in
  match (field "minor_collections", field "major_collections") with
  | Some minor_collections, Some major_collections ->
      Some { minor_collections; major_collections }
  | _ -> None
