let round_s = 0.25

type round = { ops : int; elapsed_ns : int; slowdown : float; stolen : float }
type run = { by_round : round array; ops : int; kept : Stats.reservoir array }

(* a kept sample packs its latency with its round's index *)
let round_bits = 12
let capacity = 1 lsl 18

let run ?(workers = 1) ~seconds op =
  let rounds = max 2 (int_of_float (Float.round (seconds /. round_s))) in
  if rounds >= 1 lsl round_bits then invalid_arg "Loop.run: too many rounds";
  let round_ns = int_of_float (seconds *. 1e9) / rounds in
  let next = Array.make workers 0 in
  let kept =
    Array.init workers (fun w -> Stats.reservoir ~capacity:(capacity / workers) ~seed:(w + 1))
  in
  let failure = ref None in
  let before = ref (Reference.sample ()) in
  let by_round =
    Array.init rounds (fun r ->
        let steal0, busy0 = Sysinfo.cpu_ticks () in
        let t_start = Clock.now_ns () in
        let deadline = t_start + round_ns in
        let first = Array.copy next in
        let work worker () =
          try
            let t1 = ref t_start in
            while next.(worker) = first.(worker) || (!t1 < deadline && !failure = None) do
              let t0 = Clock.now_ns () in
              op ~worker next.(worker);
              t1 := Clock.now_ns ();
              Stats.offer kept.(worker) (((!t1 - t0) lsl round_bits) lor r);
              next.(worker) <- next.(worker) + 1
            done
          with e -> if !failure = None then failure := Some e
        in
        if workers = 1 then work 0 ()
        else List.iter Thread.join (List.init workers (fun w -> Thread.create (work w) ()));
        Option.iter raise !failure;
        let elapsed_ns = Clock.since_ns t_start in
        let steal1, busy1 = Sysinfo.cpu_ticks () in
        let stolen =
          if busy1 > busy0 then float_of_int (steal1 - steal0) /. float_of_int (busy1 - busy0)
          else 0.
        in
        let after = Reference.sample () in
        let slowdown = Reference.slowdown [ !before; after ] in
        before := after;
        let ops = Array.fold_left ( + ) 0 next - Array.fold_left ( + ) 0 first in
        { ops; elapsed_ns; slowdown; stolen })
  in
  { by_round; ops = Array.fold_left ( + ) 0 next; kept }

let sum f r = Array.fold_left (fun a rd -> a +. f rd) 0. r.by_round

(* measured time to time at reference speed *)
let scale rd = (1. -. rd.stolen) /. rd.slowdown
let seconds_at_speed rd = Clock.seconds rd.elapsed_ns *. scale rd
let measured_seconds r = sum (fun rd -> Clock.seconds rd.elapsed_ns) r
let slowdown r = measured_seconds r /. sum seconds_at_speed r
let throughput r = float_of_int r.ops /. sum seconds_at_speed r

let sorted_ms r f =
  let a =
    Array.concat
      (List.map
         (fun res ->
           Array.map
             (fun v ->
               float_of_int (v lsr round_bits)
               *. f r.by_round.(v land ((1 lsl round_bits) - 1))
               /. 1e6)
             (Stats.kept res))
         (Array.to_list r.kept))
  in
  Array.sort compare a;
  a

let end_to_end ~setup_s ~rss_mb (tally : Tally.t) r =
  let ms = sorted_ms r scale in
  [
    Metric.v "setup_s" "s" setup_s;
    Metric.v "throughput_ops_s" "1/s" (throughput r);
    Metric.v "latency_ms_p50" "ms" (Stats.percentile ms ~per_mille:500);
  ]
  @ (match Stats.tail ~n:(Array.length ms) with
    | Some (label, per_mille) ->
        [ Metric.v ("latency_ms_" ^ label) "ms" (Stats.percentile ms ~per_mille) ]
    | None -> [])
  @ [
      Metric.v "ok_ratio" "ratio"
        (float_of_int (tally.attempted - tally.failed) /. float_of_int (max 1 tally.attempted));
      Metric.v "peak_rss_mb" "MiB" rss_mb;
    ]

let raw_summary r =
  let weighted f = sum (fun rd -> Clock.seconds rd.elapsed_ns *. f rd) r /. measured_seconds r in
  Printf.sprintf "measured: %d ops, %.6g ops/s, p50 %.6g ms; host slowdown %.4g, stolen %.3g" r.ops
    (float_of_int r.ops /. measured_seconds r)
    (Stats.percentile (sorted_ms r (fun _ -> 1.)) ~per_mille:500)
    (weighted (fun rd -> rd.slowdown))
    (weighted (fun rd -> rd.stolen))

let median_setup ?(discard = ignore) ~reps f =
  let rec go k before times =
    let t0 = Clock.now_ns () in
    let v = f () in
    let seconds = Clock.seconds (Clock.since_ns t0) in
    let after = Reference.sample () in
    let times = (seconds /. Reference.slowdown [ before; after ]) :: times in
    if k <= 1 then (Stats.median times, v)
    else (
      discard v;
      go (k - 1) after times)
  in
  go reps (Reference.sample ()) []
