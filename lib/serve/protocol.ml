(* Wire protocol of the simulation service: one JSON object per line in,
   one JSON object per line out. Parsing is strict about what it accepts
   (unknown kinds and malformed fields are rejected with a one-line
   diagnostic) and bounded by the line limit of [read_line] before it
   ever reaches the parser, so a hostile client can neither wedge the
   framing nor make the daemon buffer unboundedly. A fuzz request is the
   CLI's own [Diff.config], checked by the same [Diff.check]. *)

open Splice_obs

type request =
  | Spec of { source : string }
  | Eval
  | Fuzz of Splice_check.Diff.config
  | Trace of { dump : string }
  | Sleep of { ms : int }
  | Ping
  | Stats
  | Shutdown

let kind_name = function
  | Spec _ -> "spec"
  | Eval -> "eval"
  | Fuzz _ -> "fuzz"
  | Trace _ -> "trace"
  | Sleep _ -> "sleep"
  | Ping -> "ping"
  | Stats -> "stats"
  | Shutdown -> "shutdown"

let kinds = [ "spec"; "eval"; "fuzz"; "trace"; "sleep"; "ping"; "stats"; "shutdown" ]

type outcome = Ok_ | Rejected | Failed | Overloaded | Errored | Draining

let outcome_name = function
  | Ok_ -> "ok"
  | Rejected -> "rejected"
  | Failed -> "failed"
  | Overloaded -> "overloaded"
  | Errored -> "error"
  | Draining -> "shutting_down"

let ok_of_outcome = function Ok_ -> true | _ -> false

(* the daemon is a shared resource: cap the work one request may ask for *)
let max_count = 10_000

(* ---- request parsing ---------------------------------------------- *)

let str_field j name = Option.bind (Json.member name j) Json.to_str
let int_field j name = Option.bind (Json.member name j) Json.to_int

let bool_field j name =
  match Json.member name j with Some (Json.Bool b) -> Some b | _ -> None

let parse_fuzz j =
  let module Diff = Splice_check.Diff in
  let ( let* ) = Result.bind in
  let* seed =
    match int_field j "seed" with
    | Some s -> Ok s
    | None -> Error "fuzz: missing integer field \"seed\""
  in
  let count =
    Option.value ~default:Diff.default_config.count (int_field j "count")
  in
  let* () =
    if count >= 1 && count <= max_count then Ok ()
    else Error (Printf.sprintf "fuzz: count must be in 1..%d" max_count)
  in
  let* scheds =
    match str_field j "sched" with
    | None -> Ok Diff.default_config.scheds
    | Some s -> Diff.scheds_of_string s
  in
  let* ratio =
    match str_field j "ratio" with
    | None -> Ok None
    | Some r -> Result.map Option.some (Diff.ratio_of_string r)
  in
  let cfg =
    {
      Diff.default_config with
      seed;
      count;
      buses = Option.to_list (str_field j "bus");
      scheds;
      ratio;
      depth = int_field j "depth";
      cache =
        Option.value ~default:Diff.default_config.cache (bool_field j "cache");
    }
  in
  let* () = Diff.check cfg in
  Ok (Fuzz cfg)

let parse = function
  | Error e -> Error (Printf.sprintf "malformed JSON: %s" e)
  | Ok (Json.Obj _ as j) -> (
      match str_field j "kind" with
      | None -> Error "missing string field \"kind\""
      | Some "spec" -> (
          match str_field j "source" with
          | Some source -> Ok (Spec { source })
          | None -> Error "spec: missing string field \"source\"")
      | Some "eval" -> Ok Eval
      | Some "fuzz" -> parse_fuzz j
      | Some "trace" -> (
          match str_field j "dump" with
          | Some dump -> Ok (Trace { dump })
          | None -> Error "trace: missing string field \"dump\"")
      | Some "sleep" -> (
          match int_field j "ms" with
          | Some ms when ms >= 0 && ms <= 60_000 -> Ok (Sleep { ms })
          | Some _ -> Error "sleep: ms must be in 0..60000"
          | None -> Error "sleep: missing integer field \"ms\"")
      | Some "ping" -> Ok Ping
      | Some "stats" -> Ok Stats
      | Some "shutdown" -> Ok Shutdown
      | Some k -> Error (Printf.sprintf "unknown request kind %S" k))
  | Ok _ -> Error "request must be a JSON object"

let parse_line line = parse (Json.of_string line)

(* ---- spans --------------------------------------------------------- *)

type span = { sp_name : string; sp_ns : int; sp_children : span list }

let span ?(children = []) name ns =
  { sp_name = name; sp_ns = ns; sp_children = children }

let rec span_json s =
  Json.Obj
    ([ ("name", Json.String s.sp_name); ("ns", Json.Int s.sp_ns) ]
    @
    match s.sp_children with
    | [] -> []
    | cs -> [ ("children", Json.List (List.map span_json cs)) ])

(* ---- reply envelope ------------------------------------------------ *)

let reply ~req ?id ~kind ~outcome ?(fields = []) ?(spans = []) () =
  Json.Obj
    ([ ("req", Json.Int req) ]
    @ (match id with None -> [] | Some id -> [ ("id", id) ])
    @ [
        ("kind", Json.String kind);
        ("ok", Json.Bool (ok_of_outcome outcome));
        ("outcome", Json.String (outcome_name outcome));
      ]
    @ fields
    @
    match spans with
    | [] -> []
    | spans -> [ ("spans", Json.List (List.map span_json spans)) ])

(* ---- line framing (both ends of the socket) ----------------------- *)

let write_all fd s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0

(* Bytes read but not yet returned stay in [buf] from [start] on; [buf]
   up to [scanned] is known to hold no newline. Every byte is appended,
   scanned and (when a partial line is compacted to the front) copied at
   most once, so a line costs time linear in its length up to
   [max_line]. *)
type reader = {
  r_fd : Unix.file_descr;
  chunk : Bytes.t;
  buf : Buffer.t;
  mutable start : int;
  mutable scanned : int;
}

let reader fd =
  {
    r_fd = fd;
    chunk = Bytes.create 4096;
    buf = Buffer.create 4096;
    start = 0;
    scanned = 0;
  }

let rec read_line r ~max_line =
  let len = Buffer.length r.buf in
  let i = ref r.scanned in
  while !i < len && Buffer.nth r.buf !i <> '\n' do
    incr i
  done;
  if !i < len then begin
    let nl = !i in
    let stop =
      if nl > r.start && Buffer.nth r.buf (nl - 1) = '\r' then nl - 1 else nl
    in
    let line = Buffer.sub r.buf r.start (stop - r.start) in
    r.start <- nl + 1;
    r.scanned <- nl + 1;
    `Line line
  end
  else if len - r.start > max_line then `Oversized
  else begin
    if r.start > 0 then begin
      let rest = Buffer.sub r.buf r.start (len - r.start) in
      Buffer.clear r.buf;
      Buffer.add_string r.buf rest;
      r.start <- 0
    end;
    r.scanned <- Buffer.length r.buf;
    let n =
      try Unix.read r.r_fd r.chunk 0 (Bytes.length r.chunk)
      with Unix.Unix_error _ -> 0
    in
    if n = 0 then `Eof
    else begin
      Buffer.add_subbytes r.buf r.chunk 0 n;
      read_line r ~max_line
    end
  end
