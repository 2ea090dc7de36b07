open Splice_sim
open Splice_driver
open Splice_par

(* Content-hashed design cache with instance-reset replay (see DESIGN.md
   "Design cache & instance reset").

   A cache entry is a fully elaborated host — kernel, peripheral, bus
   adapter, monitors — plus the end-of-elaboration snapshot that
   [Host.reset] rewinds to. The key is the canonical content of everything
   elaboration depends on: the spec source, the bus, the CDC configuration
   (clock ratio + FIFO depth), the monitor set, the behavior parameters and
   the ambient-environment identity (a cover map, when one is attached).
   The {e scheduler is deliberately not part of the key}: the same
   elaborated design serves all three schedulers — a hit resets the kernel
   and re-targets it, and the next seal rebuilds whatever the new scheduler
   needs. That is where the fuzz grid's reuse comes from: every
   (spec, bus) cell runs under [`Event], [`Sweep] and [`Compiled], paying
   one elaboration instead of three.

   Determinism: a hit replays byte-identically to a fresh build (the
   [Host.reset] contract), so results never depend on the hit/miss pattern
   — which is what allows a {e per-domain} cache (no shared mutation, no
   locks) to leave digests, dumps and shrink traces bit-equal at any [-j]
   and with the cache disabled. Only the hit/miss counters are
   scheduling-dependent (cross-cell hits require the repeat to land in the
   same domain); nothing downstream of them is. *)

type key = {
  k_tag : string;  (* caller namespace + behavior discriminators *)
  k_src : string;  (* canonical spec source text *)
  k_bus : string;
  k_ratio : int * int;  (* CDC clock ratio (bus : peripheral) *)
  k_depth : int;  (* CDC FIFO depth *)
  k_monitors : bool;
  k_env : int;
      (* identity of the ambient environment the design was elaborated
         under (e.g. a functional-coverage map it samples into); 0 = none.
         Distinct environments must miss: a cached design keeps sampling
         into the map it was built against. *)
}

(* Canonical content hash: fold the key's rendering through the splitmix64
   finaliser, 8 bytes at a time. Collisions are survivable — the full key
   is compared on lookup — but the 64-bit space makes them a non-event. *)
let hash_key k =
  let buf = Buffer.create 256 in
  let ratio_a, ratio_b = k.k_ratio in
  Buffer.add_string buf k.k_tag;
  Buffer.add_char buf '\x00';
  Buffer.add_string buf k.k_bus;
  Buffer.add_char buf '\x00';
  Buffer.add_string buf (string_of_int ratio_a);
  Buffer.add_char buf ':';
  Buffer.add_string buf (string_of_int ratio_b);
  Buffer.add_char buf '\x00';
  Buffer.add_string buf (string_of_int k.k_depth);
  Buffer.add_char buf '\x00';
  Buffer.add_string buf (if k.k_monitors then "m1" else "m0");
  Buffer.add_char buf '\x00';
  Buffer.add_string buf (string_of_int k.k_env);
  Buffer.add_char buf '\x00';
  Buffer.add_string buf k.k_src;
  let s = Buffer.contents buf in
  let n = String.length s in
  let h = ref (Int64.of_int n) in
  let i = ref 0 in
  while !i < n do
    let word = ref 0L in
    for j = 0 to 7 do
      let c = if !i + j < n then Char.code s.[!i + j] else 0 in
      word := Int64.logor !word (Int64.shift_left (Int64.of_int c) (8 * j))
    done;
    h := Splitmix.mix64 (Int64.logxor !h !word);
    i := !i + 8
  done;
  !h

type entry = {
  e_hash : int64;
  e_key : key;
  e_host : Host.t;
  e_reuse : Host.reuse;
}

type t = {
  capacity : int;
  mutable lru : entry list;  (* MRU first; bounded by [capacity] *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { hits : int; misses : int; evictions : int; entries : int }

let create ~capacity =
  if capacity < 1 then invalid_arg "Design_cache.create: capacity must be >= 1";
  { capacity; lru = []; hits = 0; misses = 0; evictions = 0 }

let stats (t : t) =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    entries = List.length t.lru;
  }

let capacity t = t.capacity

let find_and_promote (t : t) hash key =
  let rec go acc = function
    | [] -> None
    | e :: rest when e.e_hash = hash && e.e_key = key ->
        t.lru <- e :: List.rev_append acc rest;
        Some e
    | e :: rest -> go (e :: acc) rest
  in
  go [] t.lru

let insert (t : t) e =
  let rec take n = function
    | [] -> []
    | _ when n = 0 ->
        t.evictions <- t.evictions + 1;
        []
    | x :: rest -> x :: take (n - 1) rest
  in
  t.lru <- e :: take (t.capacity - 1) t.lru

let acquire (t : t) ~key ~(sched : Kernel.sched) ~build =
  let hash = hash_key key in
  match find_and_promote t hash key with
  | Some e ->
      t.hits <- t.hits + 1;
      Host.reset ~sched e.e_host e.e_reuse;
      (e.e_host, true)
  | None ->
      t.misses <- t.misses + 1;
      let host = build () in
      let e =
        {
          e_hash = hash;
          e_key = key;
          e_host = host;
          e_reuse = Host.prepare_reuse host;
        }
      in
      insert t e;
      (host, false)

(* ------------------------------------------------------------------ *)
(* Per-domain ambient cache                                            *)
(* ------------------------------------------------------------------ *)

type config = { enabled : bool }

let default_config = { enabled = true }
let disabled = { enabled = false }

(* LRU capacity of each domain's cache, in elaborated designs *)
let domain_capacity = 32

let slot : t option ref Dls.t = Dls.make (fun () -> ref None)

let domain_cache cfg =
  if not cfg.enabled then None
  else begin
    let r = Dls.get slot in
    if Option.is_none !r then r := Some (create ~capacity:domain_capacity);
    !r
  end

let with_cache cfg ~key ~sched ~build =
  match domain_cache cfg with
  | None -> (build (), false)
  | Some c -> acquire c ~key ~sched ~build

let domain_stats () =
  match !(Dls.get slot) with None -> None | Some c -> Some (stats c)

(* Every OpenMetrics exposition should carry the cache's effectiveness,
   not just BENCH JSON: register the calling domain's cumulative hit/miss
   counters into a registry about to be exposed. One-shot per registry —
   counters only accumulate, so calling this twice on the same registry
   double-counts. *)
let metrics_into m =
  match domain_stats () with
  | None -> ()
  | Some s ->
      let open Splice_obs in
      Metrics.add (Metrics.counter m "cache/hits") s.hits;
      Metrics.add (Metrics.counter m "cache/misses") s.misses;
      Metrics.add (Metrics.counter m "cache/evictions") s.evictions;
      Metrics.set (Metrics.gauge m "cache/entries") s.entries
