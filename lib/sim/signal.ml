open Splice_bits
open Splice_obs

type t = {
  name : string;
  width : int;
  mask : int;
      (* [(1 lsl width) - 1] below 63 bits, all ones from 63 bits up: every
         int write is masked with it, exactly like [Bits.of_int] *)
  mutable v : int;
      (* the value as an immediate int: for width <= 63 the value's bit
         pattern (a 63-bit value with its top bit set reads as negative);
         for 64-bit signals the low 63 bits of [wide], kept in step *)
  mutable wide : Bits.t;
      (* the full value of a 64-bit signal (the slow path); a shared zero
         for narrower signals, never read *)
  mutable listeners : (unit -> unit) list;
      (* fan-out: fired (in registration order is irrelevant — they only mark
         components dirty) whenever the value actually changes; the event
         and compiled schedulers' only source of dirtiness *)
  mutable commit_stamp : int;
      (* generation stamp of the last [commit_pending] epoch that wrote this
         signal; gives O(1) last-write-wins during the commit scan *)
  mutable rec_stamp : int;
  mutable rec_id : int;
      (* cached flight-recorder intern id, valid while rec_stamp matches the
         attached recorder's stamp — a recorded transition never hashes *)
  store : store;
      (* the store of the domain that created the signal, resolved once
         here so a write or a change never looks it up *)
  mutable owner : int;
      (* id of the kernel whose design this signal belongs to (0 = none);
         stamped by the host at build time so pending-write cleanup after
         an aborted call can be scoped to the retiring kernel instead of
         dropping every queued write in the domain *)
}

(* The deferred-write queue: parallel arrays in write order (oldest at 0),
   grown by doubling and reused across cycles, so a [set_next*] costs three
   array stores and no allocation. [q_wide] is written only for 64-bit
   signals. *)
and queue = {
  mutable q_sig : t array;
  mutable q_int : int array;
  mutable q_wide : Bits.t array;
  mutable q_len : int;
}

(* The signal store (change counter, deferred-write queue, name counter,
   commit epoch) used to be module-global refs. Parallel grids run one
   kernel per pool task, so the store is domain-local: every task sees its
   own queue and fixpoint counter, and concurrent kernels in different
   domains never race. Within one domain the old single-kernel-at-a-time
   discipline still applies. *)
and store = {
  mutable changes : int;
  mutable pending : queue;
  mutable spare : queue;
      (* the queue being applied by [commit_pending] is swapped out for this
         (empty) one first, so an apply that raises leaves nothing queued *)
  mutable counter : int;
  mutable commit_epoch : int;
  mutable s_recorder : Recorder.t option;
      (* the cycling kernel's flight recorder (re-attached every cycle);
         every actual value change in this domain is recorded into it *)
  mutable s_created : t list option;
      (* when [Some], [create] conses every new signal here (newest first) —
         the host's build-time recording window (see [record_created]) *)
}

let narrow_zero = Bits.zero 1

let empty_queue = { q_sig = [||]; q_int = [||]; q_wide = [||]; q_len = 0 }

(* array filler for the pending queue; never written through, and its store
   is never used *)
let rec dummy =
  {
    name = "";
    width = 1;
    mask = 1;
    v = 0;
    wide = narrow_zero;
    listeners = [];
    commit_stamp = 0;
    rec_stamp = 0;
    rec_id = -1;
    store = dummy_store;
    owner = 0;
  }

and dummy_store =
  {
    changes = 0;
    pending = empty_queue;
    spare = empty_queue;
    counter = 0;
    commit_epoch = 0;
    s_recorder = None;
    s_created = None;
  }

let queue_capacity = 64

let make_queue () =
  {
    q_sig = Array.make queue_capacity dummy;
    q_int = Array.make queue_capacity 0;
    q_wide = Array.make queue_capacity narrow_zero;
    q_len = 0;
  }

let store_key : store Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        changes = 0;
        pending = make_queue ();
        spare = make_queue ();
        counter = 0;
        commit_epoch = 0;
        s_recorder = None;
        s_created = None;
      })

let store () = Domain.DLS.get store_key

let create ?name width =
  if width < 1 || width > Bits.max_width then raise (Bits.Invalid_width width);
  let st = store () in
  st.counter <- st.counter + 1;
  let name =
    match name with Some n -> n | None -> Printf.sprintf "sig%d" st.counter
  in
  let s =
    {
      name;
      width;
      mask = (if width >= 63 then -1 else (1 lsl width) - 1);
      v = 0;
      wide = (if width > 63 then Bits.zero width else narrow_zero);
      listeners = [];
      commit_stamp = 0;
      rec_stamp = 0;
      rec_id = -1;
      store = st;
      owner = 0;
    }
  in
  (match st.s_created with
  | None -> ()
  | Some acc -> st.s_created <- Some (s :: acc));
  s

let is_wide t = t.width > 63

(* low 63 bits of a normalized value: the value itself below 64 bits *)
let low_bits b = Int64.to_int (Bits.to_int64 b)

let name t = t.name
let width t = t.width
let get t = if is_wide t then t.wide else Bits.of_int ~width:t.width t.v
let get_raw t = t.v
let get_bool t = if is_wide t then Bits.to_bool t.wide else t.v <> 0

let get_int t =
  if is_wide t then Bits.to_int t.wide
  else if t.v < 0 then failwith "Bits.to_int: does not fit"
  else t.v

let holds t b =
  if is_wide t then Bits.equal t.wide b
  else Bits.width b = t.width && t.v = low_bits b

let on_change t f = t.listeners <- f :: t.listeners

let attach_recorder st r = st.s_recorder <- r

(* cold only on the first transition per (signal, recorder) pair *)
let record_change r t =
  let id =
    if t.rec_stamp = Recorder.stamp r then t.rec_id
    else begin
      let id = Recorder.intern r t.name in
      t.rec_stamp <- Recorder.stamp r;
      t.rec_id <- id;
      id
    end
  in
  (* low 63 bits: only full 64-bit signals truncate, and only in the dump *)
  Recorder.signal_change r ~subject:id ~value:t.v

let rec fire = function
  | [] -> ()
  | f :: fs ->
      f ();
      fire fs

(* an actual change just became visible: count it, record it, then fan
   out *)
let changed t =
  let st = t.store in
  st.changes <- st.changes + 1;
  (match st.s_recorder with None -> () | Some r -> record_change r t);
  fire t.listeners

(* [v] already masked; narrow signals only *)
let write_int t v =
  if v <> t.v then begin
    t.v <- v;
    changed t
  end

let write_wide t b =
  if not (Bits.equal t.wide b) then begin
    t.wide <- b;
    t.v <- low_bits b;
    changed t
  end

let mismatch op t w =
  raise
    (Bits.Width_mismatch
       (Printf.sprintf "Signal.%s %s: %d vs %d" op t.name w t.width))

let set t b =
  if Bits.width b <> t.width then mismatch "set" t (Bits.width b);
  if is_wide t then write_wide t b else write_int t (low_bits b)

let set_bool t b =
  if t.width <> 1 then
    raise (Bits.Width_mismatch (Printf.sprintf "Signal.set_bool %s" t.name));
  write_int t (Bool.to_int b)

let set_int t v =
  if is_wide t then write_wide t (Bits.of_int ~width:t.width v)
  else write_int t (v land t.mask)

let assign ~dst ~src =
  if src.width <> dst.width then mismatch "assign" dst src.width;
  if is_wide dst then write_wide dst src.wide else write_int dst src.v

let grow q =
  let cap = 2 * Array.length q.q_sig in
  let extend a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 q.q_len;
    a'
  in
  q.q_sig <- extend q.q_sig dummy;
  q.q_int <- extend q.q_int 0;
  q.q_wide <- extend q.q_wide narrow_zero

(* queue slot for the next write, growing the queue when full *)
let slot q =
  let i = q.q_len in
  if i = Array.length q.q_sig then grow q;
  q.q_len <- i + 1;
  i

let push_int t v =
  let q = t.store.pending in
  let i = slot q in
  Array.unsafe_set q.q_sig i t;
  Array.unsafe_set q.q_int i v

let push_wide t b =
  let q = t.store.pending in
  let i = slot q in
  Array.unsafe_set q.q_sig i t;
  Array.unsafe_set q.q_wide i b

let set_next t b =
  if Bits.width b <> t.width then mismatch "set_next" t (Bits.width b);
  if is_wide t then push_wide t b else push_int t (low_bits b)

let set_next_bool t b =
  if t.width <> 1 then mismatch "set_next" t 1;
  push_int t (Bool.to_int b)

let set_next_int t v =
  if is_wide t then push_wide t (Bits.of_int ~width:t.width v)
  else push_int t (v land t.mask)

let assign_next ~dst ~src =
  if src.width <> dst.width then mismatch "assign_next" dst src.width;
  if is_wide dst then push_wide dst src.wide else push_int dst src.v

let change_count st = st.changes

let commit_pending st =
  (* Last write wins: the queue is applied newest-first, so the first write
     stamped with the current epoch shadows any older queued writes to the
     same signal — a single O(n) scan, no membership lists.

     The queue is detached {e before} the scan (swapped for the empty spare):
     if an apply raises (a listener failing), the queue is already empty and
     the next cycle cannot silently replay the stale writes. Epoch stamps
     need no restoring — the next commit bumps the epoch, so half-applied
     stamps are never mistaken for current ones. *)
  let q = st.pending in
  let n = q.q_len in
  if n > 0 then begin
    q.q_len <- 0;
    st.pending <- st.spare;
    st.spare <- q;
    st.commit_epoch <- st.commit_epoch + 1;
    let epoch = st.commit_epoch in
    for i = n - 1 downto 0 do
      let s = Array.unsafe_get q.q_sig i in
      if s.commit_stamp <> epoch then begin
        s.commit_stamp <- epoch;
        if is_wide s then write_wide s (Array.unsafe_get q.q_wide i)
        else write_int s (Array.unsafe_get q.q_int i)
      end
    done
  end

let clear_pending () = (store ()).pending.q_len <- 0

let clear_pending_for ~owner =
  (* in-place compaction: the kept writes stay in their relative order *)
  let q = (store ()).pending in
  let kept = ref 0 in
  for i = 0 to q.q_len - 1 do
    let s = q.q_sig.(i) in
    if s.owner <> owner then begin
      let j = !kept in
      q.q_sig.(j) <- s;
      q.q_int.(j) <- q.q_int.(i);
      q.q_wide.(j) <- q.q_wide.(i);
      kept := j + 1
    end
  done;
  q.q_len <- !kept

let reset_names () = (store ()).counter <- 0

let set_owner t ~owner = t.owner <- owner
let owner t = t.owner

let record_created f =
  (* nest-safe: an inner window (a monitor adoption inside a build) sees
     only its own creations, and the outer window keeps accumulating *)
  let st = store () in
  let saved = st.s_created in
  st.s_created <- Some [];
  match f () with
  | v ->
      let created =
        match st.s_created with Some l -> l | None -> assert false
      in
      (match (saved, created) with
      | Some outer, l -> st.s_created <- Some (List.rev_append (List.rev l) outer)
      | None, _ -> st.s_created <- None);
      (v, Array.of_list (List.rev created))
  | exception e ->
      st.s_created <- saved;
      raise e

let restore_value t b =
  (* cache-replay restore: bring the signal back to a snapshotted value
     without firing listeners, the recorder, or the change counter — the
     kernel is reset around this, so nothing is watching *)
  if Bits.width b <> t.width then mismatch "restore_value" t (Bits.width b);
  if is_wide t then t.wide <- b;
  t.v <- low_bits b
