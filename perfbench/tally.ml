type t = { mutable attempted : int; mutable failed : int; mutable errors : string list }

let create () = { attempted = 0; failed = 0; errors = [] }
let ok t = t.attempted <- t.attempted + 1

let fail t msg =
  t.attempted <- t.attempted + 1;
  t.failed <- t.failed + 1;
  (* keep the first few: one bad op is enough to diagnose, a thousand
     copies of it are not *)
  if List.length t.errors < 5 then t.errors <- t.errors @ [ msg ]

let check t cond msg = if cond then ok t else fail t (msg ())

let add ~into t =
  into.attempted <- into.attempted + t.attempted;
  into.failed <- into.failed + t.failed;
  List.iter (fun e -> if List.length into.errors < 5 then into.errors <- into.errors @ [ e ]) t.errors
