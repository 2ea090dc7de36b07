(** Operations attempted and failed, with the first few failure messages. *)

type t = private {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

val create : unit -> t
val ok : t -> unit
val fail : t -> string -> unit

val check : t -> bool -> (unit -> string) -> unit
(** [check t cond msg]: {!ok} when [cond], else {!fail} with [msg ()]. *)

val add : into:t -> t -> unit
