(** A named, unit-carrying measurement, as printed in the result line. *)

type t = { name : string; value : float; unit_ : string }

val v : string -> string -> float -> t
(** [v name unit value]. *)

val at_reference_speed : slowdown:float -> t list -> t list
(** Divide every time ([ns], [us], [ms], [s]) by the host slowdown
    measured around it ({!Reference}). *)

val to_json : t list -> Splice.Json.t
val find : t list -> string -> t option
