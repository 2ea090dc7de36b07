(** Host-side facts about processes: peak resident memory and the GC
    report the OCaml runtime prints at exit. *)

val peak_rss_mb : ?pid:int -> unit -> float
(** [VmHWM] of [/proc/<pid>/status] (this process by default), in MiB;
    0 when unreadable. *)

val cpu_ticks : unit -> int * int
(** Stolen and non-idle (stolen included) clock ticks of all CPUs so
    far, from the first line of [/proc/stat]; [(0, 0)] when unreadable.
    Steal is time the hypervisor ran someone else while the virtual
    machine had work. *)

type gc = { minor_collections : int; major_collections : int }

val self_gc : unit -> gc
(** This process's collection counts so far. *)

val gc_since : gc -> gc
(** Collections since an earlier {!self_gc}. *)

val gc_metrics : gc -> ops:int -> Metric.t list
(** [gc.minor_per_kop] and [gc.major_per_kop]: collections per 1000
    operations. *)

val parse_gc_report : string -> gc option
(** The counts from the report [OCAMLRUNPARAM=v=0x400] makes a program
    print on exit. *)
