(** Whole-project generation: the complete file set of Figs 8.3 and 8.7 —
    native bus adapter, arbitration unit, one user-logic stub per function,
    the bus's [splice_lib.h], the device drivers, and a skeleton test suite.

    Output goes into a subdirectory named after the device, as §3.2.3
    describes; generation refuses to overwrite an existing directory unless
    [force] is set (mirroring the tool's confirmation prompt). *)

open Splice_syntax

type file = { path : string; contents : string }

type t = {
  spec : Spec.t;
  hardware : file list;  (** Fig 8.3: adapter, arbiter, stubs *)
  software : file list;  (** Fig 8.7: splice_lib.h, driver .c/.h, test *)
}

val generate : ?gen_date:string -> ?linux:bool -> Spec.t -> t
(** Raises [Error.Splice_error] when the spec's bus is not registered or
    fails the parameter check. [linux] additionally emits the Linux kernel
    module and userspace shim of {!Linuxgen} (§10.2); default false. *)

val files : t -> file list

val write_to : ?force:bool -> dir:string -> t -> string list
(** Write all files under [dir ^ "/" ^ device_name]; returns the paths
    written. Raises [Failure] when the device directory already exists and
    [force] is false. *)
