(** A test case is a function from live-in hardware locations to values
    (§2.2 of the paper): initial GP registers, xmm registers, and an
    optional memory image to splat into the arena.

    A test case is packed into one immutable string (a search keeps
    thousands alive), and {!apply} decodes it straight into a machine.
    The accessors unpack it into lists; structural equality on [t] is
    equality of those lists. *)

type t

val make :
  gps:(Reg.gp * int64) list ->
  xmms:(Reg.xmm * (int64 * int64)) list ->
  mem_writes:(int64 * string) list ->
  t
(** Pack the given locations.  {!apply} installs them in list order:
    every GP register, then every xmm register, then every memory
    write, so where a location is given twice the later entry wins. *)

val gps : t -> (Reg.gp * int64) list
val xmms : t -> (Reg.xmm * (int64 * int64)) list

val mem_writes : t -> (int64 * string) list
(** (absolute address, bytes) pairs applied to the arena. *)

val empty : t

val of_f64 : (Reg.xmm * float) list -> t
(** Doubles in the low quad of each register. *)

val of_f32 : (Reg.xmm * float) list -> t
(** Singles in the low dword (value is rounded to binary32 first). *)

(** The [with_*] builders put the new location at the {e head} of its
    list, so it is installed before the ones already there (and loses to
    an earlier-given value for the same location). *)

val with_gp : Reg.gp -> int64 -> t -> t
val with_xmm : Reg.xmm -> int64 * int64 -> t -> t
val with_f64 : Reg.xmm -> float -> t -> t
val with_f32 : Reg.xmm -> float -> t -> t
val with_f32_pair : Reg.xmm -> float * float -> t -> t
(** Two singles packed in the low quad (dword 0, dword 1). *)

val with_mem : int64 -> string -> t -> t

val with_mem_f32s : int64 -> float list -> t -> t
(** Consecutive binary32 values starting at the address. *)

val with_mem_f64s : int64 -> float list -> t -> t

val apply : t -> Machine.t -> unit
(** Install the test case into a machine (registers not mentioned are left
    as the machine has them). *)

val f64_bytes : float -> string
val f32_bytes : float -> string
