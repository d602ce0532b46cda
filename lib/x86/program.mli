(** Loop-free programs as fixed-length arrays of instruction slots.

    A slot holds either an instruction or the [UNUSED] token of the paper's
    instruction move: proposing [UNUSED] deletes an instruction, replacing
    [UNUSED] inserts one.  The slot array length is fixed during search, so
    rewrites can grow back after shrinking. *)

type slot =
  | Unused
  | Active of Instr.t

type t = { slots : slot array }
(** The slot array is mutable — the proposal moves write slots in place
    and undo by writing the old value back — but the slot values are
    not: a move never mutates an {!Instr.t} or its operand array, it
    stores a new one.  {!Slot_memo} relies on this to re-derive only the
    slots a move changed. *)

val of_instrs : Instr.t list -> t
(** One active slot per instruction. *)

val with_padding : int -> Instr.t list -> t
(** [with_padding extra instrs] appends [extra] unused slots, giving the
    search head-room to insert instructions. *)

val instrs : t -> Instr.t list
(** Active instructions, in order. *)

val length : t -> int
(** Number of {e active} slots (the paper's LOC metric). *)

val slot_count : t -> int

val copy : t -> t

val equal : t -> t -> bool

val hash : t -> int64
(** 64-bit structural hash (FNV-1a over the slot array, [Unused] slots
    included).  [equal a b] implies [hash a = hash b].  The values are
    persistent keys (the daemon's memo entries and checkpoints are named
    by them) and are pinned by a test; allocates only its result. *)

val to_string : t -> string
(** One instruction per line; unused slots omitted. *)

val pp : Format.formatter -> t -> unit
