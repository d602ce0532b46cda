(** A per-slot memo of a value derived from each slot's instruction.

    The memo remembers, for every slot index, the last two instructions
    it derived a value from.  {!get} re-derives a slot only when the
    slot holds neither of them {e physically} ([!=]), so a proposal move
    that replaces one or two slots costs one or two derivations,
    whatever the program's length, and undoing a move costs none.  Keying on physical
    identity is sound because instructions and their operand arrays are
    never mutated in place (see {!Instr.t}): a structurally different
    instruction is always a different object.

    A memo is mutable and unsynchronised; keep one per search chain. *)

type 'a t

val create : (Instr.t -> 'a) -> 'a t
(** A memo of the given derivation, initially empty. *)

val get : 'a t -> Program.t -> int -> 'a
(** [get m p k] is [derive i] where slot [k] of [p] is [Active i]
    (raises [Invalid_argument] on an [Unused] slot).  A program with a
    different slot count than the last one seen starts the memo afresh. *)
