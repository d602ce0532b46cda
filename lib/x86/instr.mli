(** A single instruction: an opcode plus operands in AT&T order. *)

type t = {
  op : Opcode.t;
  operands : Operand.t array;
}
(** Invariant: an instruction is immutable once built — nothing writes
    into its [operands] array after construction.  To change an
    instruction, build a new one (as the proposal moves do, copying the
    operand array first).  The per-slot memos of the search
    ({!Slot_memo}: the static screen's masks, the compiled engine's
    closures and latencies) key on the physical identity of a slot's
    instruction and would go stale if one were mutated in place. *)

val make : Opcode.t -> Operand.t list -> t
(** Raises [Invalid_argument] when the operands fit no shape of the
    opcode. *)

val make_unchecked : Opcode.t -> Operand.t array -> t

val is_well_formed : t -> bool

val shape : t -> Shape.kind array
(** The shape the instruction inhabits (raises if ill-formed). *)

val shape_index : t -> int
(** Index of {!shape} in [Shape.shape_array i.op] (raises if
    ill-formed). *)

val gp_width : t -> Reg.w
(** The width used when printing GP operands of this instruction. *)

val equal : t -> t -> bool

val to_string : t -> string
(** Paper-style AT&T rendering, e.g. ["mulss 8(rdi), xmm1"]. *)

val pp : Format.formatter -> t -> unit
