(** Operand and opcode pools for the proposal distribution.

    Pools are derived from the target: its registers plus a few scratch
    registers, its immediates (notably the 64-bit constants loaded via
    [movabs]) plus small canonical values, and the memory operands it
    references.  This mirrors STOKE's practice of drawing operands from the
    target's context so proposals stay relevant. *)

type t

val make : target:Program.t -> spec:Sandbox.Spec.t -> t

val operands_of_kind : t -> Shape.kind -> Operand.t array
(** May be empty (e.g. no memory operands in a register-only kernel). *)

val opcodes_with_shape : t -> Shape.kind array -> Opcode.t array
(** Opcodes admitting the given shape whose every kind has a non-empty
    operand pool, in {!all_opcodes} order.  The array is the pool's own
    table (the one the opcode move draws from): do not mutate it. *)

val all_opcodes : t -> Opcode.t array
(** Opcodes for the instruction move (every shape instantiable). *)

val random_instr : Rng.Xoshiro256.t -> t -> Instr.t
(** A uniformly random well-formed instruction over the pools. *)

(** {2 Precomputed tables for the proposal moves} *)

type op_info = private {
  opcode : Opcode.t;
      (** the opcode, as the one shared value that [peers] entries use,
          so [==] compares it with them *)
  peers : Opcode.t array array;
      (** [peers.(j)] is [opcodes_with_shape t (Shape.shape_array op).(j)] *)
  instantiable : Shape.kind array array;
      (** the shapes whose every kind has a non-empty operand pool *)
}

val op_info : t -> Opcode.t -> op_info
(** Built once by {!make} for every opcode in [Opcode.all]. *)
