(** Binary machine-code emission for the modelled subset.

    Produces genuine x86-64 encodings (legacy prefixes, REX, ModRM, SIB,
    2- and 3-byte VEX) for every opcode in {!Opcode.t}.  This is the
    "JIT assembler" part of the paper's engineering contribution: the
    bytes are tested against known-good encodings, round-tripped through
    {!Decoder}, and executed as real machine code by [Sandbox.Native]'s
    guarded worker process in the native differential tests, which check
    the interpreter's semantics against the hardware. *)

val encode_instr : Instr.t -> (string, string) result
(** Machine-code bytes for one instruction, or a description of why the
    form is not encodable. *)

val encode_program : Program.t -> (string, string) result
(** Concatenation of the active slots' encodings. *)

val hex : string -> string
(** Render bytes as lowercase hex pairs separated by spaces. *)
