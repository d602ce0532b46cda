(** Compile-once execution engine.

    {!compile} translates a program into an array of closures specialized
    against one machine: operands resolved to register-file indices,
    immediates pre-extended, effective-address code picked per addressing
    mode, [Unused] slots elided, latencies prefix-summed.  {!exec} then
    replays the closures — the per-proposal translation cost is paid once
    and amortized over every test case the search evaluates it on.

    Guarantee: for any program and any starting machine state, {!exec}
    leaves the machine in exactly the state {!Exec.run} would (registers,
    memory, flags), and returns the same outcome, fault, cycle count and
    executed count — bit-identical, so fixed-seed searches produce the
    same winner under either engine.  Opcodes without a specialized
    translation are executed through {!Semantics.step} itself.

    A compiled program is bound to the machine it was compiled against;
    running it mutates that machine only.  Reset state between runs with
    {!Machine.restore_from}. *)

type t

val compile : Machine.t -> Program.t -> t
(** Translate [p]'s active slots into closures over [m].  O(program
    length); performs all operand matching so {!exec} does none. *)

val length : t -> int
(** Number of active (compiled) instructions. *)

val latency : t -> int
(** The compiled program's latency sum, equal to {!Latency.of_program}
    of the program it was compiled from. *)

(** {2 Incremental translation}

    {!compile} is {!recompile} on a fresh {!cache}: there is one
    translator, applied slot by slot. *)

type cache
(** Per-slot translations ({!Slot_memo}) for one machine, plus one
    reusable trace.  Mutable and unsynchronised: one per evaluation
    context. *)

val cache : Machine.t -> cache

val recompile : cache -> Program.t -> t
(** [recompile c p] is [compile m p] for [c]'s machine [m], but
    translates only the slots whose instruction changed since the
    previous [recompile] on [c], and returns [c]'s own trace: the result
    is overwritten by the next [recompile] on [c]. *)

val exec : t -> Exec.result
(** Run the compiled trace on its machine, stopping at the first fault.
    Feeds {!Exec.Counters} when enabled, like {!Exec.run}. *)

val prepare : Exec.engine -> Machine.t -> Program.t -> unit -> Exec.result
(** [prepare engine m p] is a run thunk for [p] on [m] under [engine]:
    [Compiled] translates once here and each call replays {!exec};
    [Interp] steps {!Exec.run} afresh on every call.  Either way each
    call runs [p] against [m]'s current state, bit-identically. *)
