(** Bitmask fast path of the undef-read analysis, for screening proposals
    inside the search loop.

    [has_undef_read env p] is [true] exactly when [Dataflow.undef_reads]
    would report at least one finding with [defined_in] the locations of
    [env] (property-tested in [test/test_analysis.ml]).  The search rejects
    such proposals before [Cost.eval] — they read a register, the flags, or
    memory that neither the kernel's inputs nor any earlier slot wrote, so
    their behaviour depends on garbage and no test execution is needed to
    distrust them. *)

type env
(** Packed set of initially-defined locations, plus a per-slot memo of
    each instruction's use/def masks ({!Slot_memo}): a call re-derives
    masks only for slots whose instruction changed since the previous
    call.  The memo is mutable, so an env belongs to one search chain
    (one domain) at a time; verdicts never depend on what it has
    seen. *)

val env_of_spec : Sandbox.Spec.t -> env
(** The spec's inputs ([Sandbox.Spec.live_in_set]) plus the
    environment-defined [rsp]. *)

val env_of_locset : Liveness.Locset.t -> env

val bit_of_loc : Liveness.loc -> int
val mask_of_locset : Liveness.Locset.t -> int

val has_undef_read : env -> Program.t -> bool
