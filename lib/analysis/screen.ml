(* The proposal-rate undef-read filter.  Same analysis as
   Dataflow.undef_reads, but the location powerset is packed into one OCaml
   int (34 bits: 16 GPs, 16 XMMs, flags, mem) so the per-proposal cost is a
   handful of or/and-not word ops per slot — cheap enough to run on every
   proposal before any test case executes.

   The env also memoizes each slot's use and def masks, keyed by the
   slot's instruction (Slot_memo), so a call after a proposal move
   re-derives masks through Liveness only for the slots the move
   replaced. *)

type masks = {
  uses : int;  (** strict uses *)
  defs : int;
}

let bit_of_loc = function
  | Liveness.Lgp r -> 1 lsl Reg.gp_index r
  | Liveness.Lxmm r -> 1 lsl (16 + Reg.xmm_index r)
  | Liveness.Lflags -> 1 lsl 32
  | Liveness.Lmem -> 1 lsl 33

let mask_of_locset s =
  Liveness.Locset.fold (fun l acc -> acc lor bit_of_loc l) s 0

type env = {
  defined_in : int;
  masks : masks Slot_memo.t;
}

let masks_of i =
  {
    uses = mask_of_locset (Liveness.strict_uses i);
    defs = mask_of_locset (Liveness.defs i);
  }

let env_of_locset s =
  { defined_in = mask_of_locset s; masks = Slot_memo.create masks_of }

let env_of_spec (spec : Sandbox.Spec.t) =
  (* The machine defines rsp before the first instruction runs. *)
  env_of_locset
    (Liveness.Locset.add (Liveness.Lgp Reg.Rsp) (Sandbox.Spec.live_in_set spec))

let has_undef_read env p =
  let slots = p.Program.slots in
  let n = Array.length slots in
  let rec go idx defined =
    idx < n
    &&
    match slots.(idx) with
    | Program.Unused -> go (idx + 1) defined
    | Program.Active _ ->
      let m = Slot_memo.get env.masks p idx in
      m.uses land lnot defined <> 0 || go (idx + 1) (defined lor m.defs)
  in
  go 0 env.defined_in
