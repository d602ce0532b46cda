type kind =
  | Opcode_move
  | Operand_move
  | Swap_move
  | Instruction_move

type undo =
  | Restore_slot of int * Program.slot
  | Restore_swap of int * int

let kind_to_string = function
  | Opcode_move -> "opcode"
  | Operand_move -> "operand"
  | Swap_move -> "swap"
  | Instruction_move -> "instruction"

(* The moves below make exactly the RNG draws of the list-building
   formulation they replace — same [Rng.Dist.int] bounds, same order —
   but pick the k-th element by counting, so a move allocates only the
   instruction it proposes. *)

let active_count (p : Program.t) =
  let slots = p.Program.slots in
  let n = ref 0 in
  for idx = 0 to Array.length slots - 1 do
    match slots.(idx) with
    | Program.Active _ -> incr n
    | Program.Unused -> ()
  done;
  !n

(* The active slots are drawn from in descending index order. *)
let nth_active_from_end (p : Program.t) k =
  let slots = p.Program.slots in
  let rec go idx k =
    match slots.(idx) with
    | Program.Unused -> go (idx - 1) k
    | Program.Active _ -> if k = 0 then idx else go (idx - 1) (k - 1)
  in
  go (Array.length slots - 1) k

let draw_active g p =
  let n = active_count p in
  if n = 0 then -1 else nth_active_from_end p (Rng.Dist.int g n)

let replace (p : Program.t) idx old i' =
  if Instr.is_well_formed i' then begin
    p.Program.slots.(idx) <- Program.Active i';
    Some (Restore_slot (idx, old))
  end
  else None

let propose_opcode g pools (p : Program.t) =
  let idx = draw_active g p in
  if idx < 0 then None
  else
    match p.Program.slots.(idx) with
    | Program.Unused -> None
    | Program.Active i as old ->
      let info = Pools.op_info pools i.Instr.op in
      let peers = info.Pools.peers.(Instr.shape_index i) in
      (* the candidates are [peers] without the current opcode *)
      let cur = info.Pools.opcode in
      let n = ref 0 in
      for j = 0 to Array.length peers - 1 do
        if peers.(j) != cur then incr n
      done;
      if !n = 0 then None
      else begin
        let k = ref (Rng.Dist.int g !n) and pos = ref 0 in
        while !k > 0 || peers.(!pos) == cur do
          if peers.(!pos) != cur then decr k;
          incr pos
        done;
        replace p idx old (Instr.make_unchecked peers.(!pos) i.Instr.operands)
      end

let propose_operand g pools (p : Program.t) =
  let idx = draw_active g p in
  if idx < 0 then None
  else
    match p.Program.slots.(idx) with
    | Program.Unused -> None
    | Program.Active i as old ->
      let shape = Instr.shape i in
      if Array.length shape = 0 then None
      else begin
        let pos = Rng.Dist.int g (Array.length shape) in
        let pool = Pools.operands_of_kind pools shape.(pos) in
        if Array.length pool = 0 then None
        else begin
          let o = Rng.Dist.choose g pool in
          let operands = Array.copy i.Instr.operands in
          operands.(pos) <- o;
          replace p idx old (Instr.make_unchecked i.Instr.op operands)
        end
      end

let propose_swap g (p : Program.t) =
  let n = Array.length p.Program.slots in
  if n < 2 then None
  else begin
    let a = Rng.Dist.int g n in
    let b = Rng.Dist.int g n in
    if a = b then None
    else begin
      let tmp = p.Program.slots.(a) in
      p.Program.slots.(a) <- p.Program.slots.(b);
      p.Program.slots.(b) <- tmp;
      Some (Restore_swap (a, b))
    end
  end

let propose_instruction g pools (p : Program.t) =
  let n = Array.length p.Program.slots in
  if n = 0 then None
  else begin
    let idx = Rng.Dist.int g n in
    let old = p.Program.slots.(idx) in
    let replacement =
      if Rng.Dist.bool g then Program.Unused
      else Program.Active (Pools.random_instr g pools)
    in
    p.Program.slots.(idx) <- replacement;
    Some (Restore_slot (idx, old))
  end

let propose g pools p =
  let kind =
    match Rng.Dist.int g 4 with
    | 0 -> Opcode_move
    | 1 -> Operand_move
    | 2 -> Swap_move
    | _ -> Instruction_move
  in
  let result =
    match kind with
    | Opcode_move -> propose_opcode g pools p
    | Operand_move -> propose_operand g pools p
    | Swap_move -> propose_swap g p
    | Instruction_move -> propose_instruction g pools p
  in
  Option.map (fun u -> (kind, u)) result

let undo (p : Program.t) = function
  | Restore_slot (idx, old) -> p.Program.slots.(idx) <- old
  | Restore_swap (a, b) ->
    let tmp = p.Program.slots.(a) in
    p.Program.slots.(a) <- p.Program.slots.(b);
    p.Program.slots.(b) <- tmp
