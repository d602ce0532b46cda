type slot =
  | Unused
  | Active of Instr.t

type t = { slots : slot array }

let of_instrs instrs =
  { slots = Array.of_list (List.map (fun i -> Active i) instrs) }

let with_padding extra instrs =
  if extra < 0 then invalid_arg "Program.with_padding: negative padding";
  let active = List.map (fun i -> Active i) instrs in
  { slots = Array.of_list (active @ List.init extra (fun _ -> Unused)) }

let instrs t =
  Array.to_list t.slots
  |> List.filter_map (function
       | Unused -> None
       | Active i -> Some i)

let length t =
  Array.fold_left
    (fun acc slot ->
      match slot with
      | Unused -> acc
      | Active _ -> acc + 1)
    0 t.slots

let slot_count t = Array.length t.slots

let copy t = { slots = Array.copy t.slots }

(* 64-bit FNV-1a over a canonical encoding of the slots.  Quality only
   affects the cost-cache hit rate — lookups verify with [equal] — but the
   encoding is injective per slot up to int64 mixing, so collisions are
   ~2^-64 per pair.

   The values are persistent keys (the cost cache, the daemon's memo and
   checkpoint names), so the encoding below must never change.  It is
   written as plain loops over one local accumulator, with [mix] inlined,
   so the accumulator stays unboxed and a call allocates nothing but its
   result. *)
let fnv_prime = 0x100000001b3L

let[@inline] mix h x = Int64.mul (Int64.logxor h x) fnv_prime
let[@inline] mix_int h i = mix h (Int64.of_int i)

let hash t =
  let slots = t.slots in
  let h = ref 0xcbf29ce484222325L in
  for k = 0 to Array.length slots - 1 do
    match Array.unsafe_get slots k with
    | Unused -> h := mix_int !h 0
    | Active i ->
      h := mix_int !h (1 + Hashtbl.hash i.Instr.op);
      let ops = i.Instr.operands in
      for j = 0 to Array.length ops - 1 do
        match Array.unsafe_get ops j with
        | Operand.Gp r -> h := mix_int !h (2 + Reg.gp_index r)
        | Operand.Xmm r -> h := mix_int !h (32 + Reg.xmm_index r)
        | Operand.Imm v -> h := mix (mix_int !h 64) v
        | Operand.Mem m ->
          h := mix_int !h 65;
          h :=
            mix_int !h
              (match m.Operand.base with
               | None -> 0
               | Some r -> 1 + Reg.gp_index r);
          (match m.Operand.index with
           | None -> h := mix_int !h 0
           | Some (r, s) -> h := mix_int (mix_int !h (1 + Reg.gp_index r)) s);
          h := mix_int !h m.Operand.disp
      done
  done;
  !h

(* Slots shared with a copy are physically equal, so [==] settles most
   of them before the structural comparison. *)
let equal a b =
  let n = Array.length a.slots in
  n = Array.length b.slots
  &&
  let rec go k =
    k = n
    ||
    let same =
      match a.slots.(k), b.slots.(k) with
      | Unused, Unused -> true
      | Active x, Active y -> x == y || Instr.equal x y
      | (Unused | Active _), _ -> false
    in
    same && go (k + 1)
  in
  go 0

let to_string t =
  instrs t |> List.map Instr.to_string |> String.concat "\n"

let pp ppf t = Format.pp_print_string ppf (to_string t)
