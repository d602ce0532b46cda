type mw = M32 | M64 | M128

type kind =
  | K_gp of Reg.w
  | K_xmm
  | K_imm8
  | K_imm32
  | K_imm64
  | K_mem of mw

let kind_matches kind operand =
  match kind, operand with
  | K_gp _, Operand.Gp _ -> true
  | K_xmm, Operand.Xmm _ -> true
  | K_imm8, Operand.Imm i -> Int64.compare i 0L >= 0 && Int64.compare i 255L <= 0
  | K_imm32, Operand.Imm i ->
    Int64.compare i (-2147483648L) >= 0 && Int64.compare i 2147483647L <= 0
  | K_imm64, Operand.Imm _ -> true
  | K_mem _, Operand.Mem _ -> true
  | (K_gp _ | K_xmm | K_imm8 | K_imm32 | K_imm64 | K_mem _), _ -> false

(* Shape shorthands.  AT&T order: sources first, destination last. *)

let rr w = [| K_gp w; K_gp w |]
let mr w m = [| K_mem m; K_gp w |]
let rm w m = [| K_gp w; K_mem m |]
let ir w = [| K_imm32; K_gp w |]
let mw_of_w = function
  | Reg.L -> M32
  | Reg.Q -> M64

let gp_alu w = [ rr w; mr w (mw_of_w w); rm w (mw_of_w w); ir w ]

let xx = [| K_xmm; K_xmm |]
let mx m = [| K_mem m; K_xmm |]
let xm m = [| K_xmm; K_mem m |]

let sse_scalar m = [ xx; mx m ]
let sse_packed = [ xx; mx M128 ]
let avx3 m = [ [| K_xmm; K_xmm; K_xmm |]; [| K_mem m; K_xmm; K_xmm |] ]
let shuffle = [ [| K_imm8; K_xmm; K_xmm |] ]
let vshift = [ [| K_imm8; K_xmm |] ]

let shapes : Opcode.t -> kind array list = function
  | Mov w -> [ rr w; mr w (mw_of_w w); rm w (mw_of_w w); ir w; [| K_imm32; K_mem (mw_of_w w) |] ]
  | Movabs -> [ [| K_imm64; K_gp Reg.Q |] ]
  | Lea w -> [ mr w M64 ]
  | Add w | Sub w | And w | Or w | Xor w -> gp_alu w
  | Imul w -> [ rr w; mr w (mw_of_w w) ]
  | Not w | Neg w | Inc w | Dec w -> [ [| K_gp w |] ]
  | Shl w | Shr w | Sar w -> [ [| K_imm8; K_gp w |] ]
  | Cmp w | Test w -> [ rr w; ir w; mr w (mw_of_w w) ]
  | Cmov (_, w) -> [ rr w; mr w (mw_of_w w) ]
  | Setcc _ -> [ [| K_gp Reg.L |] ]
  | Movss -> [ xx; mx M32; xm M32 ]
  | Movsd -> [ xx; mx M64; xm M64 ]
  | Movaps | Movups -> [ xx; mx M128; xm M128 ]
  | Lddqu -> [ mx M128 ]
  | Movq ->
    [ xx; [| K_gp Reg.Q; K_xmm |]; [| K_xmm; K_gp Reg.Q |]; mx M64; xm M64 ]
  | Movd -> [ [| K_gp Reg.L; K_xmm |]; [| K_xmm; K_gp Reg.L |] ]
  | Movlhps | Movhlps -> [ xx ]
  | Addss | Subss | Mulss | Divss | Sqrtss | Minss | Maxss -> sse_scalar M32
  | Addsd | Subsd | Mulsd | Divsd | Sqrtsd | Minsd | Maxsd -> sse_scalar M64
  | Ucomiss | Comiss -> sse_scalar M32
  | Ucomisd | Comisd -> sse_scalar M64
  | Andps | Andpd | Andnps | Orps | Orpd | Xorps | Xorpd | Pand | Por | Pxor
  | Paddd | Paddq | Psubd | Psubq ->
    sse_packed
  | Addps | Addpd | Subps | Subpd | Mulps | Mulpd | Divps | Divpd | Minps
  | Maxps ->
    sse_packed
  | Shufps | Pshufd | Pshuflw -> shuffle
  | Punpckldq | Punpcklqdq | Unpcklps | Unpcklpd -> [ xx ]
  | Pslld | Psrld | Psllq | Psrlq -> vshift
  | Cvtss2sd -> sse_scalar M32
  | Cvtsd2ss -> sse_scalar M64
  | Cvtsi2sd w | Cvtsi2ss w -> [ [| K_gp w; K_xmm |]; mx (mw_of_w w) ]
  | Cvttsd2si w | Cvttss2si w | Cvtsd2si w -> [ [| K_xmm; K_gp w |] ]
  | Roundsd | Roundss -> [ [| K_imm8; K_xmm; K_xmm |] ]
  | Vaddss | Vsubss | Vmulss | Vdivss | Vminss | Vmaxss -> avx3 M32
  | Vaddsd | Vsubsd | Vmulsd | Vdivsd | Vminsd | Vmaxsd | Vsqrtsd -> avx3 M64
  | Vaddps | Vsubps | Vmulps | Vaddpd | Vmulpd | Vxorps | Vandps | Vunpcklps ->
    avx3 M128
  | Vpshuflw -> [ [| K_imm8; K_xmm; K_xmm |]; [| K_imm8; K_mem M128; K_xmm |] ]
  | Vfmadd132sd | Vfmadd213sd | Vfmadd231sd | Vfnmadd213sd | Vfnmadd231sd
  | Vfmsub213sd ->
    avx3 M64
  | Vfmadd132ss | Vfmadd213ss | Vfmadd231ss -> avx3 M32

let equal_kind a b =
  match a, b with
  | K_gp w1, K_gp w2 -> w1 = w2
  | K_xmm, K_xmm -> true
  | K_imm8, K_imm8 -> true
  | K_imm32, K_imm32 -> true
  | K_imm64, K_imm64 -> true
  | K_mem m1, K_mem m2 -> m1 = m2
  | (K_gp _ | K_xmm | K_imm8 | K_imm32 | K_imm64 | K_mem _), _ -> false

let equal_shape a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri (fun i k -> if not (equal_kind k b.(i)) then ok := false) a;
      !ok)

(* [shapes op] as arrays for every opcode, built once and indexed by
   [Opcode.index], so the lookups below rebuild no shape lists. *)
let table =
  Array.of_list (List.map (fun op -> Array.of_list (shapes op)) Opcode.all)

let shape_array op = table.(Opcode.index op)

let fits shape (operands : Operand.t array) =
  Array.length shape = Array.length operands
  &&
  let rec go j = j < 0 || (kind_matches shape.(j) operands.(j) && go (j - 1)) in
  go (Array.length shape - 1)

let shape_index op operands =
  let shapes = shape_array op in
  let n = Array.length shapes in
  let rec go j = if j = n then -1 else if fits shapes.(j) operands then j else go (j + 1) in
  go 0

let shape_of op operands =
  let j = shape_index op operands in
  if j < 0 then None else Some (shape_array op).(j)

let kind_to_string = function
  | K_gp Reg.L -> "r32"
  | K_gp Reg.Q -> "r64"
  | K_xmm -> "xmm"
  | K_imm8 -> "imm8"
  | K_imm32 -> "imm32"
  | K_imm64 -> "imm64"
  | K_mem M32 -> "m32"
  | K_mem M64 -> "m64"
  | K_mem M128 -> "m128"
