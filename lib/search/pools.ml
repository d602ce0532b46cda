module Xset = Set.Make (struct
  type t = Reg.xmm

  let compare = Reg.compare_xmm
end)

module Gset = Set.Make (struct
  type t = Reg.gp

  let compare = Reg.compare_gp
end)

module I64set = Set.Make (Int64)

(* The opcode catalogue, built once for the whole program: every opcode
   of [Opcode.all] (indexed by [Opcode.index]) and each distinct shape
   numbered, so pools can file opcodes by shape.  It is read-only after
   initialisation, so every domain may share it. *)
let catalogue = Array.of_list Opcode.all

let shape_numbers = Hashtbl.create 64

let shape_ids =
  let id shape =
    match Hashtbl.find_opt shape_numbers shape with
    | Some i -> i
    | None ->
      let i = Hashtbl.length shape_numbers in
      Hashtbl.replace shape_numbers shape i;
      i
  in
  Array.map (fun op -> Array.map id (Shape.shape_array op)) catalogue

let n_shapes = Hashtbl.length shape_numbers

(* Per-opcode tables of one pool, so a proposal walks arrays instead of
   rebuilding lists: [peers.(j)] is [opcodes_with_shape] of
   [(Shape.shape_array op).(j)], and [instantiable] the shapes whose
   every kind has a non-empty operand pool, in order.  [opcode] and
   every [peers] entry are the catalogue's own values, so [==] compares
   them. *)
type op_info = {
  opcode : Opcode.t;
  peers : Opcode.t array array;
  instantiable : Shape.kind array array;
}

type t = {
  gp32 : Operand.t array;
  gp64 : Operand.t array;
  xmm : Operand.t array;
  imm8 : Operand.t array;
  imm32 : Operand.t array;
  imm64 : Operand.t array;
  mem32 : Operand.t array;
  mem64 : Operand.t array;
  mem128 : Operand.t array;
  opcodes : Opcode.t array;  (** opcodes with every shape-kind instantiable *)
  opcode_info : op_info array;  (** [opcode_info.(j)] describes [opcodes.(j)] *)
  info : op_info array;  (** indexed like [catalogue] *)
  by_shape : Opcode.t array array;  (** indexed by shape number *)
}

let scratch_gps = [ Reg.Rax; Reg.Rcx; Reg.Rdx ]
let scratch_xmms = [ Reg.Xmm0; Reg.Xmm1; Reg.Xmm2; Reg.Xmm3; Reg.Xmm4; Reg.Xmm5 ]

let collect target spec =
  let gps = ref (Gset.of_list scratch_gps) in
  let xmms = ref (Xset.of_list scratch_xmms) in
  let imm8s = ref (I64set.of_list [ 0L; 1L; 2L; 32L; 52L; 63L ]) in
  let imm32s = ref (I64set.of_list [ 0L; 1L; 2L; 1023L ]) in
  let imm64s = ref I64set.empty in
  let mems = ref [] in
  let add_operand o =
    match o with
    | Operand.Gp r -> gps := Gset.add r !gps
    | Operand.Xmm r -> xmms := Xset.add r !xmms
    | Operand.Imm v ->
      if Int64.compare v 0L >= 0 && Int64.compare v 255L <= 0 then
        imm8s := I64set.add v !imm8s;
      if Int64.compare v (-2147483648L) >= 0 && Int64.compare v 2147483647L <= 0
      then imm32s := I64set.add v !imm32s;
      imm64s := I64set.add v !imm64s
    | Operand.Mem m ->
      Option.iter (fun r -> gps := Gset.add r !gps) m.Operand.base;
      Option.iter (fun (r, _) -> gps := Gset.add r !gps) m.Operand.index;
      if not (List.exists (Operand.equal_mem m) !mems) then mems := m :: !mems
  in
  List.iter
    (fun (i : Instr.t) -> Array.iter add_operand i.Instr.operands)
    (Program.instrs target);
  (* Registers carrying live-in values must be available as operands. *)
  List.iter
    (fun fi ->
      match fi with
      | Sandbox.Spec.Fin_xmm_f64 (r, _)
      | Sandbox.Spec.Fin_xmm_f32 (r, _)
      | Sandbox.Spec.Fin_xmm_f32_hi (r, _) ->
        xmms := Xset.add r !xmms
      | Sandbox.Spec.Fin_mem_f32 _ | Sandbox.Spec.Fin_mem_f64 _ -> ())
    spec.Sandbox.Spec.float_inputs;
  List.iter
    (fun fx ->
      match fx with
      | Sandbox.Spec.Fix_gp (r, _) -> gps := Gset.add r !gps
      | Sandbox.Spec.Fix_mem _ -> ())
    spec.Sandbox.Spec.fixed_inputs;
  (!gps, !xmms, !imm8s, !imm32s, !imm64s, !mems)

let operands_of_kind p (k : Shape.kind) =
  match k with
  | Shape.K_gp Reg.L -> p.gp32
  | Shape.K_gp Reg.Q -> p.gp64
  | Shape.K_xmm -> p.xmm
  | Shape.K_imm8 -> p.imm8
  | Shape.K_imm32 -> p.imm32
  | Shape.K_imm64 -> p.imm64
  | Shape.K_mem Shape.M32 -> p.mem32
  | Shape.K_mem Shape.M64 -> p.mem64
  | Shape.K_mem Shape.M128 -> p.mem128

let shape_instantiable t shape =
  Array.for_all (fun k -> Array.length (operands_of_kind t k) > 0) shape

let make ~target ~spec =
  let gps, xmms, imm8s, imm32s, imm64s, mems = collect target spec in
  let gp_ops = Gset.elements gps |> List.map (fun r -> Operand.Gp r) in
  let pools_no_ops =
    {
      gp32 = Array.of_list gp_ops;
      gp64 = Array.of_list gp_ops;
      xmm = Array.of_list (Xset.elements xmms |> List.map (fun r -> Operand.Xmm r));
      imm8 = Array.of_list (I64set.elements imm8s |> List.map (fun v -> Operand.Imm v));
      imm32 =
        Array.of_list (I64set.elements imm32s |> List.map (fun v -> Operand.Imm v));
      imm64 =
        Array.of_list
          ((I64set.elements imm64s |> List.map (fun v -> Operand.Imm v))
          @ [ Operand.Imm 0L ]);
      mem32 = Array.of_list (List.map (fun m -> Operand.Mem m) mems);
      mem64 = Array.of_list (List.map (fun m -> Operand.Mem m) mems);
      mem128 = Array.of_list (List.map (fun m -> Operand.Mem m) mems);
      opcodes = [||];
      opcode_info = [||];
      info = [||];
      by_shape = [||];
    }
  in
  let instantiable =
    Array.map
      (fun op ->
        Array.of_list
          (List.filter (shape_instantiable pools_no_ops)
             (Array.to_list (Shape.shape_array op))))
      catalogue
  in
  let in_pool =
    List.filter (fun i -> Array.length instantiable.(i) > 0)
      (List.init (Array.length catalogue) Fun.id)
  in
  (* The opcodes of every shape at once: one pass over the pool
     opcodes, in pool order, files each under each of its shapes (once,
     even where an opcode lists a shape twice). *)
  let filed = Array.make n_shapes [] in
  List.iter
    (fun i ->
      Array.iter
        (fun id ->
          match filed.(id) with
          | last :: _ when last == catalogue.(i) -> ()
          | ops -> filed.(id) <- catalogue.(i) :: ops)
        shape_ids.(i))
    in_pool;
  let by_shape = Array.map (fun ops -> Array.of_list (List.rev ops)) filed in
  let info =
    Array.mapi
      (fun i opcode ->
        {
          opcode;
          peers = Array.map (fun id -> by_shape.(id)) shape_ids.(i);
          instantiable = instantiable.(i);
        })
      catalogue
  in
  { pools_no_ops with
    opcodes = Array.of_list (List.map (fun i -> catalogue.(i)) in_pool);
    opcode_info = Array.of_list (List.map (fun i -> info.(i)) in_pool);
    info;
    by_shape }

let op_info t op = t.info.(Opcode.index op)

let opcodes_with_shape t shape =
  match Hashtbl.find_opt shape_numbers shape with
  | Some id -> t.by_shape.(id)
  | None -> [||]

let all_opcodes t = t.opcodes

let random_instr g t =
  let j = Rng.Dist.int g (Array.length t.opcodes) in
  let op = t.opcodes.(j) in
  let candidates = t.opcode_info.(j).instantiable in
  let shape = candidates.(Rng.Dist.int g (Array.length candidates)) in
  let operands =
    Array.map (fun k -> Rng.Dist.choose g (operands_of_kind t k)) shape
  in
  Instr.make_unchecked op operands
