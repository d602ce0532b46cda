type frange = {
  lo : float;
  hi : float;
}

type float_input =
  | Fin_xmm_f64 of Reg.xmm * frange
  | Fin_xmm_f32 of Reg.xmm * frange
  | Fin_xmm_f32_hi of Reg.xmm * frange
  | Fin_mem_f32 of int64 * frange
  | Fin_mem_f64 of int64 * frange

type fixed_input =
  | Fix_gp of Reg.gp * int64
  | Fix_mem of int64 * string

type output =
  | Out_xmm_f64 of Reg.xmm
  | Out_xmm_f32 of Reg.xmm
  | Out_xmm_f32_hi of Reg.xmm
  | Out_gp of Reg.gp

type t = {
  name : string;
  program : Program.t;
  float_inputs : float_input list;
  fixed_inputs : fixed_input list;
  outputs : output list;
  mem_size : int;
}

let make ~name ~program ?(float_inputs = []) ?(fixed_inputs = []) ~outputs
    ?(mem_size = 4096) () =
  { name; program; float_inputs; fixed_inputs; outputs; mem_size }

let arity t = List.length t.float_inputs

let range_of = function
  | Fin_xmm_f64 (_, r)
  | Fin_xmm_f32 (_, r)
  | Fin_xmm_f32_hi (_, r)
  | Fin_mem_f32 (_, r)
  | Fin_mem_f64 (_, r) ->
    r

let input_ranges t = Array.of_list (List.map range_of t.float_inputs)

(* The location lists are built exactly as the [Testcase.with_*]
   builders would build them (each new location at the head), then packed
   once. *)
let testcase_of_floats t xs =
  if Array.length xs <> arity t then
    invalid_arg "Spec.testcase_of_floats: arity mismatch";
  let f32_bits x = Int64.logand (Int64.of_int32 (Int32.bits_of_float x)) 0xffff_ffffL in
  let xmms = ref [] and mems = ref [] and gps = ref [] in
  List.iteri
    (fun idx input ->
      let x = xs.(idx) in
      match input with
      | Fin_xmm_f64 (r, _) -> xmms := (r, (Int64.bits_of_float x, 0L)) :: !xmms
      | Fin_xmm_f32 (r, _) ->
        (* Preserve a previously-set high dword (f32 pair inputs). *)
        (match List.assoc_opt r !xmms with
         | Some (lo, hi) ->
           let lo' = Int64.logor (Int64.logand lo 0xffff_ffff_0000_0000L) (f32_bits x) in
           xmms := (r, (lo', hi)) :: List.remove_assoc r !xmms
         | None -> xmms := (r, (f32_bits x, 0L)) :: !xmms)
      | Fin_xmm_f32_hi (r, _) ->
        let lo0, hi0 =
          match List.assoc_opt r !xmms with
          | Some v -> v
          | None -> (0L, 0L)
        in
        let lo' =
          Int64.logor
            (Int64.logand lo0 0x0000_0000_ffff_ffffL)
            (Int64.shift_left (f32_bits x) 32)
        in
        xmms := (r, (lo', hi0)) :: List.remove_assoc r !xmms
      | Fin_mem_f32 (addr, _) -> mems := (addr, Testcase.f32_bytes x) :: !mems
      | Fin_mem_f64 (addr, _) -> mems := (addr, Testcase.f64_bytes x) :: !mems)
    t.float_inputs;
  List.iter
    (fun fixed ->
      match fixed with
      | Fix_gp (r, v) -> gps := (r, v) :: !gps
      | Fix_mem (addr, s) -> mems := (addr, s) :: !mems)
    t.fixed_inputs;
  Testcase.make ~gps:!gps ~xmms:!xmms ~mem_writes:!mems

let random_floats g t =
  Array.map (fun r -> Rng.Dist.uniform g r.lo r.hi) (input_ranges t)

let random_testcase g t = testcase_of_floats t (random_floats g t)

let live_out_set t =
  List.fold_left
    (fun acc o ->
      match o with
      | Out_xmm_f64 r | Out_xmm_f32 r | Out_xmm_f32_hi r ->
        Liveness.Locset.add (Liveness.Lxmm r) acc
      | Out_gp r -> Liveness.Locset.add (Liveness.Lgp r) acc)
    Liveness.Locset.empty t.outputs

let live_in_set t =
  let acc =
    List.fold_left
      (fun acc i ->
        match i with
        | Fin_xmm_f64 (r, _) | Fin_xmm_f32 (r, _) | Fin_xmm_f32_hi (r, _) ->
          Liveness.Locset.add (Liveness.Lxmm r) acc
        | Fin_mem_f32 _ | Fin_mem_f64 _ -> Liveness.Locset.add Liveness.Lmem acc)
      Liveness.Locset.empty t.float_inputs
  in
  List.fold_left
    (fun acc i ->
      match i with
      | Fix_gp (r, _) -> Liveness.Locset.add (Liveness.Lgp r) acc
      | Fix_mem _ -> Liveness.Locset.add Liveness.Lmem acc)
    acc t.fixed_inputs

type value =
  | Vf64 of float
  | Vf32 of float
  | Vi64 of int64

let read_outputs t (m : Machine.t) =
  List.map
    (fun o ->
      match o with
      | Out_xmm_f64 r -> Vf64 (Machine.get_f64 m r)
      | Out_xmm_f32 r -> Vf32 (Machine.get_f32 m r)
      | Out_xmm_f32_hi r -> Vf32 (Machine.get_f32_hi m r)
      | Out_gp r -> Vi64 (Machine.get_gp m r))
    t.outputs
  |> Array.of_list

let value_ulp a b =
  match a, b with
  | Vf64 x, Vf64 y -> Fpbits.Ulp.dist64 x y
  | Vf32 x, Vf32 y -> Fpbits.Ulp.dist32 x y
  | Vi64 x, Vi64 y ->
    let d = Int64.sub x y in
    if Int64.compare d 0L >= 0 then d else Int64.neg d
  | (Vf64 _ | Vf32 _ | Vi64 _), _ ->
    invalid_arg "Spec.value_ulp: mismatched value types"

let value_to_string = function
  | Vf64 x -> Printf.sprintf "f64:%h" x
  | Vf32 x -> Printf.sprintf "f32:%h" x
  | Vi64 x -> Printf.sprintf "i64:%Ld" x
