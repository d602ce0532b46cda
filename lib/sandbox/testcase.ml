(* A test case packed into one string: a sequence of entries in
   installation order — every GP entry, then every xmm entry, then every
   memory write — each a tag byte followed by its payload:

     gp   0 | reg index | value (8 bytes LE)
     xmm  1 | reg index | low quad, high quad (8 bytes LE each)
     mem  2 | address (8 bytes LE) | length (4 bytes LE) | the bytes

   One string header instead of a list cell, a tuple and a boxed int64
   per location: an f64 test case is 4 words instead of 19, and a search
   keeps thousands of them alive. *)

type t = string

let tag_gp = '\000'
let tag_xmm = '\001'
let tag_mem = '\002'

let gp_size = 10
let xmm_size = 18
let mem_header = 13

let rec size_of_mems acc = function
  | [] -> acc
  | (_, s) :: rest -> size_of_mems (acc + mem_header + String.length s) rest

let rec put_gps b pos = function
  | [] -> pos
  | (r, v) :: rest ->
    Bytes.set b pos tag_gp;
    Bytes.set_uint8 b (pos + 1) (Reg.gp_index r);
    Bytes.set_int64_le b (pos + 2) v;
    put_gps b (pos + gp_size) rest

let rec put_xmms b pos = function
  | [] -> pos
  | (r, (lo, hi)) :: rest ->
    Bytes.set b pos tag_xmm;
    Bytes.set_uint8 b (pos + 1) (Reg.xmm_index r);
    Bytes.set_int64_le b (pos + 2) lo;
    Bytes.set_int64_le b (pos + 10) hi;
    put_xmms b (pos + xmm_size) rest

let rec put_mems b pos = function
  | [] -> pos
  | (addr, s) :: rest ->
    Bytes.set b pos tag_mem;
    Bytes.set_int64_le b (pos + 1) addr;
    Bytes.set_int32_le b (pos + 9) (Int32.of_int (String.length s));
    Bytes.blit_string s 0 b (pos + mem_header) (String.length s);
    put_mems b (pos + mem_header + String.length s) rest

let make ~gps ~xmms ~mem_writes =
  let b =
    Bytes.create
      (size_of_mems
         ((gp_size * List.length gps) + (xmm_size * List.length xmms))
         mem_writes)
  in
  ignore (put_mems b (put_xmms b (put_gps b 0 gps) xmms) mem_writes);
  Bytes.unsafe_to_string b

let mem_length t pos = Int32.to_int (String.get_int32_le t (pos + 9)) land 0xffff_ffff

let entry_size t pos =
  match t.[pos] with
  | '\000' -> gp_size
  | '\001' -> xmm_size
  | _ -> mem_header + mem_length t pos

(* The entries with the given tag, decoded in order. *)
let entries tag decode t =
  let rec go pos acc =
    if pos >= String.length t then List.rev acc
    else
      go (pos + entry_size t pos)
        (if t.[pos] = tag then decode pos :: acc else acc)
  in
  go 0 []

let gps t =
  entries tag_gp
    (fun pos ->
      (Reg.gp_of_index (String.get_uint8 t (pos + 1)), String.get_int64_le t (pos + 2)))
    t

let xmms t =
  entries tag_xmm
    (fun pos ->
      ( Reg.xmm_of_index (String.get_uint8 t (pos + 1)),
        (String.get_int64_le t (pos + 2), String.get_int64_le t (pos + 10)) ))
    t

let mem_writes t =
  entries tag_mem
    (fun pos ->
      ( String.get_int64_le t (pos + 1),
        String.sub t (pos + mem_header) (mem_length t pos) ))
    t

let empty = make ~gps:[] ~xmms:[] ~mem_writes:[]

let f64_bytes x =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.bits_of_float x);
  Bytes.to_string b

let f32_bytes x =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.bits_of_float x);
  Bytes.to_string b

let f64_quad x = (Int64.bits_of_float x, 0L)
let f32_quad x = (Int64.logand (Int64.of_int32 (Int32.bits_of_float x)) 0xffff_ffffL, 0L)

let of_f64 pairs =
  make ~gps:[] ~xmms:(List.map (fun (r, x) -> (r, f64_quad x)) pairs) ~mem_writes:[]

let of_f32 pairs =
  make ~gps:[] ~xmms:(List.map (fun (r, x) -> (r, f32_quad x)) pairs) ~mem_writes:[]

let with_gp r v t = make ~gps:((r, v) :: gps t) ~xmms:(xmms t) ~mem_writes:(mem_writes t)
let with_xmm r v t = make ~gps:(gps t) ~xmms:((r, v) :: xmms t) ~mem_writes:(mem_writes t)
let with_f64 r x t = with_xmm r (f64_quad x) t
let with_f32 r x t = with_xmm r (f32_quad x) t

let with_f32_pair r (x0, x1) t =
  let lo =
    Int64.logor
      (Int64.logand (Int64.of_int32 (Int32.bits_of_float x0)) 0xffff_ffffL)
      (Int64.shift_left (Int64.of_int32 (Int32.bits_of_float x1)) 32)
  in
  with_xmm r (lo, 0L) t

let with_mem addr bytes t =
  make ~gps:(gps t) ~xmms:(xmms t) ~mem_writes:((addr, bytes) :: mem_writes t)

let with_mem_f32s addr floats t =
  with_mem addr (String.concat "" (List.map f32_bytes floats)) t

let with_mem_f64s addr floats t =
  with_mem addr (String.concat "" (List.map f64_bytes floats)) t

(* Decodes straight into the machine, entry by entry, allocating
   nothing. *)
let apply t (m : Machine.t) =
  let n = String.length t in
  let pos = ref 0 in
  while !pos < n do
    let p = !pos in
    match String.unsafe_get t p with
    | '\000' ->
      m.Machine.gp.(String.get_uint8 t (p + 1)) <- String.get_int64_le t (p + 2);
      pos := p + gp_size
    | '\001' ->
      let k = 2 * String.get_uint8 t (p + 1) in
      m.Machine.xmm.(k) <- String.get_int64_le t (p + 2);
      m.Machine.xmm.(k + 1) <- String.get_int64_le t (p + 10);
      pos := p + xmm_size
    | _ ->
      let len = mem_length t p in
      Memory.set_substring m.Machine.mem (String.get_int64_le t (p + 1)) t
        (p + mem_header) len;
      pos := p + mem_header + len
  done
