(* The four state words live unboxed in one 32-byte buffer: a record of
   mutable int64 fields would box a fresh int64 on each of the six state
   writes of every draw.  The buffer is private, so native byte order is
   fine. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let make s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 8 s1;
  set t 16 s2;
  set t 24 s3;
  t

let create seed =
  let sm = Splitmix64.create seed in
  let s0 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s3 = Splitmix64.next sm in
  make s0 s1 s2 s3

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let next t =
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let tt = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  set t 0 s0;
  set t 8 s1;
  set t 16 (Int64.logxor s2 tt);
  set t 24 (rotl s3 45);
  result

let copy t = Bytes.copy t

let state t = [| get t 0; get t 8; get t 16; get t 24 |]

let of_state s =
  if Array.length s <> 4 then
    invalid_arg "Xoshiro256.of_state: need exactly 4 state words";
  if Array.for_all (Int64.equal 0L) s then
    invalid_arg "Xoshiro256.of_state: the all-zero state is not reachable";
  make s.(0) s.(1) s.(2) s.(3)

let split t = create (next t)
