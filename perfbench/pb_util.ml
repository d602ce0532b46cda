(* Shared helpers: clocks, seeded derivation, order statistics, the
   metric table every workload fills, and the result line. *)

let now_ns () = Obs.Clock.now_ns ()
let secs_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, secs_since t0)

(* The kernel registry the CLI and the daemon serve. *)
let registry =
  Kernels.Libimf.all
  @ [ ("s3d_exp", Kernels.S3d.exp_spec) ]
  @ Kernels.Aek_kernels.all_specs

let spec_of name =
  match List.assoc_opt name registry with
  | Some s -> s
  | None -> failwith ("unknown kernel " ^ name)

(* Every input choice is drawn from one generator seeded by the workload
   seed, so the same seed gives the same jobs, tests and request mix. *)
let gen_of_seed seed = Rng.Xoshiro256.create (Int64.of_int (0x5eed0 + seed))

(* A positive job seed that fits the serve protocol's int fields. *)
let draw_seed g = 1 + Rng.Dist.int g 1_000_000_000

(* The inputs of round [i] of a workload: [first], then one [draw g] per
   later round, drawn on first use so a run draws only what it runs. *)
let stream g first draw =
  let rounds = ref [| first |] in
  fun i ->
    while Array.length !rounds <= i do
      rounds := Array.append !rounds [| draw g |]
    done;
    !rounds.(i)

(* ---------- order statistics ---------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* The middle value, or the mean of the two middle values: rounds whose
   times fall in two clusters must not make it jump between them. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type tail = {
  value : float;
  pct : float;  (** percentile the value sits at *)
  beyond : int;  (** samples strictly past it *)
  n : int;
}

(* The highest percentile with at least ten samples beyond it.  With
   fewer than twenty samples no percentile at or above the median has
   ten beyond it; the median is reported, and [beyond] says how thin the
   tail is. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then { value = 0.; pct = 0.; beyond = 0; n }
  else if n >= 20 then
    let k = n - 10 in
    { value = a.(k - 1); pct = 100. *. float_of_int k /. float_of_int n;
      beyond = 10; n }
  else
    let k = (n + 1) / 2 in
    { value = a.(k - 1); pct = 100. *. float_of_int k /. float_of_int n;
      beyond = n - k; n }

let sum xs = List.fold_left ( +. ) 0. xs

let geomean = function
  | [] -> 0.
  | xs ->
    exp (sum (List.map log xs) /. float_of_int (List.length xs))

let ratio a b = if b = 0. then 0. else a /. b

(* ---------- metrics and the result line ---------- *)

(* What a workload's run hands back to be reported. *)
type summary = {
  setup_s : float;  (** median set-up *)
  wall : float;  (** median round *)
  work : int;  (** units of work in one round: proposals, verdicts, requests *)
  latencies : float list;  (** every job's latency *)
  attempted : int;
  errors : string list;
  layers : (string * float) list;  (** per-layer values of a traced run *)
}

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* Human-readable context lines (percentile bases, error-rate base,
   reconciliation) go to stdout before the result line. *)
let note fmt = Printf.ksprintf (fun s -> print_endline s) fmt

let print_table title metrics =
  note "== %s" title;
  List.iter
    (fun x -> note "  %-34s %16.9g %s" x.name x.value x.unit_)
    metrics

let finite x = if Float.is_finite x then x else 0.

let result_line ~correct ~attempted ~failed metrics =
  let open Obs.Json in
  to_string
    (Obj
       [
         ("correct", Bool correct);
         ("attempted", Int attempted);
         ("failed", Int failed);
         ( "metrics",
           Obj
             (List.map
                (fun x ->
                  ( x.name,
                    Obj
                      [ ("value", Float (finite x.value));
                        ("unit", String x.unit_) ] ))
                metrics) );
       ])

(* ---------- process ---------- *)

(* Peak resident set of this process, from the kernel's high-water
   mark. *)
let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:"
            ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d" (fun kb -> float_of_int kb /. 1024.)
          | _ -> go ()
          | exception End_of_file -> 0.
        in
        go ())
  with Sys_error _ -> 0.

(* Output directory for traces and the serve workload's state, inside the
   checkout the benchmark runs in. *)
let out_dir = Filename.concat "perfbench" "_out"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
