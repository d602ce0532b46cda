(* The [check] workload: one verdict at a time for each kernel/rewrite
   pair of the repository's verify baseline.  A verdict is the static
   check ([Stoke.verify] with a deterministic box budget) followed by a
   seeded MCMC validation ([Stoke.validate]) on the compiled engine, with
   a budget capped well below the default so every verdict ends in
   seconds while the pairs that never mix still run several Geweke
   checks.  No proposals run here. *)

open Pb_util

(* The rewrites the repository ships next to their specs; kernels without
   one are checked against themselves. *)
let shipped_rewrites =
  [
    ("sin", ("sin_assoc", Kernels.Libimf.sin_assoc_rewrite));
    ("scale", ("scale_rewrite", Kernels.Aek_kernels.scale_rewrite));
    ("dot", ("dot_rewrite", Kernels.Aek_kernels.dot_rewrite));
    ("add", ("add_rewrite", Kernels.Aek_kernels.add_rewrite));
    ("delta", ("delta_rewrite", Kernels.Aek_kernels.delta_rewrite));
  ]

let baseline_path = Filename.concat "bench" "verify_baseline.json"

(* The expected answer of a pair, as checked in with the repository. *)
type expected = { bitwise : bool; tier : string; sound : float option }

type pair = {
  kernel : string;
  label : string;
  spec : Sandbox.Spec.t;
  rewrite : Program.t;
  expected : expected;
  vconfig : Validate.Driver.config;
}

let taylor = { Verify.Bbound.default_config with Verify.Bbound.timeout_s = 0. }

(* Geweke checks at 20k, 40k, ..., 100k samples: the pairs that do not
   mix run five of them. *)
let validation_cap = 100_000
let min_samples = 20_000
let check_every = 20_000

let load_baseline () =
  let ic = open_in_bin baseline_path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let open Obs.Json in
  let rows =
    match Option.bind (member "rows" (of_string_exn text)) to_list_opt with
    | Some l -> l
    | None -> failwith (baseline_path ^ ": no rows")
  in
  let str k j =
    match Option.bind (member k j) to_string_opt with
    | Some s -> s
    | None -> failwith (baseline_path ^ ": row without " ^ k)
  in
  List.map
    (fun j ->
      ( (str "kernel" j, str "rewrite" j),
        {
          bitwise = str "bitwise" j = "yes";
          tier = str "tier" j;
          sound = Option.bind (member "sound_ulps" j) to_float_opt;
        } ))
    rows

(* One round's verdicts: every round checks the same pairs, with fresh
   validation seeds drawn from the workload seed's stream. *)
let make_pairs baseline g =
  List.map
    (fun ((kernel, label), expected) ->
      let spec = spec_of kernel in
      let rewrite =
        match List.assoc_opt kernel shipped_rewrites with
        | Some (l, p) when l = label -> p
        | _ when label = "self" -> spec.Sandbox.Spec.program
        | _ -> failwith ("no shipped rewrite " ^ label)
      in
      let vconfig =
        { Validate.Driver.default_config with
          Validate.Driver.max_proposals = validation_cap;
          min_samples;
          check_every;
          seed = Int64.of_int (draw_seed g) }
      in
      { kernel; label; spec; rewrite; expected; vconfig })
    baseline

(* Set-up ends with a short validation of every pair, so lazy
   initialisation and cold caches are paid before timing. *)
let setup seed =
  let g = gen_of_seed seed in
  let make_pairs = make_pairs (load_baseline ()) in
  let first = make_pairs g in
  List.iter
    (fun p ->
      ignore
        (Stoke.validate
           ~config:{ p.vconfig with Validate.Driver.max_proposals = 2_000 }
           ~engine:Sandbox.Exec.Compiled ~eta:Ulp.zero p.spec p.rewrite))
    first;
  Pb_util.stream g first make_pairs

let tier_of_outcome = function
  | Verify.Verifier.Proved_bitwise -> "bitwise"
  | Verify.Verifier.Taylor_bound _ -> "taylor"
  | Verify.Verifier.Static_bound _ -> "interval"
  | Verify.Verifier.Refuted_bitwise | Verify.Verifier.Not_verifiable _ -> "-"

(* ---------- output check ---------- *)

(* Largest absolute output difference between target and rewrite at one
   input, on the reference interpreter (infinite when either faults). *)
let abs_error_at spec rewrite xs =
  let tc = Sandbox.Spec.testcase_of_floats spec xs in
  let run p =
    let m, r =
      Sandbox.Exec.run_testcase ~mem_size:spec.Sandbox.Spec.mem_size p tc
    in
    match r.Sandbox.Exec.outcome with
    | Sandbox.Exec.Finished -> Some (Sandbox.Spec.read_outputs spec m)
    | Sandbox.Exec.Faulted _ -> None
  in
  match (run spec.Sandbox.Spec.program, run rewrite) with
  | Some vt, Some vr ->
    let worst = ref 0. in
    Array.iter2
      (fun a b ->
        match (a, b) with
        | Sandbox.Spec.Vf64 x, Sandbox.Spec.Vf64 y
        | Sandbox.Spec.Vf32 x, Sandbox.Spec.Vf32 y ->
          worst := Float.max !worst (Float.abs (x -. y))
        | _ -> worst := Float.infinity)
      vt vr;
    !worst
  | _ -> Float.infinity

(* The analysis reports absolute error divided by the ULP size at the
   target's output magnitude; the observed error is converted to the same
   scaled ULPs before the two are compared. *)
let scaled_ulp_unit spec outcome =
  let range =
    match outcome with
    | Verify.Verifier.Taylor_bound a -> Some a.Verify.Taylor.target_range
    | Verify.Verifier.Static_bound a -> Some a.Verify.Interval.target_range
    | _ -> None
  in
  Option.map
    (fun r ->
      let single =
        List.exists
          (Verify.Interval.single_output spec)
          (List.init (List.length spec.Sandbox.Spec.outputs) Fun.id)
      in
      Verify.Interval.ulp_size_at (Verify.Interval.mag r) ~single)
    range

let check_verdict p outcome (v : Validate.Driver.verdict) =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let tier = tier_of_outcome outcome in
  if tier <> p.expected.tier then
    err "tier %s, baseline %s" tier p.expected.tier;
  let sound = Verify.Verifier.sound_ulps outcome in
  (match (sound, p.expected.sound) with
   | Some s, Some b when Float.abs (s -. b) <= 1e-9 *. Float.max 1. b -> ()
   | None, None -> ()
   | s, b ->
     let show = function None -> "none" | Some x -> Printf.sprintf "%.17g" x in
     err "sound bound %s, baseline %s" (show s) (show b));
  let symbolic =
    match Verify.Symbolic.equivalent p.spec ~rewrite:p.rewrite with
    | Ok b -> b
    | Error _ -> false
  in
  if symbolic <> p.expected.bitwise then
    err "bit-wise equivalence %b, baseline %b" symbolic p.expected.bitwise;
  if p.expected.bitwise then begin
    if Ulp.compare v.Validate.Driver.max_err Ulp.zero <> 0 then
      err "bit-wise pair observed %s ULPs" (Ulp.to_string v.Validate.Driver.max_err)
  end
  else begin
    match (scaled_ulp_unit p.spec outcome, p.expected.sound) with
    | Some unit_size, Some bound ->
      let observed =
        abs_error_at p.spec p.rewrite v.Validate.Driver.max_err_input
        /. unit_size
      in
      if not (observed <= bound) then
        err "observed %.6g scaled ULPs above the sound bound %.6g" observed
          bound
    | _ -> err "no sound bound to compare the observed error with"
  end;
  List.rev !errs

(* ---------- probes ---------- *)

(* [Errfn.eval_both] per call, over random inputs from the spec's
   ranges. *)
let probe_errfn g p =
  let ef = Validate.Errfn.create ~engine:Sandbox.Exec.Compiled p.spec ~rewrite:p.rewrite in
  let inputs = Array.init 2000 (fun _ -> Sandbox.Spec.random_floats g p.spec) in
  let t0 = now_ns () in
  Array.iter (fun xs -> ignore (Validate.Errfn.eval_both ef xs)) inputs;
  Int64.to_float (Int64.sub (now_ns ()) t0) /. float_of_int (Array.length inputs)

(* [Geweke.z_statistic] at each chain length [Validate.Driver] checked; its cost
   depends on the length, not the values. *)
let probe_geweke g lengths =
  List.fold_left
    (fun acc n ->
      let chain = Array.init n (fun _ -> Rng.Dist.float g 1.0) in
      let t0 = now_ns () in
      ignore (Stats.Geweke.z_statistic chain);
      acc +. Int64.to_float (Int64.sub (now_ns ()) t0))
    0. lengths

(* ---------- per-pair reconciliation ---------- *)

let pair_key p what = Printf.sprintf "pair.%s/%s.%s" p.kernel p.label what

(* The probe shares of each pair's [Stoke.validate] time, so a pair whose
   time Geweke dominates shows as such rather than inside an average over
   all pairs. *)
let reconcile_pairs tr pairs =
  note "  reconciliation per pair (share of the pair's Stoke.validate time):";
  List.iter
    (fun p ->
      let get what = Pb_trace.get tr (pair_key p what) in
      let validate = get "validate_ns" in
      note
        "    %-22s validate %8.2f ms/verdict: Errfn %5.1f%%, Geweke %5.1f%%, \
         remainder %5.1f%%; %.0f of %.0f verdicts ran to the cap"
        (p.kernel ^ "/" ^ p.label)
        (ratio validate (get "verdicts") /. 1e6)
        (100. *. ratio (get "errfn_ns") validate)
        (100. *. ratio (get "geweke_ns") validate)
        (100. *. (1. -. ratio (get "errfn_ns" +. get "geweke_ns") validate))
        (get "capped") (get "verdicts"))
    pairs

(* ---------- the workload ---------- *)

type outcome = {
  wall : float;
  verdicts : (string * float * int) list;
      (** pair, latency, validation samples *)
  errors : string list;
  attempted : int;
}

let run_round ?trace pairs =
  let verdicts = ref [] and errors = ref [] in
  let fail p e =
    errors := Printf.sprintf "%s/%s: %s" p.kernel p.label e :: !errors
  in
  List.iter
    (fun p ->
      try
      let geweke_lengths = ref [] in
      let obs =
        match trace with
        | None -> Obs.Sink.null
        | Some _ ->
          Obs.Sink.callback (fun ev ->
              if ev.Obs.Sink.name = "geweke" then
                match
                  Option.bind
                    (List.assoc_opt "n_samples" ev.Obs.Sink.fields)
                    Obs.Json.to_int_opt
                with
                | Some n -> geweke_lengths := n :: !geweke_lengths
                | None -> ())
      in
      let verify () = Stoke.verify ~taylor ~eta:Ulp.zero p.spec p.rewrite in
      let validate () =
        Stoke.validate ~config:p.vconfig ~obs ~engine:Sandbox.Exec.Compiled
          ~eta:Ulp.zero p.spec p.rewrite
      in
      let (outcome, v), dt =
        match trace with
        | None ->
          time (fun () ->
              let o = verify () in
              (o, validate ()))
        | Some tr ->
          time (fun () ->
              Pb_trace.span tr (Pb_trace.name tr "check.verdict") (fun () ->
                  let sp = Pb_trace.enter tr (Pb_trace.name tr "verify.verifier") in
                  let o = verify () in
                  Pb_trace.leave tr sp
                    ~as_:(Pb_trace.name tr ("verify.verifier." ^ tier_of_outcome o));
                  let v, v_s =
                    Pb_trace.span tr (Pb_trace.name tr "validate.driver") (fun () ->
                        time validate)
                  in
                  Pb_trace.add tr (pair_key p "validate_ns") (v_s *. 1e9);
                  (o, v)))
      in
      verdicts :=
        (p.kernel ^ "/" ^ p.label, dt, v.Validate.Driver.iterations) :: !verdicts;
      (match trace with
       | None -> ()
       | Some tr ->
         (match outcome with
          | Verify.Verifier.Taylor_bound a ->
            Pb_trace.count tr "verify.taylor_boxes" a.Verify.Taylor.boxes_explored
          | _ -> ());
         let g = Rng.Xoshiro256.create p.vconfig.Validate.Driver.seed in
         let samples = v.Validate.Driver.iterations + 1 in
         Pb_trace.count tr "validate.samples" samples;
         let errfn_ns = probe_errfn g p in
         let errfn_model = errfn_ns *. float_of_int samples in
         Pb_trace.add tr "validate.errfn_probe.ns" errfn_ns;
         Pb_trace.count tr "validate.errfn_probe.calls" 1;
         Pb_trace.add tr "validate.errfn_model.ns" errfn_model;
         let geweke_ns = probe_geweke g !geweke_lengths in
         Pb_trace.add tr "stats.geweke.ns" geweke_ns;
         Pb_trace.count tr "stats.geweke.calls" (List.length !geweke_lengths);
         Pb_trace.add tr (pair_key p "errfn_ns") errfn_model;
         Pb_trace.add tr (pair_key p "geweke_ns") geweke_ns;
         Pb_trace.count tr (pair_key p "verdicts") 1;
         if samples >= validation_cap then Pb_trace.count tr (pair_key p "capped") 1);
      List.iter (fail p) (check_verdict p outcome v)
      with e -> fail p ("crash: " ^ Printexc.to_string e))
    pairs;
  {
    wall = sum (List.map (fun (_, t, _) -> t) !verdicts);
    verdicts = List.rev !verdicts;
    errors = List.rev !errors;
    attempted = List.length pairs;
  }
