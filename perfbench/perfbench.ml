(* perfbench — the repository benchmark.

   perfbench --workload search|check|serve --seed N --seconds S --trace 0|1

   Builds the workload's inputs from the seed, repeats the workload's
   fixed round of work for S seconds, checks every output, and prints the
   metrics by name with their units, then one JSON result line.  With
   --trace 0 the end-to-end metrics are printed; with --trace 1 the
   per-layer metrics from a traced run (spans recorded from this
   program, around calls into each layer; nothing inside the libraries
   is instrumented). *)

open Pb_util

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "search|check|serve");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measurement time");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload [ "search"; "check"; "serve" ]) then begin
    prerr_endline "perfbench: --workload must be search, check or serve";
    exit 2
  end;
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1 }

(* Set-up is repeated and its median reported, so work moved into set-up
   shows without one slow repetition deciding the figure. *)
let setup_reps = 9

let measure_setup f =
  let rec go k acc last =
    if k = 0 then begin
      note "  setup_s: median of %s s" (String.concat ", " (List.rev_map (Printf.sprintf "%.4f") acc));
      (Option.get last, median acc)
    end
    else
      let v, dt = time f in
      go (k - 1) (dt :: acc) (Some v)
  in
  go setup_reps [] None

(* Repeat [round] until [seconds] have passed (at least once); [round]
   gets the round's index. *)
let repeat_rounds seconds round =
  let t0 = now_ns () in
  let rec go i acc =
    let acc = round i :: acc in
    if secs_since t0 >= seconds then List.rev acc else go (i + 1) acc
  in
  go 0 []

(* Every workload reports through here: the latency and error-rate
   lines with their bases, then the end-to-end metrics of an untraced
   run, or every per-layer metric of a traced one (a layer the workload
   never enters reads 0). *)
let report args (s : summary) =
  let t = tail s.latencies in
  note "  job latency: p50 over %d samples; tail = p%.1f with %d samples beyond it"
    t.n t.pct t.beyond;
  let failed = List.length s.errors in
  List.iter (fun e -> note "  FAILED %s" e) s.errors;
  note "  error_rate = %g (%d failed of %d attempted)"
    (ratio (float_of_int failed) (float_of_int s.attempted))
    failed s.attempted;
  let metrics =
    if args.trace then
      let values = ("trace.wall_s", s.wall) :: s.layers in
      List.map
        (fun (name, unit_) ->
          m name unit_ (Option.value (List.assoc_opt name values) ~default:0.))
        Pb_layers.units
    else
      [
        m "setup_s" "s" s.setup_s;
        m "wall_s" "s" s.wall;
        m "work_per_s" "1/s" (ratio (float_of_int s.work) s.wall);
        m "job_p50_s" "s" (median s.latencies);
        m "job_tail_s" "s" t.value;
        m "peak_rss_mb" "MB" (peak_rss_mb ());
      ]
  in
  let correct = failed = 0 in
  print_table
    (Printf.sprintf "%s seed %d (%s)" args.workload args.seed
       (if args.trace then "traced" else "untraced"))
    metrics;
  print_endline (result_line ~correct ~attempted:s.attempted ~failed metrics);
  exit (if correct then 0 else 1)

(* The recorder exists in traced runs only, so an untraced run's memory
   holds nothing of it. *)
let recorder args = if args.trace then Some (Pb_trace.create ()) else None

(* A traced run's per-layer values: the trace is written out and the
   reconciliation printed first. *)
let layers args = function
  | None -> []
  | Some tr ->
    Pb_trace.write tr
      (Filename.concat out_dir
         (Printf.sprintf "trace-%s-%d.jsonl" args.workload args.seed));
    let values = Pb_layers.compute tr in
    Pb_layers.reconcile tr values;
    values

(* ---------- search ---------- *)

let run_search args =
  let jobs, setup_s = measure_setup (fun () -> Pb_search.setup args.seed) in
  let n_jobs = List.length (jobs 0) in
  let tr = recorder args in
  let trace = Option.map (fun tr -> (tr, Pb_search.names tr)) tr in
  let rounds =
    repeat_rounds args.seconds (fun i -> Pb_search.run_round ?trace ~first:(i = 0) (jobs i))
  in
  let open Pb_search in
  let by_kernel = List.concat_map (fun r -> r.job_s) rounds in
  let proposals = List.fold_left (fun a r -> a + r.proposals) 0 rounds in
  let search_s = sum (List.map (fun r -> r.search_s) rounds) in
  note "== search: %d rounds of %d jobs (%d proposals each)" (List.length rounds)
    n_jobs Pb_search.proposals;
  List.iter
    (fun (k, _) ->
      note "  %-8s job p50 %.4f s" k
        (median (List.filter_map (fun (k', t) -> if k = k' then Some t else None) by_kernel)))
    Pb_search.kernels;
  (* deterministic per seed: the first round's jobs *)
  let speedup = geomean (List.hd rounds).speedups in
  note "  proposals_per_s = %.1f 1/s (%d proposals in %.3f s of job time)"
    (ratio (float_of_int proposals) search_s)
    proposals search_s;
  note "  speedup_geomean = %.6g ratio (over %d jobs)" speedup
    (List.length (List.hd rounds).speedups);
  report args
    {
      setup_s;
      wall = median (List.map (fun r -> r.search_s) rounds);
      (* every round does the same work *)
      work = (List.hd rounds).proposals;
      latencies = List.map snd by_kernel;
      attempted = List.fold_left (fun a r -> a + r.attempted) 0 rounds;
      errors = List.concat_map (fun r -> r.errors) rounds;
      layers = layers args tr;
    }

(* ---------- check ---------- *)

let run_check args =
  let pairs, setup_s = measure_setup (fun () -> Pb_check.setup args.seed) in
  let trace = recorder args in
  let rounds =
    repeat_rounds args.seconds (fun i -> Pb_check.run_round ?trace (pairs i))
  in
  let open Pb_check in
  let verdicts = List.concat_map (fun r -> r.verdicts) rounds in
  let latencies = List.map (fun (_, t, _) -> t) verdicts in
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 rounds in
  note "== check: %d rounds of %d verdicts (validation cap %d)"
    (List.length rounds) (List.length (pairs 0)) Pb_check.validation_cap;
  List.iter
    (fun (name, _, _) ->
      let mine = List.filter (fun (n, _, _) -> n = name) verdicts in
      note "  %-22s verdict p50 %.4f s, validation samples p50 %.0f" name
        (median (List.map (fun (_, t, _) -> t) mine))
        (median (List.map (fun (_, _, k) -> float_of_int k) mine)))
    (List.hd rounds).verdicts;
  note "  verdicts_per_s = %.4f 1/s (%d verdicts in %.3f s)"
    (ratio (float_of_int attempted) (sum latencies))
    attempted (sum latencies);
  Option.iter (fun tr -> Pb_check.reconcile_pairs tr (pairs 0)) trace;
  report args
    {
      setup_s;
      wall = median (List.map (fun r -> r.wall) rounds);
      work = List.length (pairs 0);
      latencies;
      attempted;
      errors = List.concat_map (fun r -> r.errors) rounds;
      layers = layers args trace;
    }

let () =
  let args = parse_args () in
  mkdir_p out_dir;
  match args.workload with
  | "search" -> run_search args
  | "check" -> run_check args
  | _ -> report args (Pb_serve.run args.seed args.seconds args.trace)
