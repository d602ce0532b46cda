(* The [search] workload: optimize jobs run one at a time on one domain
   with the default config (compiled engine, pruning, static screen).

   The traced run replays each job through a shadow chain: the loop of
   [Search.Optimizer.run] rebuilt from the same public calls, in the same
   order, on a context built the same way, with a span around each call
   into a layer.  The run then checks that the shadow's counters equal
   what [Optimizer.run] reports for the same spec, tests, config and
   seed, so a change to the optimizer loop cannot make the trace lie. *)

open Pb_util

let kernels = [ ("exp", 0.); ("s3d_exp", 1e6); ("sin", 1e9); ("delta", 1e6) ]
let seeds_per_kernel = 4
let proposals = 10_000

type job = {
  kernel : string;
  spec : Sandbox.Spec.t;
  eta : Ulp.t;
  config : Search.Optimizer.config;
  tests : Sandbox.Testcase.t array;
}

(* One round's jobs: every round runs the same kernels and budgets with
   fresh job seeds drawn from the workload seed's stream. *)
let make_jobs g =
  List.concat_map
    (fun (kernel, eta) ->
      List.init seeds_per_kernel (fun _ ->
          let s = Int64.of_int (draw_seed g) in
          let spec = spec_of kernel in
          let config =
            { Search.Optimizer.default_config with
              Search.Optimizer.proposals; seed = s }
          in
          (* the tests Stoke.optimize would draw for this seed *)
          let tests = Stoke.make_tests ~seed:(Int64.add s 100L) spec in
          { kernel; spec; eta = Ulp.of_float eta; config; tests }))
    kernels

(* Set-up ends with a short search per kernel, so lazy initialisation
   and cold caches are paid before timing. *)
let warm_up jobs =
  List.iter
    (fun (kernel, _) ->
      let job = List.find (fun j -> j.kernel = kernel) jobs in
      ignore
        (Stoke.optimize
           ~config:{ job.config with Search.Optimizer.proposals = 2_000 }
           ~tests:job.tests ~eta:job.eta job.spec))
    kernels

(* The job stream of a workload seed. *)
let setup seed =
  let g = gen_of_seed seed in
  let first = make_jobs g in
  warm_up first;
  stream g first make_jobs

let context job =
  Search.Cost.create ~use_cache:job.config.Search.Optimizer.prune
    ~engine:job.config.Search.Optimizer.engine job.spec
    (Search.Cost.default_params ~eta:job.eta)
    job.tests

(* ---------- output check ---------- *)

(* The winner is re-scored on the job's tests by a cost context on the
   reference interpreter: it must be η-correct and no slower than the
   target.  Returns the speedup (target latency / winner latency). *)
let check_winner job winner =
  match winner with
  | None -> Error "no correct rewrite"
  | Some p ->
    let ref_ctx =
      Search.Cost.create ~use_cache:false ~engine:Sandbox.Exec.Interp job.spec
        (Search.Cost.default_params ~eta:job.eta)
        job.tests
    in
    let c = Search.Cost.eval_full ref_ctx p in
    let t = Search.Cost.eval_full ref_ctx job.spec.Sandbox.Spec.program in
    if not (Search.Cost.correct c) then
      Error (Printf.sprintf "winner not eta-correct (eq %g)" c.Search.Cost.eq)
    else if c.Search.Cost.perf > t.Search.Cost.perf then
      Error "winner slower than target"
    else Ok (t.Search.Cost.perf /. Float.max 1. c.Search.Cost.perf)

(* ---------- shadow chain ---------- *)

type names = {
  n_job : int;
  n_chain : int;
  n_propose : int;
  n_screen : int;
  n_bound : int;
  n_cost_hit : int;
  n_cost_pruned : int;
  n_cost_evaluated : int;
  n_undo : int;
}

let names tr =
  let n = Pb_trace.name tr in
  {
    n_job = n "search.job";
    n_chain = n "search.optimizer.chain";
    n_propose = n "search.transform.propose";
    n_screen = n "analysis.screen.has_undef_read";
    n_bound = n "search.strategy.accept_bound";
    n_cost_hit = n "search.cost.eval.hit";
    n_cost_pruned = n "search.cost.eval.pruned";
    n_cost_evaluated = n "search.cost.eval.evaluated";
    n_undo = n "search.transform.undo";
  }

type shadow = {
  best_correct : Program.t option;
  proposals_made : int;
  accepted : int;
  static_rejects : int;
  evaluations : int;
  tests_executed : int;
  pruned_evals : int;
  cache_hits : int;
  compile_count : int;
  fates : (string * int) list;
  loop_tests : int;  (** test runs charged to the chain's own evaluations *)
  sample : Program.t list;  (** evaluated proposals kept for the probes *)
}

(* Mirrors [Optimizer.run_from] for a run without a control plane: same
   RNG splits and draws, same evaluation order, same bookkeeping of the
   incumbent, same final DCE re-evaluation. *)
let shadow_run tr nm ctx (config : Search.Optimizer.config) =
  let module C = Search.Cost in
  let spec = C.spec ctx in
  let init = spec.Sandbox.Spec.program in
  let ev0 = C.evaluations ctx and te0 = C.tests_executed ctx
  and pr0 = C.pruned_evals ctx and ch0 = C.cache_hits ctx
  and cc0 = C.compile_count ctx in
  let pools = Search.Pools.make ~target:init ~spec in
  let g = Rng.Xoshiro256.create config.seed in
  let init_cost = C.eval_full ctx init in
  let best_correct = ref None and best_correct_cost = ref None in
  let best_overall_cost = ref init_cost in
  let accepted = ref 0 and made = ref 0 and rejects = ref 0 in
  let f_failed = ref 0 and f_hit = ref 0 and f_pruned = ref 0
  and f_rejected = ref 0 in
  let sample = ref [] and n_sample = ref 0 and n_evaluated = ref 0 in
  let loop_tests = ref 0 in
  let screen_env = Analysis.Screen.env_of_spec spec in
  for _restart = 1 to Stdlib.max 1 config.restarts do
    let gr = Rng.Xoshiro256.split g in
    let cur =
      Program.with_padding config.padding (Program.instrs init)
    in
    let cur_cost = ref (C.eval_full ctx cur) in
    let note_candidate cost =
      if C.correct cost then begin
        let better =
          match !best_correct_cost with
          | None -> true
          | Some c -> cost.C.perf < c.C.perf
        in
        if better then begin
          best_correct := Some (Program.copy cur);
          best_correct_cost := Some cost
        end
      end;
      if cost.C.total < !best_overall_cost.C.total then
        best_overall_cost := cost
    in
    note_candidate !cur_cost;
    let chain = Pb_trace.enter tr nm.n_chain in
    for iter = 1 to config.proposals do
      incr made;
      let undo_ u = Pb_trace.span tr nm.n_undo (fun () -> Search.Transform.undo cur u) in
      match
        Pb_trace.span tr nm.n_propose (fun () ->
            Search.Transform.propose gr pools cur)
      with
      | None -> incr f_failed
      | Some (_kind, u) ->
        if
          config.static_screen
          && Pb_trace.span tr nm.n_screen (fun () ->
                 Analysis.Screen.has_undef_read screen_env cur)
        then begin
          incr rejects;
          undo_ u
        end
        else begin
          let limit =
            match
              Pb_trace.span tr nm.n_bound (fun () ->
                  Search.Strategy.accept_bound config.strategy gr ~iter)
            with
            | None -> Float.infinity
            | Some b -> !cur_cost.C.total +. b
          in
          let hits = C.cache_hits ctx and pruned = C.pruned_evals ctx
          and tests = C.tests_executed ctx in
          let sp = Pb_trace.enter tr nm.n_cost_evaluated in
          let verdict =
            C.eval ?cutoff:(if config.prune then Some limit else None) ctx cur
          in
          let hit = C.cache_hits ctx > hits in
          let as_ =
            if hit then nm.n_cost_hit
            else if C.pruned_evals ctx > pruned then nm.n_cost_pruned
            else nm.n_cost_evaluated
          in
          Pb_trace.leave ~as_ tr sp;
          loop_tests := !loop_tests + C.tests_executed ctx - tests;
          match verdict with
          | C.Pruned _ ->
            incr f_pruned;
            undo_ u
          | C.Evaluated c ->
            if not hit then begin
              (* every 50th fully evaluated proposal feeds the probes *)
              incr n_evaluated;
              if !n_evaluated mod 50 = 1 && !n_sample < 64 then begin
                sample := Program.copy cur :: !sample;
                incr n_sample
              end
            end;
            if c.C.total <= limit then begin
              incr accepted;
              cur_cost := c;
              note_candidate c
            end
            else begin
              if hit then incr f_hit else incr f_rejected;
              undo_ u
            end
        end
    done;
    Pb_trace.leave tr chain
  done;
  let live_out = Sandbox.Spec.live_out_set spec in
  let best_correct =
    match !best_correct with
    | None -> None
    | Some p ->
      let d = Liveness.dce p ~live_out in
      if C.correct (C.eval_full ctx d) then Some d else Some p
  in
  {
    best_correct;
    proposals_made = !made;
    accepted = !accepted;
    static_rejects = !rejects;
    evaluations = C.evaluations ctx - ev0;
    tests_executed = C.tests_executed ctx - te0;
    pruned_evals = C.pruned_evals ctx - pr0;
    cache_hits = C.cache_hits ctx - ch0;
    compile_count = C.compile_count ctx - cc0;
    fates =
      [ ("propose_failed", !f_failed); ("static_reject", !rejects);
        ("cache_hit", !f_hit); ("pruned", !f_pruned);
        ("rejected", !f_rejected); ("accepted", !accepted) ];
    loop_tests = !loop_tests;
    sample = !sample;
  }

(* The shadow-chain guard: fail loudly when the trace no longer
   reproduces the optimizer (the job then counts as failed and the run
   reports [correct: false]). *)
let guard job (s : shadow) =
  let r = Search.Optimizer.run (context job) job.config in
  let pairs =
    [
      ("proposals_made", s.proposals_made, r.Search.Optimizer.proposals_made);
      ("accepted", s.accepted, r.Search.Optimizer.accepted);
      ("static_rejects", s.static_rejects, r.Search.Optimizer.static_rejects);
      ("evaluations", s.evaluations, r.Search.Optimizer.evaluations);
      ("tests_executed", s.tests_executed, r.Search.Optimizer.tests_executed);
      ("pruned_evals", s.pruned_evals, r.Search.Optimizer.pruned_evals);
      ("cache_hits", s.cache_hits, r.Search.Optimizer.cache_hits);
      ("compile_count", s.compile_count, r.Search.Optimizer.compile_count);
    ]
  in
  let bad = List.filter (fun (_, a, b) -> a <> b) pairs in
  let fate_sum = List.fold_left (fun acc (_, n) -> acc + n) 0 s.fates in
  let same_winner =
    match (s.best_correct, r.Search.Optimizer.best_correct) with
    | Some a, Some b -> Program.equal a b
    | None, None -> true
    | _ -> false
  in
  if bad <> [] || fate_sum <> s.proposals_made || not same_winner then begin
    List.iter
      (fun (k, a, b) ->
        Printf.eprintf "shadow-chain guard: %s/%Ld %s shadow %d optimizer %d\n"
          job.kernel job.config.Search.Optimizer.seed k a b)
      bad;
    if fate_sum <> s.proposals_made then
      Printf.eprintf "shadow-chain guard: fates sum to %d, proposals %d\n"
        fate_sum s.proposals_made;
    if not same_winner then
      Printf.eprintf "shadow-chain guard: %s winner differs\n" job.kernel;
    failwith "shadow chain diverged from Search.Optimizer.run"
  end

(* ---------- probes ---------- *)

(* Replay a fixed sample of the chain's evaluated programs through the
   hash, the compiler and the compiled executor, outside the chain.  A
   test case costs a machine restore, the test's install and the run,
   as in [Cost]. *)
let probe tr job programs =
  let spec = job.spec in
  let machine = Sandbox.Machine.create ~mem_size:spec.Sandbox.Spec.mem_size () in
  let pristine = Sandbox.Machine.copy machine in
  let reps = 20 in
  let timed key n f =
    let t0 = now_ns () in
    for _ = 1 to n do f () done;
    Pb_trace.add tr (key ^ ".ns") (Int64.to_float (Int64.sub (now_ns ()) t0));
    Pb_trace.count tr (key ^ ".calls") n
  in
  List.iter
    (fun p ->
      timed "x86.program.hash" reps (fun () -> ignore (Program.hash p));
      timed "sandbox.compiled.compile" reps (fun () ->
          ignore (Sandbox.Compiled.compile machine p));
      let cp = Sandbox.Compiled.compile machine p in
      Array.iter
        (fun tc ->
          timed "sandbox.compiled.exec" 1 (fun () ->
              Sandbox.Machine.restore_from ~src:pristine ~dst:machine;
              Sandbox.Testcase.apply tc machine;
              ignore (Sandbox.Compiled.exec cp)))
        job.tests)
    programs

(* ---------- the workload ---------- *)

type outcome = {
  job_s : (string * float) list;  (** each job's kernel and latency *)
  search_s : float;  (** the round's job time *)
  proposals : int;
  speedups : float list;
  errors : string list;
  attempted : int;
}

(* The fate ledger is recorded for the first round only, so its counts
   are exact per seed whatever the machine's speed. *)
let run_round ?trace ~first jobs =
  let job_s = ref [] and errors = ref [] and speedups = ref [] in
  let proposals_done = ref 0 in
  List.iter
    (fun job ->
      let fail e =
        errors :=
          Printf.sprintf "%s seed %Ld: %s" job.kernel
            job.config.Search.Optimizer.seed e
          :: !errors
      in
      try
      let winner, dt =
        match trace with
        | None ->
          let r, dt =
            time (fun () ->
                Stoke.optimize ~config:job.config ~tests:job.tests ~eta:job.eta
                  job.spec)
          in
          proposals_done := !proposals_done + r.Search.Optimizer.proposals_made;
          (r.Search.Optimizer.best_correct, dt)
        | Some (tr, nm) ->
          let s, dt =
            time (fun () ->
                Pb_trace.span tr nm.n_job (fun () ->
                    shadow_run tr nm (context job) job.config))
          in
          proposals_done := !proposals_done + s.proposals_made;
          if first then
            List.iter
              (fun (f, n) -> Pb_trace.count tr ("search.fate." ^ f) n)
              s.fates;
          Pb_trace.count tr "search.proposals" s.proposals_made;
          Pb_trace.count tr "analysis.screen.rejects" s.static_rejects;
          Pb_trace.count tr "search.cost.loop_tests" s.loop_tests;
          guard job s;
          probe tr job s.sample;
          (s.best_correct, dt)
      in
      job_s := (job.kernel, dt) :: !job_s;
      match check_winner job winner with
      | Ok sp -> speedups := sp :: !speedups
      | Error e -> fail e
      with e -> fail ("crash: " ^ Printexc.to_string e))
    jobs;
  (* Only job time counts: in a traced round that is the shadow chain
     with its spans, without the guard's second run and the probes. *)
  {
    job_s = List.rev !job_s;
    search_s = sum (List.map snd !job_s);
    proposals = !proposals_done;
    speedups = !speedups;
    errors = !errors;
    attempted = List.length jobs;
  }
