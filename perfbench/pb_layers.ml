(* The per-layer metrics of a traced run, derived from the recorder's span
   aggregates, counts and probe times.  Every traced run prints all of
   them; a layer the workload never enters reads 0.  Which end-to-end
   metric each one should move is mapped in perfbench/README.md. *)

open Pb_util

let fates =
  [ "propose_failed"; "static_reject"; "cache_hit"; "pruned"; "rejected";
    "accepted" ]

let units =
  [
    ("search.transform.propose_ns", "ns");
    ("search.transform.propose_failed", "count");
    ("analysis.screen.check_ns", "ns");
    ("analysis.screen.reject_ratio", "ratio");
    ("search.cost.hit_ns", "ns");
    ("search.cost.pruned_ns", "ns");
    ("search.cost.evaluated_ns", "ns");
    ("search.cost.cache_hit_ratio", "ratio");
    ("search.cost.prune_ratio", "ratio");
    ("search.cost.tests_per_eval", "count");
    ("x86.program.hash_ns", "ns");
    ("sandbox.compiled.compile_ns", "ns");
    ("sandbox.compiled.exec_ns", "ns");
    ("search.cost.self_ns", "ns");
    ("search.cost.probe_share", "ratio");
    ("search.optimizer.self_ns", "ns");
    ("search.optimizer.child_share", "ratio");
  ]
  @ List.map (fun f -> ("search.fate." ^ f, "count")) fates
  @ [
      ("verify.verifier_ns.bitwise", "ns");
      ("verify.verifier_ns.taylor", "ns");
      ("verify.taylor_boxes", "count");
      ("validate.samples", "count");
      ("validate.errfn_ns", "ns");
      ("stats.geweke_ns", "ns");
      ("validate.errfn_share", "ratio");
      ("stats.geweke_share", "ratio");
      ("validate.driver_self_share", "ratio");
      ("serve.client.connect_ns", "ns");
      ("serve.client.first_event_s", "s");
      ("serve.client.stream_s", "s");
      ("serve.server.queue_wait_s", "s");
      ("serve.server.run_s", "s");
      ("serve.memo.hit_ratio", "ratio");
      ("serve.events_per_job", "count");
      ("serve.protocol.parse_ns", "ns");
      ("search.snapshot.atomic_write_ns", "ns");
      ("trace.wall_s", "s");
    ]

let per_call tr key =
  ratio (Pb_trace.get tr (key ^ ".ns")) (Pb_trace.get tr (key ^ ".calls"))

let search tr =
  let open Pb_trace in
  let proposals = get tr "search.proposals" in
  let hit = calls tr "search.cost.eval.hit"
  and pruned = calls tr "search.cost.eval.pruned"
  and evaluated = calls tr "search.cost.eval.evaluated" in
  let fresh = float_of_int (pruned + evaluated) in
  let fresh_ns =
    ratio
      (total_ns tr "search.cost.eval.pruned"
      +. total_ns tr "search.cost.eval.evaluated")
      fresh
  in
  let tests_per_eval = ratio (get tr "search.cost.loop_tests") fresh in
  let hash = per_call tr "x86.program.hash"
  and compile = per_call tr "sandbox.compiled.compile"
  and exec = per_call tr "sandbox.compiled.exec" in
  let explained = hash +. compile +. (tests_per_eval *. exec) in
  let chain = total_ns tr "search.optimizer.chain" in
  [
    ("search.transform.propose_ns", mean_ns tr "search.transform.propose");
    ("search.transform.propose_failed", get tr "search.fate.propose_failed");
    ("analysis.screen.check_ns", mean_ns tr "analysis.screen.has_undef_read");
    ( "analysis.screen.reject_ratio",
      ratio (get tr "analysis.screen.rejects")
        (float_of_int (calls tr "analysis.screen.has_undef_read")) );
    ("search.cost.hit_ns", mean_ns tr "search.cost.eval.hit");
    ("search.cost.pruned_ns", mean_ns tr "search.cost.eval.pruned");
    ("search.cost.evaluated_ns", mean_ns tr "search.cost.eval.evaluated");
    ( "search.cost.cache_hit_ratio",
      ratio (float_of_int hit) (float_of_int (hit + pruned + evaluated)) );
    ("search.cost.prune_ratio", ratio (float_of_int pruned) fresh);
    ("search.cost.tests_per_eval", tests_per_eval);
    ("x86.program.hash_ns", hash);
    ("sandbox.compiled.compile_ns", compile);
    ("sandbox.compiled.exec_ns", exec);
    ("search.cost.self_ns", fresh_ns -. explained);
    ("search.cost.probe_share", ratio explained fresh_ns);
    ("search.optimizer.self_ns", ratio (self_ns tr "search.optimizer.chain") proposals);
    ( "search.optimizer.child_share",
      ratio (chain -. self_ns tr "search.optimizer.chain") chain );
    (* printed by [reconcile] only *)
    ("search.cost.fresh_ns", fresh_ns);
  ]
  @ List.map (fun f -> ("search.fate." ^ f, get tr ("search.fate." ^ f))) fates

let check tr =
  let open Pb_trace in
  let validate = total_ns tr "validate.driver" in
  let errfn_share = ratio (get tr "validate.errfn_model.ns") validate in
  let geweke_share = ratio (get tr "stats.geweke.ns") validate in
  [
    ("verify.verifier_ns.bitwise", mean_ns tr "verify.verifier.bitwise");
    ("verify.verifier_ns.taylor", mean_ns tr "verify.verifier.taylor");
    ( "verify.taylor_boxes",
      ratio (get tr "verify.taylor_boxes")
        (float_of_int (calls tr "verify.verifier.taylor")) );
    ( "validate.samples",
      ratio (get tr "validate.samples") (float_of_int (calls tr "validate.driver")) );
    ("validate.errfn_ns", per_call tr "validate.errfn_probe");
    ("stats.geweke_ns", per_call tr "stats.geweke");
    ("validate.errfn_share", errfn_share);
    ("stats.geweke_share", geweke_share);
    ( "validate.driver_self_share",
      if validate = 0. then 0. else 1. -. errfn_share -. geweke_share );
  ]

let compute tr = search tr @ check tr

(* How much of each parent span the probe-derived layer times account
   for; the remainder is printed, not hidden. *)
let reconcile tr values =
  let v k = Option.value (List.assoc_opt k values) ~default:0. in
  if Pb_trace.calls tr "search.optimizer.chain" > 0 then begin
    note "  reconciliation (search):";
    note "    chain span: child spans cover %.1f%%, optimizer self time %.1f%%"
      (100. *. v "search.optimizer.child_share")
      (100. *. (1. -. v "search.optimizer.child_share"));
    note
      "    non-cached Cost.eval (%.0f ns): hash+compile+exec probes explain \
       %.1f%%, Cost's own remainder %.0f ns"
      (v "search.cost.fresh_ns")
      (100. *. v "search.cost.probe_share")
      (v "search.cost.self_ns")
  end;
  if Pb_trace.calls tr "validate.driver" > 0 then begin
    note "  reconciliation (check):";
    note
      "    Stoke.validate span: Errfn probe %.1f%%, Geweke probe %.1f%%, \
       driver remainder %.1f%%"
      (100. *. v "validate.errfn_share")
      (100. *. v "stats.geweke_share")
      (100. *. v "validate.driver_self_share")
  end
