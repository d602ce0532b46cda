(* The [serve] workload: an in-process [Serve.Server] (default config,
   one worker) on a fresh state directory, driven by two closed-loop
   client threads.  Each client's round is a fixed, seeded mix of
   - repeats of requests completed during set-up: memo hits, answered
     through the protocol, memo and atomic-write path with no search;
   - fresh optimize, frontier and validate requests with new seeds:
     misses, which search under queueing (two clients share one worker)
     and write a job file, checkpoints and a memo entry.
   Two thirds of the requests are misses, so the gated latencies are
   miss latencies: memo-hit latency (about 1 ms) swung by up to 1.7x
   between identical runs on a 2-vCPU host and is printed, not gated. *)

open Pb_util

let hits_per_round = 2
let clients = 2

(* ---------- requests ---------- *)

let req kernel action = { Serve.Protocol.kernel; tenant = "bench"; deadline_s = None; action }

let optimize kernel eta proposals seed =
  req kernel (Serve.Protocol.Optimize { eta; proposals; seed; domains = 1 })

let frontier kernel etas proposals seed =
  req kernel (Serve.Protocol.Frontier { etas; proposals; seed })

let validate kernel rewrite seed =
  req kernel
    (Serve.Protocol.Validate
       { eta = 0.; rewrite = Program.to_string rewrite; seed })

(* Fresh requests: the same kinds and sizes every round, new seeds. *)
let fresh_mix g =
  [
    optimize "exp" 1e6 5_000 (draw_seed g);
    optimize "sin" 1e9 5_000 (draw_seed g);
    frontier "add" [ 0.; 1e6 ] 2_000 (draw_seed g);
    validate "dot" Kernels.Aek_kernels.dot_rewrite (draw_seed g);
  ]

(* The requests answered during set-up, so later repeats are memo hits. *)
let hit_set g =
  [
    optimize "exp" 1e6 5_000 (draw_seed g);
    optimize "add" 0. 3_000 (draw_seed g);
    frontier "add" [ 0.; 1e6 ] 2_000 (draw_seed g);
    validate "scale" Kernels.Aek_kernels.scale_rewrite (draw_seed g);
  ]

(* ---------- output checks ---------- *)

let result_string ev =
  Option.map Obs.Json.to_string (Serve.Client.job_result ev)

let field k j = Obs.Json.member k j

(* A fresh answer is checked against the reference interpreter where the
   request has a checkable claim: an optimize winner must be η-correct on
   the job's tests and no slower than the target; a validation of a
   bit-wise equivalent rewrite must observe 0 ULPs. *)
let check_fresh (r : Serve.Protocol.request) result =
  let spec = spec_of r.Serve.Protocol.kernel in
  match (r.Serve.Protocol.action, result) with
  | _, None -> Error "no result"
  | Serve.Protocol.Optimize { eta; seed; _ }, Some j -> (
    match Option.bind (field "rewrite" j) Obs.Json.to_string_opt with
    | None -> Error "optimize result without rewrite"
    | Some text -> (
      match Parser.parse_program_exn text with
      | exception e -> Error ("unparseable rewrite: " ^ Printexc.to_string e)
      | p ->
        let tests = Stoke.make_tests ~seed:(Int64.of_int (seed + 100)) spec in
        let ctx =
          Search.Cost.create ~use_cache:false ~engine:Sandbox.Exec.Interp spec
            (Search.Cost.default_params ~eta:(Ulp.of_float eta))
            tests
        in
        let c = Search.Cost.eval_full ctx p in
        let t = Search.Cost.eval_full ctx spec.Sandbox.Spec.program in
        if not (Search.Cost.correct c) then Error "optimize winner not eta-correct"
        else if c.Search.Cost.perf > t.Search.Cost.perf then
          Error "optimize winner slower than target"
        else Ok ()))
  | Serve.Protocol.Frontier _, Some j -> (
    match Option.bind (field "points" j) Obs.Json.to_list_opt with
    | Some (_ :: _) -> Ok ()
    | _ -> Error "frontier result without points")
  | Serve.Protocol.Validate _, Some j -> (
    match Option.bind (field "max_err_ulps" j) Obs.Json.to_float_opt with
    | Some 0. -> Ok ()
    | Some e -> Error (Printf.sprintf "bit-wise rewrite observed %g ULPs" e)
    | None -> Error "validate result without max_err_ulps")
  | (Serve.Protocol.Ping | Serve.Protocol.Shutdown), _ -> Error "not a job"

(* ---------- one request ---------- *)

type sample = {
  hit : bool;
  latency : float;  (** connect to terminal event *)
  connect_ns : float;
  first_event : float;  (** request sent to first event *)
  stream : float;  (** request sent to terminal event *)
  events : int;
  terminal : (Obs.Sink.event, string) result;
}

(* One closed-loop request.  Nothing but the socket I/O runs between the
   clock readings, and the output check runs later, outside the measured
   rounds, so checking one client's answers never delays the other. *)
let submit ~socket (r : Serve.Protocol.request) =
  let t0 = now_ns () in
  let fail e =
    { hit = false; latency = secs_since t0; connect_ns = 0.; first_event = 0.;
      stream = 0.; events = 0; terminal = Error e }
  in
  try
    match Serve.Client.connect ~socket_path:socket with
    | Error e -> fail ("connect: " ^ e)
  | Ok conn ->
    Fun.protect
      ~finally:(fun () -> Serve.Client.close conn)
      (fun () ->
        let t_conn = now_ns () in
        let first = ref None and events = ref 0 in
        let on_event _ =
          incr events;
          if !first = None then first := Some (now_ns ())
        in
        match Serve.Client.send conn r with
        | Error e -> fail ("send: " ^ e)
        | Ok () -> (
          let ev = Serve.Client.stream ~on_event conn in
          let t_end = now_ns () in
          let span a b = Int64.to_float (Int64.sub b a) /. 1e9 in
          match ev with
          | Error e -> fail ("stream: " ^ e)
          | Ok ev ->
            {
              hit =
                Option.bind (List.assoc_opt "cached" ev.Obs.Sink.fields)
                  Obs.Json.to_bool_opt
                = Some true;
              latency = span t0 t_end;
              connect_ns = Int64.to_float (Int64.sub t_conn t0);
              first_event = span t_conn (Option.value !first ~default:t_end);
              stream = span t_conn t_end;
              events = !events;
              terminal = Ok ev;
            }))
  with e -> fail ("crash: " ^ Printexc.to_string e)

(* The output check of one answer: a repeat must be a memo hit
   byte-identical to the fresh answer; a fresh request must not be. *)
let check (r, expect) s =
  match s.terminal with
  | Error e -> Error e
  | Ok ev -> (
    let status = Serve.Client.job_status ev in
    if status <> "ok" then Error ("status " ^ status)
    else
      match expect with
      | `Hit fresh ->
        if not s.hit then Error "repeat was not a memo hit"
        else if result_string ev <> Some fresh then
          Error "memo hit differs from the fresh answer"
        else Ok ()
      | `Miss ->
        if s.hit then Error "fresh request answered from the memo"
        else check_fresh r (Serve.Client.job_result ev))

(* Proposals a search answer reports (0 for a validation). *)
let proposals s =
  match s.terminal with
  | Error _ -> 0
  | Ok ev -> (
    match Serve.Client.job_result ev with
    | None -> 0
    | Some j ->
      List.fold_left
        (fun acc k ->
          acc + Option.value ~default:0 (Option.bind (field k j) Obs.Json.to_int_opt))
        0 [ "proposals_made"; "total_proposals" ])

(* ---------- the daemon ---------- *)

type daemon = {
  socket : string;
  state_dir : string;
  domain : unit Domain.t;
  fresh : (Serve.Protocol.request * string) list;  (** hit set answers *)
}

(* Server-side job lifecycle from the [log] sink: digest -> times. *)
type lifecycle = {
  lock : Mutex.t;
  submit_t : (string, int64) Hashtbl.t;
  start_t : (string, int64) Hashtbl.t;
  waits : float list ref;
  runs : float list ref;
}

let lifecycle () =
  { lock = Mutex.create (); submit_t = Hashtbl.create 64;
    start_t = Hashtbl.create 64; waits = ref []; runs = ref [] }

let log_sink lc =
  Obs.Sink.callback (fun ev ->
      let t = now_ns () in
      match Option.bind (List.assoc_opt "job" ev.Obs.Sink.fields) Obs.Json.to_string_opt with
      | None -> ()
      | Some job ->
        Mutex.lock lc.lock;
        let dt a = Int64.to_float (Int64.sub t a) /. 1e9 in
        (match ev.Obs.Sink.name with
         | "job_submit" -> Hashtbl.replace lc.submit_t job t
         | "job_start" ->
           Hashtbl.replace lc.start_t job t;
           Option.iter (fun s -> lc.waits := dt s :: !(lc.waits))
             (Hashtbl.find_opt lc.submit_t job);
           Hashtbl.remove lc.submit_t job
         | "job_end" ->
           (* a memo hit ends without a start *)
           Option.iter (fun s -> lc.runs := dt s :: !(lc.runs))
             (Hashtbl.find_opt lc.start_t job);
           Hashtbl.remove lc.start_t job
         | _ -> ());
        Mutex.unlock lc.lock)

let instance = ref 0

let start ~seed ~log =
  incr instance;
  let tag = Printf.sprintf "%d-%d" (Unix.getpid ()) !instance in
  let state_dir = Filename.concat out_dir ("serve-" ^ tag) in
  (* relative, so the socket path stays short wherever the checkout is *)
  let socket = Filename.concat out_dir ("s" ^ tag ^ ".sock") in
  rm_rf state_dir;
  let cfg =
    { (Serve.Server.default_config ~socket_path:socket ~state_dir
         ~kernels:registry)
      with Serve.Server.log }
  in
  let ready = Atomic.make false in
  let domain =
    Domain.spawn (fun () ->
        Serve.Server.run ~on_ready:(fun _ -> Atomic.set ready true) cfg)
  in
  let t0 = now_ns () in
  while not (Atomic.get ready) do
    if secs_since t0 > 30. then failwith "serve: daemon did not start";
    Unix.sleepf 0.001
  done;
  let g = gen_of_seed seed in
  let fresh =
    List.map
      (fun r ->
        let s = submit ~socket r in
        (* the fresh answer every later repeat must reproduce byte for
           byte *)
        match (check (r, `Miss) s, Result.map result_string s.terminal) with
        | Ok (), Ok (Some res) -> (r, res)
        | Error e, _ -> failwith ("serve warm-up: " ^ e)
        | _ -> failwith "serve warm-up: no result")
      (hit_set g)
  in
  { socket; state_dir; domain; fresh }

let stop d =
  ignore
    (Serve.Client.submit ~socket_path:d.socket (req "" Serve.Protocol.Shutdown));
  Domain.join d.domain;
  rm_rf d.state_dir

(* ---------- the workload ---------- *)

(* A client's round: its repeats (reads) and fresh requests (writes,
   queued against the other client's on the one worker) in a seeded
   order. *)
let client_requests g fresh =
  let hits =
    List.init hits_per_round (fun _ ->
        let r, res = Rng.Dist.choose_list g fresh in
        (r, `Hit res))
  in
  let misses = List.map (fun r -> (r, `Miss)) (fresh_mix g) in
  let a = Array.of_list (hits @ misses) in
  Rng.Dist.shuffle g a;
  Array.to_list a

(* Every client submits its list, one request at a time; the round ends
   when all have finished. *)
let round ~socket lists =
  let outs = Array.make (Array.length lists) [] in
  let ths =
    Array.mapi
      (fun c reqs ->
        Thread.create
          (fun () ->
            outs.(c) <- List.map (fun (r, _) -> submit ~socket r) reqs)
          ())
      lists
  in
  Array.iter Thread.join ths;
  List.concat (Array.to_list (Array.map2 List.combine lists outs))

(* The client-side spans and server-side lifecycle of a traced run, kept
   in memory until the run ends. *)
let write_trace seed answered lc =
  let oc =
    open_out (Filename.concat out_dir (Printf.sprintf "trace-serve-%d.jsonl" seed))
  in
  List.iter
    (fun (((r : Serve.Protocol.request), _), s) ->
      let open Obs.Json in
      output_string oc
        (to_string
           (Obj
              [ ("op", String (Serve.Protocol.op_name r.action));
                ("kernel", String r.kernel); ("hit", Bool s.hit);
                ("latency_s", Float s.latency);
                ("connect_ns", Float s.connect_ns);
                ("first_event_s", Float s.first_event);
                ("stream_s", Float s.stream); ("events", Int s.events) ]));
      output_char oc '\n')
    answered;
  let floats l = Obs.Json.List (List.map (fun x -> Obs.Json.Float x) l) in
  output_string oc
    (Obs.Json.to_string
       (Obs.Json.Obj
          [ ("queue_wait_s", floats !(lc.waits)); ("run_s", floats !(lc.runs)) ]));
  output_char oc '\n';
  close_out oc

let run seed seconds traced =
  let lc = lifecycle () in
  let log = if traced then log_sink lc else Obs.Sink.null in
  (* set-up: daemon start and memo warm-up, three times; the last daemon
     serves the measured rounds *)
  let daemon = ref None in
  let setups =
    List.init 3 (fun _ ->
        Option.iter stop !daemon;
        let d, dt = time (fun () -> start ~seed ~log) in
        daemon := Some d;
        dt)
  in
  let d = Option.get !daemon in
  (* only the measured rounds' jobs count *)
  Mutex.lock lc.lock;
  lc.waits := [];
  lc.runs := [];
  Mutex.unlock lc.lock;
  let gens = Array.init clients (fun c -> gen_of_seed ((seed * 7919) + c + 1)) in
  let t0 = now_ns () in
  let rounds = ref [] in
  (try
     while !rounds = [] || secs_since t0 < seconds do
       let reqs = Array.map (fun g -> client_requests g d.fresh) gens in
       let samples, dt = time (fun () -> round ~socket:d.socket reqs) in
       rounds := (dt, samples) :: !rounds
     done
   with e ->
     stop d;
     raise e);
  (* probes, on the live daemon's state dir, before it stops *)
  let parse_ns, write_ns =
    if not traced then (0., 0.)
    else
      let lines =
        List.map (fun (r, _) -> Serve.Protocol.request_to_string r) d.fresh
      in
      let n = 2000 in
      let t = now_ns () in
      for i = 0 to n - 1 do
        ignore (Serve.Protocol.request_of_string (List.nth lines (i mod List.length lines)))
      done;
      let parse = Int64.to_float (Int64.sub (now_ns ()) t) /. float_of_int n in
      let payload =
        Obs.Json.to_string
          (Obs.Json.Obj
             [ ("request", Serve.Protocol.request_to_json (fst (List.hd d.fresh)));
               ("key", Obs.Json.String (String.make 200 'k')) ])
      in
      let path = Filename.concat d.state_dir "probe.job.json" in
      let n = 200 in
      let t = now_ns () in
      for _ = 1 to n do Search.Snapshot.atomic_write_string ~path payload done;
      (parse, Int64.to_float (Int64.sub (now_ns ()) t) /. float_of_int n)
  in
  stop d;
  let rounds = List.rev !rounds in
  let answered = List.concat_map snd rounds in
  let samples = List.map snd answered in
  let hits = List.filter (fun s -> s.hit) samples
  and misses = List.filter (fun s -> not s.hit) samples in
  let lat l = List.map (fun s -> s.latency) l in
  let errors =
    List.filter_map
      (fun (((r : Serve.Protocol.request), _) as q, s) ->
        match check q s with
        | Ok () -> None
        | Error e ->
          Some (Printf.sprintf "%s %s: %s" (Serve.Protocol.op_name r.action) r.kernel e))
      answered
  in
  note "== serve: %d rounds, %d clients x %d requests (%d repeats), 1 worker"
    (List.length rounds) clients
    (List.length (snd (List.hd rounds)) / clients)
    hits_per_round;
  let show name l =
    let t = tail l in
    note "  %s_p50_s = %.6f s, %s_tail_s = %.6f s (p%.1f of %d, %d beyond)" name
      (median l) name t.value t.pct t.n t.beyond
  in
  show "hit" (lat hits);
  show "miss" (lat misses);
  let search_misses = List.filter (fun s -> proposals s > 0) misses in
  let n_proposals = List.fold_left (fun a s -> a + proposals s) 0 search_misses in
  note "  proposals_per_s = %.1f 1/s (%d proposals over %.3f s of search-request latency)"
    (ratio (float_of_int n_proposals) (sum (lat search_misses)))
    n_proposals (sum (lat search_misses));
  let attempted = List.length samples in
  let layers =
    if not traced then []
    else begin
      write_trace seed answered lc;
      let mean f l = ratio (sum (List.map f l)) (float_of_int (List.length l)) in
      [
        ("serve.client.connect_ns", median (List.map (fun s -> s.connect_ns) samples));
        ("serve.client.first_event_s", median (List.map (fun s -> s.first_event) hits));
        ("serve.client.stream_s", median (List.map (fun s -> s.stream) hits));
        ("serve.server.queue_wait_s", median !(lc.waits));
        ("serve.server.run_s", median !(lc.runs));
        ( "serve.memo.hit_ratio",
          ratio (float_of_int (List.length hits)) (float_of_int attempted) );
        ("serve.events_per_job", mean (fun s -> float_of_int s.events) samples);
        ("serve.protocol.parse_ns", parse_ns);
        ("search.snapshot.atomic_write_ns", write_ns);
      ]
    end
  in
  {
    setup_s = median setups;
    wall = median (List.map fst rounds);
    work = List.length (snd (List.hd rounds));
    latencies = lat samples;
    attempted;
    errors;
    layers;
  }
