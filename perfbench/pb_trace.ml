(* In-memory span recorder for the traced runs.

   A span is opened around a call into one layer's public function and
   closed when the call returns; its parent is the innermost open span.
   Every closed span feeds a per-name aggregate (count, total and self
   time, where self time is the duration minus the part covered by child
   spans).  The first [cap] spans are also kept individually and written
   out as JSONL when the run ends, so a run's tree can be inspected
   without the recorder ever touching the disk while timing. *)

type agg = { mutable count : int; mutable total_ns : int; mutable self_ns : int }

type frame = { f_id : int; f_name : int; f_start : int; mutable f_child : int }

type t = {
  names : (string, int) Hashtbl.t;
  mutable name_list : string list;  (** reversed *)
  mutable aggs : agg array;
  mutable stack : frame list;
  mutable next_id : int;
  mutable kept : int;
  sp_id : int array;
  sp_parent : int array;
  sp_name : int array;
  sp_start : int array;
  sp_dur : int array;
  counts : (string, float) Hashtbl.t;
}

let cap = 200_000

let create () =
  {
    names = Hashtbl.create 32;
    name_list = [];
    aggs = [||];
    stack = [];
    next_id = 0;
    kept = 0;
    sp_id = Array.make cap 0;
    sp_parent = Array.make cap 0;
    sp_name = Array.make cap 0;
    sp_start = Array.make cap 0;
    sp_dur = Array.make cap 0;
    counts = Hashtbl.create 32;
  }

(* Register a span name once, outside the hot loop. *)
let name t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
    let i = Hashtbl.length t.names in
    Hashtbl.replace t.names s i;
    t.name_list <- s :: t.name_list;
    t.aggs <- Array.append t.aggs [| { count = 0; total_ns = 0; self_ns = 0 } |];
    i

let clock () = Int64.to_int (Obs.Clock.now_ns ())

let enter t name_id =
  let f = { f_id = t.next_id; f_name = name_id; f_start = clock (); f_child = 0 } in
  t.next_id <- t.next_id + 1;
  t.stack <- f :: t.stack;
  f

(* Close the innermost span, optionally under another name than it was
   opened with (the outcome of a call is often only known after it). *)
let leave ?as_ t f =
  let stop = clock () in
  let dur = stop - f.f_start in
  let name_id = Option.value as_ ~default:f.f_name in
  (match t.stack with
   | top :: rest when top == f -> t.stack <- rest
   | _ -> invalid_arg "Pb_trace.leave: spans must nest");
  let parent =
    match t.stack with
    | p :: _ ->
      p.f_child <- p.f_child + dur;
      p.f_id
    | [] -> -1
  in
  let a = t.aggs.(name_id) in
  a.count <- a.count + 1;
  a.total_ns <- a.total_ns + dur;
  a.self_ns <- a.self_ns + dur - f.f_child;
  if t.kept < cap then begin
    let k = t.kept in
    t.sp_id.(k) <- f.f_id;
    t.sp_parent.(k) <- parent;
    t.sp_name.(k) <- name_id;
    t.sp_start.(k) <- f.f_start;
    t.sp_dur.(k) <- dur;
    t.kept <- k + 1
  end

let span t name_id f =
  let fr = enter t name_id in
  match f () with
  | r ->
    leave t fr;
    r
  | exception e ->
    leave t fr;
    raise e

(* Counts and probe times recorded at the same boundaries as the
   spans. *)
let add t key x =
  Hashtbl.replace t.counts key
    (x +. Option.value (Hashtbl.find_opt t.counts key) ~default:0.)

let count t key n = add t key (float_of_int n)
let get t key = Option.value (Hashtbl.find_opt t.counts key) ~default:0.

let agg t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> t.aggs.(i)
  | None -> { count = 0; total_ns = 0; self_ns = 0 }

let total_ns t s = float_of_int (agg t s).total_ns
let self_ns t s = float_of_int (agg t s).self_ns
let calls t s = (agg t s).count

(* Mean duration per call, in ns (0 when never called). *)
let mean_ns t s =
  let a = agg t s in
  if a.count = 0 then 0. else float_of_int a.total_ns /. float_of_int a.count

(* One header line (names, aggregates, counts), then one line per kept
   span: [id, parent, name, start_ns, dur_ns]. *)
let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let open Obs.Json in
      let names = Array.of_list (List.rev t.name_list) in
      output_string oc
        (to_string
           (Obj
              [
                ("names", List (Array.to_list (Array.map (fun s -> String s) names)));
                ( "aggregates",
                  Obj
                    (Array.to_list
                       (Array.mapi
                          (fun i s ->
                            let a = t.aggs.(i) in
                            ( s,
                              Obj
                                [ ("count", Int a.count);
                                  ("total_ns", Int a.total_ns);
                                  ("self_ns", Int a.self_ns) ] ))
                          names)) );
                ( "counts",
                  Obj
                    (Hashtbl.fold (fun k v acc -> (k, Float v) :: acc) t.counts
                       []
                    |> List.sort compare) );
                ("spans_total", Int t.next_id);
                ("spans_kept", Int t.kept);
              ]));
      output_char oc '\n';
      for k = 0 to t.kept - 1 do
        Printf.fprintf oc "[%d,%d,%d,%d,%d]\n" t.sp_id.(k) t.sp_parent.(k)
          t.sp_name.(k) t.sp_start.(k) t.sp_dur.(k)
      done)
