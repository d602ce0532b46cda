type outcome =
  | Finished
  | Faulted of Semantics.fault

type engine =
  | Interp
  | Compiled

let engine_to_string = function
  | Interp -> "interp"
  | Compiled -> "compiled"

type result = {
  outcome : outcome;
  cycles : int;
  executed : int;
}

module Counters = struct
  type snapshot = {
    runs : int;
    instrs : int;
    cycles : int;
    faults : int;
  }

  let enabled = Atomic.make false
  let runs = Atomic.make 0
  let instrs = Atomic.make 0
  let cycles = Atomic.make 0
  let faults = Atomic.make 0

  let enable () = Atomic.set enabled true
  let disable () = Atomic.set enabled false
  let is_enabled () = Atomic.get enabled

  let reset () =
    List.iter (fun c -> Atomic.set c 0) [ runs; instrs; cycles; faults ]

  let snapshot () =
    {
      runs = Atomic.get runs;
      instrs = Atomic.get instrs;
      cycles = Atomic.get cycles;
      faults = Atomic.get faults;
    }

  let record ~run_cycles ~run_instrs ~faulted =
    Atomic.incr runs;
    ignore (Atomic.fetch_and_add instrs run_instrs);
    ignore (Atomic.fetch_and_add cycles run_cycles);
    if faulted then Atomic.incr faults
end

let run (m : Machine.t) (p : Program.t) =
  let cycles = ref 0 in
  let executed = ref 0 in
  let slots = p.Program.slots in
  let n = Array.length slots in
  let rec go idx =
    if idx >= n then Finished
    else
      match slots.(idx) with
      | Program.Unused -> go (idx + 1)
      | Program.Active i ->
        (match Semantics.step m i with
         | Ok () ->
           cycles := !cycles + Latency.of_instr i;
           incr executed;
           go (idx + 1)
         | Error f ->
           cycles := !cycles + Latency.of_instr i;
           incr executed;
           Faulted f)
  in
  let outcome = go 0 in
  if Atomic.get Counters.enabled then
    Counters.record ~run_cycles:!cycles ~run_instrs:!executed
      ~faulted:(match outcome with Finished -> false | Faulted _ -> true);
  { outcome; cycles = !cycles; executed = !executed }

let run_testcase ~mem_size p tc =
  let m = Machine.create ~mem_size () in
  Testcase.apply tc m;
  let r = run m p in
  (m, r)

let outcome_is_signal = function
  | Finished -> false
  | Faulted _ -> true

let outcome_to_string = function
  | Finished -> "finished"
  | Faulted f -> Semantics.fault_to_string f
