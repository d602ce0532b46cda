(* Two ways per slot: the instruction the slot holds now and the one it
   held before.  A rejected proposal is undone by writing the old
   instruction back, which then hits the second way instead of being
   derived again. *)
type 'a t = {
  derive : Instr.t -> 'a;
  mutable ways : (Instr.t * 'a) option array;
      (** [ways.(2k)]: slot [k]'s newest entry, [ways.(2k+1)]: the one
          before it *)
}

let create derive = { derive; ways = [||] }

let get t (p : Program.t) k =
  let slots = p.Program.slots in
  if Array.length t.ways <> 2 * Array.length slots then
    t.ways <- Array.make (2 * Array.length slots) None;
  match slots.(k) with
  | Program.Unused -> invalid_arg "Slot_memo.get: unused slot"
  | Program.Active i -> (
    let newest = 2 * k and previous = (2 * k) + 1 in
    match t.ways.(newest) with
    | Some (i', v) when i' == i -> v
    | displaced -> (
      match t.ways.(previous) with
      | Some (i', v) as hit when i' == i ->
        t.ways.(previous) <- displaced;
        t.ways.(newest) <- hit;
        v
      | _ ->
        let v = t.derive i in
        t.ways.(previous) <- displaced;
        t.ways.(newest) <- Some (i, v);
        v))
