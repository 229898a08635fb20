module Memory = Ra_mcu.Memory
module Region = Ra_mcu.Region
module Profiler = Ra_obs.Profiler

let default_period = 64

(* One registered program: its extent and its labels sorted by address,
   for nearest-preceding-label symbolization. *)
type symrange = { sr_lo : int; sr_hi : int; sr_syms : (int * string) array }

(* A call stack, interned: the frame pushed by a call (or interrupt entry)
   to a given target from a given stack is always the same node, so a
   stack reached again after ret is recognized without symbolizing or
   hashing frames. Each node remembers the accumulator cells its samples
   resolved to, by the leaf address range over which region, leaf and
   stack are constant. *)
type seen = { lo : int; hi : int; cell : Profiler.Pc.handle }

type node = {
  path : string list; (* call frames, innermost first *)
  parent : node option; (* [None] at the root (empty stack) *)
  children : (int, node) Hashtbl.t; (* by target; irq entries as -(entry+1) *)
  mutable seen : seen list; (* the [lo, hi) leaf ranges resolved so far *)
}

let root () = { path = []; parent = None; children = Hashtbl.create 8; seen = [] }

(* the empty range: no pc is in it *)
let nothing_seen =
  { lo = 0; hi = 0; cell = Profiler.Pc.handle (Profiler.Pc.create ()) ~frames:[] }

type t = {
  s_period : int;
  memory : Memory.t;
  profile : Profiler.Pc.t;
  mutable ranges : symrange list; (* most recently added first *)
  mutable credit : int;
  mutable stack : node;
  mutable last_pc : int; (* -1 before the first instruction *)
  (* sample-path memo: the accumulator cell for the current
     (region, stack, leaf symbol), valid while the sampled pc stays in
     [cur.lo, cur.hi) — the address range over which region, leaf and
     stack are all constant. Invalidated (to the empty range) on any
     stack change, so the steady-state sample is a range check and two
     field writes. *)
  mutable cur : seen;
  (* the core currently counting cycle credit on our behalf; a partial
     period left inside it is pulled back on re-attach and flush so
     attribution stays exact across short-lived cores *)
  mutable cur_core : Core.t option;
}

let create ?(period = default_period) ~memory profile =
  if period < 1 then invalid_arg "Sampler.create: period must be >= 1";
  {
    s_period = period;
    memory;
    profile;
    ranges = [];
    credit = 0;
    stack = root ();
    last_pc = -1;
    cur = nothing_seen;
    cur_core = None;
  }

let period t = t.s_period

let add_program t (program : Asm.program) =
  let syms =
    List.sort (fun (_, a) (_, b) -> compare a b) program.Asm.labels
    |> List.map (fun (name, addr) -> (addr, name))
    |> Array.of_list
  in
  let lo = program.Asm.origin in
  let hi = lo + Asm.size_bytes program in
  t.ranges <- { sr_lo = lo; sr_hi = hi; sr_syms = syms } :: t.ranges;
  (* symbolization just changed: drop every memoized resolution and
     interned frame, keeping the frames already on the stack as they are *)
  let rec rebuild = function
    | [] -> root ()
    | _ :: rest as path ->
      { path; parent = Some (rebuild rest); children = Hashtbl.create 8; seen = [] }
  in
  t.stack <- rebuild t.stack.path;
  t.cur <- nothing_seen

(* Index of the greatest label address <= pc, by binary search. *)
let nearest_label_idx syms pc =
  let n = Array.length syms in
  if n = 0 || fst syms.(0) > pc then None
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if fst syms.(mid) <= pc then lo := mid else hi := mid - 1
    done;
    Some !lo
  end

let nearest_label syms pc =
  match nearest_label_idx syms pc with
  | Some i -> Some (snd syms.(i))
  | None -> None

let symbolize t pc =
  let rec in_ranges = function
    | [] -> None
    | r :: rest ->
      if pc >= r.sr_lo && pc < r.sr_hi then
        match nearest_label r.sr_syms pc with
        | Some _ as s -> s
        | None -> in_ranges rest
      else in_ranges rest
  in
  match in_ranges t.ranges with
  | Some name -> name
  | None -> Printf.sprintf "0x%06x" pc

(* Resolve pc to (leaf, lo, hi): the symbol name plus the address range
   [lo, hi) over which that leaf (and the enclosing region) is constant,
   clipped to the region extent. An unsymbolized or unmapped pc gets the
   degenerate range [pc, pc+1) — its hex leaf is per-address anyway. *)
let resolve_range t pc =
  let leaf_range =
    let rec in_ranges = function
      | [] -> None
      | r :: rest -> (
        if pc >= r.sr_lo && pc < r.sr_hi then
          match nearest_label_idx r.sr_syms pc with
          | Some i ->
            let lo = fst r.sr_syms.(i) in
            let hi =
              if i + 1 < Array.length r.sr_syms then fst r.sr_syms.(i + 1)
              else r.sr_hi
            in
            Some (r, snd r.sr_syms.(i), lo, hi)
          | None -> in_ranges rest
        else in_ranges rest)
    in
    in_ranges t.ranges
  in
  match (leaf_range, Memory.region_of_addr t.memory pc) with
  | Some (matched, leaf, lo, hi), Some r ->
    (* if another registered program overlaps the candidate range, clip
       it so the memo never spans an address where that program would
       shadow (or fall through to) a different symbol *)
    let lo, hi =
      List.fold_left
        (fun (lo, hi) r' ->
          if r' == matched || r'.sr_hi <= lo || r'.sr_lo >= hi then (lo, hi)
          else if pc < r'.sr_lo then (lo, min hi r'.sr_lo)
          else if pc >= r'.sr_hi then (max lo r'.sr_hi, hi)
          else (pc, pc + 1))
        (lo, hi) t.ranges
    in
    (leaf, r.Region.name, max lo r.Region.base, min hi (Region.limit r))
  | Some (_, leaf, _, _), None -> (leaf, "unmapped", pc, pc + 1)
  | None, region ->
    let name = match region with Some r -> r.Region.name | None -> "unmapped" in
    (Printf.sprintf "0x%06x" pc, name, pc, pc + 1)

let rec seen_at pc = function
  | [] -> raise_notrace Not_found
  | s :: rest -> if pc >= s.lo && pc < s.hi then s else seen_at pc rest

(* the accumulator for the current stack at [pc]: the stack's node
   usually knows the range already; otherwise symbolize. A degenerate
   one-address range (unsymbolized or unmapped code) is not remembered,
   so the node's list grows with the stack's labels, not with every pc
   it samples. *)
let resolve_on_stack t pc =
  let node = t.stack in
  match seen_at pc node.seen with
  | s -> s
  | exception Not_found ->
    let leaf, region, lo, hi = resolve_range t pc in
    let frames = region :: List.rev_append node.path [ leaf ] in
    let s = { lo; hi; cell = Profiler.Pc.handle t.profile ~frames } in
    if hi - lo > 1 then node.seen <- s :: node.seen;
    s

let take_sample t =
  (* the memo only invalidates at call/ret/irq or when the pc leaves the
     current symbol's address range, so the steady-state sample is one
     range check and two field writes *)
  let pc = t.last_pc in
  if not (pc >= t.cur.lo && pc < t.cur.hi) then t.cur <- resolve_on_stack t pc;
  Profiler.Pc.bump t.cur.cell ~cycles:t.credit;
  t.credit <- 0

(* The core fires this once per crossed period with the whole credit. *)
let on_sample t ~pc ~cycles =
  t.last_pc <- pc;
  t.credit <- cycles;
  take_sample t

(* Pull back the partial period still counting inside the attached core. *)
let drain t =
  match t.cur_core with
  | None -> ()
  | Some core ->
    t.credit <- t.credit + Core.sample_credit core;
    Core.set_sample_credit core 0;
    t.last_pc <- Core.pc core

let flush t =
  drain t;
  if t.credit > 0 && t.last_pc >= 0 then take_sample t

let invalidate t = t.cur <- nothing_seen

(* Enter the frame a call to [addr] (or an interrupt entering it) pushes
   on the current stack, symbolizing it only the first time this stack
   reaches it. *)
let push t ~irq addr =
  let node = t.stack in
  let key = if irq then -(addr + 1) else addr in
  t.stack <-
    (match Hashtbl.find node.children key with
    | child -> child
    | exception Not_found ->
      let frame = if irq then "irq:" ^ symbolize t addr else symbolize t addr in
      let path = frame :: node.path in
      let child = { path; parent = Some node; children = Hashtbl.create 8; seen = [] } in
      Hashtbl.add node.children key child;
      child);
  invalidate t

let pop t =
  (match t.stack.parent with None -> () | Some parent -> t.stack <- parent);
  invalidate t

let attach t core =
  (match t.cur_core with
  | Some old when old == core -> () (* already counting on this core *)
  | prev ->
    (match prev with Some _ -> drain t | None -> ());
    (* any carried residue seeds the new core's credit, so whatever the
       period, flushed attribution equals executed cycles exactly *)
    Core.set_sample_credit core t.credit;
    t.credit <- 0;
    t.cur_core <- Some core);
  Core.set_hook core
    (Some
       {
         Core.h_period = t.s_period;
         h_sample = (fun ~pc ~cycles -> on_sample t ~pc ~cycles);
         h_call = (fun ~target -> push t ~irq:false target);
         h_ret = (fun () -> pop t);
         h_irq_enter = (fun ~entry -> push t ~irq:true entry);
         h_irq_exit = (fun () -> pop t);
       })
