module Cpu = Ra_mcu.Cpu
module Memory = Ra_mcu.Memory
module Region = Ra_mcu.Region

type trap =
  | Trap_protection of Cpu.fault
  | Trap_bus of string
  | Trap_illegal of string
  | Trap_entry of { source : int; target : int; region : string }

type state = Running | Halted | Trapped of trap

let mask32 = 0xFFFFFFFF

type hook = {
  h_period : int;
  h_sample : pc:int -> cycles:int -> unit;
  h_call : target:int -> unit;
  h_ret : unit -> unit;
  h_irq_enter : entry:int -> unit;
  h_irq_exit : unit -> unit;
}

(* One decoded instruction: everything [step] needs without touching
   memory. [raw] packs the instruction's encoded words (16 bits each,
   first word lowest) so a cached slot can be revalidated against the
   current bytes after a write into its region. *)
type slot = {
  insn : Insn.t;
  len : int; (* bytes *)
  cost : int; (* cycles *)
  raw : int;
  mutable gen : int; (* the region generation this slot was last checked at *)
}

let no_slot = { insn = Insn.Nop; len = 0; cost = 0; raw = -1; gen = -1 }

(* The decoded instructions of one region's bytes, one slot per even
   address in pages of [page_slots], a page allocated when code in it is
   first fetched — so a region holds at most ceil(size/2) slots. *)
let page_bits = 8
let page_slots = 1 lsl page_bits

type code = { key : string; pages : slot array array }

let no_code = { key = ""; pages = [||] }

(* Decoded code lives with the memory cell it came from, not with the
   core: [Sha1_asm] builds a fresh core per block, and sealed ROM shares
   its bytes across every clone of a prototype. The table is keyed on
   the physical identity of the cell's view of those bytes (a
   copy-on-write copy is a new key) and
   bounded to a few regions; each domain keeps its own, so no cache state
   is shared across domains. *)
type decode_cache = { entries : code array; mutable victim : int }

let cache_entries = 8

let decode_cache =
  Domain.DLS.new_key (fun () ->
      { entries = Array.make cache_entries no_code; victim = 0 })

let code_for bytes =
  let c = Domain.DLS.get decode_cache in
  let rec find i =
    if i = cache_entries then begin
      let pages = (String.length bytes + (2 * page_slots) - 1) / (2 * page_slots) in
      let code = { key = bytes; pages = Array.make pages [||] } in
      c.entries.(c.victim) <- code;
      c.victim <- (c.victim + 1) mod cache_entries;
      code
    end
    else if c.entries.(i).key == bytes then c.entries.(i)
    else find (i + 1)
  in
  find 0

type t = {
  cpu : Cpu.t;
  mem : Memory.t; (* the CPU's *)
  regs : int array;
  mutable pc : int;
  mutable sp : int;
  mutable z : bool;
  mutable c : bool;
  mutable n : bool;
  entries : (string, int list) Hashtbl.t;
  mutable hook : hook option;
  (* the sample countdown: cycles left before the hook's next sample.
     Every instruction decrements it, hooked or not, so the hook costs
     nothing per instruction; with no hook it runs from [max_int] and the
     credit waits in [parked] *)
  mutable sleft : int;
  mutable parked : int;
  (* the region the PC was last found in: index, bounds, name, cell, and
     the decoded code of the bytes that backed it when last fetched *)
  mutable r_idx : int;
  mutable r_base : int;
  mutable r_limit : int;
  mutable r_name : string;
  mutable r_cell : Memory.cell;
  mutable r_code : code;
}

(* a placeholder until the first step locates the PC: the empty bounds
   [r_base, r_limit) make that step look the region up *)
let no_cell =
  Memory.cell (Memory.create [ Region.make ~name:"" ~base:0 ~size:1 ~kind:Region.Ram ]) 0

let create cpu ~pc ~sp =
  { cpu; mem = Cpu.memory cpu; regs = Array.make 16 0; pc; sp; z = false; c = false;
    n = false; entries = Hashtbl.create 4; hook = None; sleft = max_int; parked = 0;
    r_idx = -1; r_base = 0; r_limit = 0; r_name = ""; r_cell = no_cell; r_code = no_code }

let sample_credit t =
  match t.hook with Some h -> h.h_period - t.sleft | None -> t.parked

let set_sample_credit t credit =
  match t.hook with Some h -> t.sleft <- h.h_period - credit | None -> t.parked <- credit

let set_hook t hook =
  let credit = sample_credit t in
  t.hook <- hook;
  t.sleft <- max_int;
  set_sample_credit t credit

let hook t = t.hook

(* The countdown ran out: report the whole credit and restart it. *)
let sample t left =
  match t.hook with
  | Some h ->
    t.sleft <- h.h_period;
    h.h_sample ~pc:t.pc ~cycles:(h.h_period - left)
  | None -> t.sleft <- max_int

let pc t = t.pc
let sp t = t.sp

let reg t i =
  if i < 0 || i > 15 then invalid_arg "Core.reg";
  t.regs.(i)

let set_reg t i v =
  if i < 0 || i > 15 then invalid_arg "Core.set_reg";
  t.regs.(i) <- v land mask32

let zero_flag t = t.z
let carry_flag t = t.c
let negative_flag t = t.n

let force_pc t pc = t.pc <- pc
let force_sp t sp = t.sp <- sp

let allow_entries t ~region addrs = Hashtbl.replace t.entries region addrs

let region_of t addr = Memory.region_of_addr t.mem addr

let current_region t = Option.map (fun r -> r.Region.name) (region_of t t.pc)

(* Point the region cache at the region holding [addr]; false when it is
   unmapped. *)
let locate t addr =
  match Memory.index_of t.mem addr with
  | -1 -> false
  | i ->
    let r = Memory.region t.mem i in
    t.r_idx <- i;
    t.r_base <- r.Region.base;
    t.r_limit <- Region.limit r;
    t.r_name <- r.Region.name;
    t.r_cell <- Memory.cell t.mem i;
    t.r_code <- no_code;
    true

(* instruction fetch is a hardware bus read, not an MPU-mediated data
   access; word index i addresses bytes 2i, 2i+1 *)
let fetch_word t i =
  Memory.read_byte t.mem (2 * i) lor (Memory.read_byte t.mem ((2 * i) + 1) lsl 8)

let cycles_of insn =
  let base = Insn.size_words insn in
  match insn with
  | Insn.Load _ | Insn.Store _ | Insn.Loadb _ | Insn.Storeb _ -> base + 2
  | Insn.Push _ | Insn.Pop _ -> base + 2
  | Insn.Call _ | Insn.Ret -> base + 2
  | Insn.Nop | Insn.Halt | Insn.Mov _ | Insn.Add _ | Insn.Sub _ | Insn.Cmp _
  | Insn.And _ | Insn.Or _ | Insn.Xor _ | Insn.Shl _ | Insn.Shr _ | Insn.Rol _
  | Insn.Jump _ ->
    base

exception Outside_region

(* The packed words of an instruction [words] long at byte offset [off]. *)
let raw_at bytes off words =
  let acc = ref 0 in
  for j = words - 1 downto 0 do
    acc := (!acc lsl 16) lor String.get_uint16_le bytes (off + (2 * j))
  done;
  !acc

(* Decode at [pc] through the region cache. An instruction lying wholly
   in the region is decoded from its bytes and cached; one that runs off
   the region's end decodes through the raw bus path (faults, neighbour
   bytes and all) on every fetch, as if there were no cache. An illegal
   encoding raises [Invalid_argument] either way and is not cached. *)
let decode t pc =
  let cell = t.r_cell in
  let bytes = cell.Memory.view in
  let code =
    if t.r_code.key == bytes then t.r_code
    else begin
      let code = code_for bytes in
      t.r_code <- code;
      code
    end
  in
  let k = (pc - t.r_base) lsr 1 in
  let page = code.pages.(k lsr page_bits) in
  let gen = cell.Memory.gen in
  let s = if Array.length page = 0 then no_slot else page.(k land (page_slots - 1)) in
  if s.gen = gen then s
  else if s != no_slot && raw_at bytes (pc - t.r_base) (s.len / 2) = s.raw then begin
    s.gen <- gen;
    s
  end
  else begin
    let base = t.r_base and limit = t.r_limit in
    let fetch w =
      if (2 * w) + 2 > limit then raise_notrace Outside_region
      else String.get_uint16_le bytes ((2 * w) - base)
    in
    match Insn.decode ~fetch ~at:(pc / 2) with
    | insn, words ->
      let s =
        { insn; len = 2 * words; cost = cycles_of insn;
          raw = raw_at bytes (pc - base) words; gen }
      in
      let page =
        if Array.length page > 0 then page
        else begin
          (* the last page stops at the region's last even address *)
          let first = k land lnot (page_slots - 1) in
          let slots = (String.length bytes + 1) / 2 in
          let p = Array.make (min page_slots (slots - first)) no_slot in
          code.pages.(k lsr page_bits) <- p;
          p
        end
      in
      page.(k land (page_slots - 1)) <- s;
      s
    | exception Outside_region ->
      let insn, words = Insn.decode ~fetch:(fetch_word t) ~at:(pc / 2) in
      { insn; len = 2 * words; cost = cycles_of insn; raw = -1; gen = -1 }
  end

let set_flags_logical t result =
  t.z <- result land mask32 = 0;
  t.n <- result land 0x80000000 <> 0

(* Control transfer with §6.2 entry-point enforcement: entering a
   registered region from outside it must hit a declared entry point.
   The source is the region of the transferring instruction, still the
   cached one unless an interrupt taken during the instruction moved the
   cache (the handler restores the PC, not the cache). *)
let transfer t ~target =
  let m = t.mem in
  match Memory.index_of m target with
  | -1 -> Trapped (Trap_bus (Printf.sprintf "jump to unmapped 0x%06x" target))
  | dest_idx when dest_idx = t.r_idx && t.pc >= t.r_base && t.pc < t.r_limit ->
    t.pc <- target;
    Running
  | dest_idx ->
    let dest = (Memory.region m dest_idx).Region.name in
    let crossing =
      match region_of t t.pc with
      | Some src -> src.Region.name <> dest
      | None -> true
    in
    (match Hashtbl.find_opt t.entries dest with
    | Some allowed when crossing && not (List.mem target allowed) ->
      Trapped (Trap_entry { source = t.pc; target; region = dest })
    | Some _ | None ->
      t.pc <- target;
      Running)

let operand_value t = function
  | Insn.Reg r -> t.regs.(r)
  | Insn.Imm v -> v land mask32

let condition_met t = function
  | Insn.Always -> true
  | Insn.If_zero -> t.z
  | Insn.If_not_zero -> not t.z
  | Insn.If_carry -> t.c
  | Insn.If_not_carry -> not t.c
  | Insn.If_negative -> t.n

let execute t pc =
  let slot = decode t pc in
  let cyc = slot.cost in
  Cpu.consume_cycles_int t.cpu cyc;
  (* out-of-band observation: the core counts cycle credit itself, so
     the sampler closure only fires once per crossed period *)
  let left = t.sleft - cyc in
  if left > 0 then t.sleft <- left else sample t left;
  let next = t.pc + slot.len in
  match slot.insn with
  | Insn.Nop ->
    t.pc <- next;
    Running
  | Insn.Halt -> Halted
  | Insn.Mov (d, s) ->
    t.regs.(d) <- operand_value t s;
    t.pc <- next;
    Running
  | Insn.Add (d, s) ->
    let sum = t.regs.(d) + operand_value t s in
    t.c <- sum > mask32;
    t.regs.(d) <- sum land mask32;
    set_flags_logical t t.regs.(d);
    t.pc <- next;
    Running
  | Insn.Sub (d, s) ->
    let a = t.regs.(d) and b = operand_value t s in
    t.c <- a >= b (* MSP430-style: carry = no borrow *);
    t.regs.(d) <- (a - b) land mask32;
    set_flags_logical t t.regs.(d);
    t.pc <- next;
    Running
  | Insn.Cmp (d, s) ->
    let a = t.regs.(d) and b = operand_value t s in
    t.c <- a >= b;
    set_flags_logical t ((a - b) land mask32);
    t.pc <- next;
    Running
  | Insn.And (d, s) ->
    t.regs.(d) <- t.regs.(d) land operand_value t s;
    set_flags_logical t t.regs.(d);
    t.pc <- next;
    Running
  | Insn.Or (d, s) ->
    t.regs.(d) <- t.regs.(d) lor operand_value t s;
    set_flags_logical t t.regs.(d);
    t.pc <- next;
    Running
  | Insn.Xor (d, s) ->
    t.regs.(d) <- t.regs.(d) lxor operand_value t s;
    set_flags_logical t t.regs.(d);
    t.pc <- next;
    Running
  | Insn.Shl (d, s) ->
    let n = operand_value t s land 31 in
    t.regs.(d) <- (t.regs.(d) lsl n) land mask32;
    set_flags_logical t t.regs.(d);
    t.pc <- next;
    Running
  | Insn.Shr (d, s) ->
    let n = operand_value t s land 31 in
    t.regs.(d) <- t.regs.(d) lsr n;
    set_flags_logical t t.regs.(d);
    t.pc <- next;
    Running
  | Insn.Rol (d, s) ->
    let n = operand_value t s land 31 in
    let v = t.regs.(d) in
    t.regs.(d) <- ((v lsl n) lor (v lsr (32 - n))) land mask32;
    set_flags_logical t t.regs.(d);
    t.pc <- next;
    Running
  | Insn.Load (d, base, off) ->
    t.regs.(d) <- Cpu.load_u32 t.cpu (t.regs.(base) + off);
    t.pc <- next;
    Running
  | Insn.Store (base, s, off) ->
    Cpu.store_u32 t.cpu (t.regs.(base) + off) t.regs.(s);
    t.pc <- next;
    Running
  | Insn.Loadb (d, base, off) ->
    t.regs.(d) <- Cpu.load_byte t.cpu (t.regs.(base) + off);
    t.pc <- next;
    Running
  | Insn.Storeb (base, s, off) ->
    Cpu.store_byte t.cpu (t.regs.(base) + off) (t.regs.(s) land 0xff);
    t.pc <- next;
    Running
  | Insn.Jump (cond, target) ->
    if condition_met t cond then transfer t ~target
    else begin
      t.pc <- next;
      Running
    end
  | Insn.Call target ->
    t.sp <- t.sp - 4;
    Cpu.store_u32 t.cpu t.sp next;
    (match t.hook with None -> () | Some h -> h.h_call ~target);
    transfer t ~target
  | Insn.Ret ->
    let target = Cpu.load_u32 t.cpu t.sp in
    t.sp <- t.sp + 4;
    (match t.hook with None -> () | Some h -> h.h_ret ());
    transfer t ~target
  | Insn.Push r ->
    t.sp <- t.sp - 4;
    Cpu.store_u32 t.cpu t.sp t.regs.(r);
    t.pc <- next;
    Running
  | Insn.Pop r ->
    t.regs.(r) <- Cpu.load_u32 t.cpu t.sp;
    t.sp <- t.sp + 4;
    t.pc <- next;
    Running

let step t =
  let pc = t.pc in
  if pc land 1 <> 0 then Trapped (Trap_illegal (Printf.sprintf "misaligned PC 0x%06x" pc))
  else if (pc < t.r_base || pc >= t.r_limit) && not (locate t pc) then
    Trapped (Trap_bus (Printf.sprintf "execute from unmapped 0x%06x" pc))
  else begin
    (* all effects of this instruction are attributed to the region the
       PC is in — this is the execution-aware part of EA-MAC. The context
       is restored on every exit, as [Cpu.with_context] would; when the
       caller already runs as this region (the anchor calls its routine
       from its own context) there is nothing to switch. Everything that
       switches context inside an instruction restores it, so skipping
       the switch leaves the same context behind. *)
    let cpu = t.cpu in
    let prev = Cpu.context cpu in
    let switch = prev != t.r_name in
    if switch then Cpu.set_context cpu t.r_name;
    match execute t pc with
    | state ->
      if switch then Cpu.set_context cpu prev;
      state
    | exception Cpu.Protection_fault fault ->
      if switch then Cpu.set_context cpu prev;
      Trapped (Trap_protection fault)
    | exception Memory.Bus_fault msg ->
      if switch then Cpu.set_context cpu prev;
      Trapped (Trap_bus msg)
    | exception Invalid_argument msg ->
      if switch then Cpu.set_context cpu prev;
      Trapped (Trap_illegal msg)
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      if switch then Cpu.set_context cpu prev;
      Printexc.raise_with_backtrace e bt
  end

let run ?(max_steps = 1_000_000) t =
  let rec loop steps =
    if steps >= max_steps then (Running, steps)
    else
      match step t with
      | Running -> loop (steps + 1)
      | (Halted | Trapped _) as final -> (final, steps + 1)
  in
  loop 0

let pp_trap fmt = function
  | Trap_protection f ->
    Format.fprintf fmt "protection fault: %s touched 0x%06x" f.Cpu.fault_code
      f.Cpu.fault_addr
  | Trap_bus msg -> Format.fprintf fmt "bus fault: %s" msg
  | Trap_illegal msg -> Format.fprintf fmt "illegal instruction: %s" msg
  | Trap_entry { source; target; region } ->
    Format.fprintf fmt "entry violation: 0x%06x -> 0x%06x (%s)" source target region

let pp_state fmt = function
  | Running -> Format.pp_print_string fmt "running"
  | Halted -> Format.pp_print_string fmt "halted"
  | Trapped trap -> Format.fprintf fmt "trapped (%a)" pp_trap trap
