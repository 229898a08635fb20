type fault = {
  fault_code : string;
  fault_addr : int;
  fault_mode : Ea_mpu.mode;
}

exception Protection_fault of fault

type advance = Work | Idle

type t = {
  memory : Memory.t;
  mpu : Ea_mpu.t;
  clock_hz : int;
  mutable cycles : int;
  mutable work_cycles : int;
  mutable context : string;
  mutable faults : fault list;
  mutable listeners : (t -> int -> advance -> unit) list; (* newest first *)
}

let create memory mpu ~clock_hz =
  if clock_hz <= 0 then invalid_arg "Cpu.create: clock_hz must be positive";
  {
    memory;
    mpu;
    clock_hz;
    cycles = 0;
    work_cycles = 0;
    context = "untrusted";
    faults = [];
    listeners = [];
  }

let memory t = t.memory
let mpu t = t.mpu
let clock_hz t = t.clock_hz
let cycles t = Int64.of_int t.cycles
let work_cycles t = Int64.of_int t.work_cycles
let cycles_int t = t.cycles

let on_advance t f = t.listeners <- f :: t.listeners

let rec notify t n kind = function
  | [] -> ()
  | f :: rest ->
    f t n kind;
    notify t n kind rest

let advance t n kind =
  if n < 0 then invalid_arg "Cpu: negative cycle advance";
  if n > max_int - t.cycles then invalid_arg "Cpu: cycle counter overflow";
  t.cycles <- t.cycles + n;
  (match kind with Work -> t.work_cycles <- t.work_cycles + n | Idle -> ());
  notify t n kind t.listeners

(* an int64 delta reaches the native counter only if it fits it *)
let native n =
  if Int64.compare n 0L < 0 then invalid_arg "Cpu: negative cycle advance";
  if Int64.compare n (Int64.of_int max_int) > 0 then
    invalid_arg "Cpu: cycle advance exceeds the counter";
  Int64.to_int n

let consume_cycles t n = advance t (native n) Work
let consume_cycles_int t n = advance t n Work
let idle_cycles t n = advance t (native n) Idle

let idle_seconds t s =
  if s < 0.0 then invalid_arg "Cpu.idle_seconds: negative";
  idle_cycles t (Int64.of_float (s *. float_of_int t.clock_hz))

let elapsed_seconds t = float_of_int t.cycles /. float_of_int t.clock_hz

let context t = t.context
let set_context t ctx = t.context <- ctx

let with_context t ctx f =
  let prev = t.context in
  t.context <- ctx;
  match f () with
  | v ->
    t.context <- prev;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    t.context <- prev;
    Printexc.raise_with_backtrace e bt

let faults t = t.faults

let deny t addr mode =
  let fault = { fault_code = t.context; fault_addr = addr; fault_mode = mode } in
  t.faults <- fault :: t.faults;
  Ra_obs.Registry.Counter.inc
    (Ra_obs.Registry.Counter.get
       ~labels:[ ("context", t.context) ]
       "ra_mpu_violations_total");
  raise (Protection_fault fault)

let guard t addr len mode =
  if not (Ea_mpu.check_range t.mpu ~code:t.context ~addr ~len mode) then deny t addr mode

let load_byte t addr =
  guard t addr 1 Ea_mpu.Read;
  Memory.read_byte t.memory addr

let store_byte t addr v =
  guard t addr 1 Ea_mpu.Write;
  Memory.write_byte t.memory addr v

let load_bytes t addr len =
  if len = 0 then ""
  else begin
    guard t addr len Ea_mpu.Read;
    Memory.read_bytes t.memory addr len
  end

let store_bytes t addr s =
  if String.length s > 0 then begin
    guard t addr (String.length s) Ea_mpu.Write;
    Memory.write_bytes t.memory addr s
  end

let load_u32 t addr =
  guard t addr 4 Ea_mpu.Read;
  Memory.read_u32 t.memory addr

let store_u32 t addr v =
  guard t addr 4 Ea_mpu.Write;
  Memory.write_u32 t.memory addr v

let load_u64 t addr =
  guard t addr 8 Ea_mpu.Read;
  Memory.read_u64 t.memory addr

let store_u64 t addr v =
  guard t addr 8 Ea_mpu.Write;
  Memory.write_u64 t.memory addr v
