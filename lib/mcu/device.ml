type clock_impl =
  | Clock_none
  | Clock_hw of { width : int; divider_log2 : int }
  | Clock_sw of { lsb_width : int; divider_log2 : int }

type key_location = Key_in_rom | Key_in_flash

let region_boot = "rom_boot"
let region_attest = "rom_attest"
let region_clock = "rom_clock"
let region_app = "flash_app"
let region_untrusted = "untrusted"

let timer_vector = 1
let code_clock_entry = 0x003000

(* Fixed memory map; sizes chosen so the attested RAM matches the paper's
   512 KB Siskiyou Peak figure by default. *)
let base_rom_boot = 0x000000
let base_rom_attest = 0x001000
let base_rom_clock = 0x003000
let base_rom_key = 0x004000
let base_flash_app = 0x010000
let base_nvram = 0x020000
let base_ram = 0x100000
let base_idt = 0x800000
let base_irq_ctrl = 0x800100
let base_clock_msb = 0x800200
let base_actuator = 0x800300
let base_anchor_scratch = 0x800400

type genesis = {
  g_ram_size : int;
  g_mpu_capacity : int;
  g_clock_impl : clock_impl;
  g_key_location : key_location;
  g_key : string;
  g_attest_app_flash : bool;
}

type t = {
  memory : Memory.t;
  cpu : Cpu.t;
  mpu : Ea_mpu.t;
  interrupt : Interrupt.t;
  energy : Energy.t;
  clock : Clock.t option;
  key_addr : int;
  genesis : genesis;
}

(* Wire the CPU, interrupt controller, energy meter and clock around a
   provisioned [memory]: the one assembly step behind [create],
   [power_cycle] and [clone]. *)
let assemble g ~energy ~mpu memory =
  let cpu = Cpu.create memory mpu ~clock_hz:Timing.siskiyou_hz in
  let interrupt =
    Interrupt.create cpu ~idt_base:base_idt ~vectors:64 ~ctrl_addr:base_irq_ctrl
  in
  Cpu.on_advance cpu (fun _ n kind ->
      match kind with
      | Cpu.Work -> Energy.consume_cycles energy n
      | Cpu.Idle ->
        Energy.consume_sleep energy
          ~seconds:(float_of_int n /. float_of_int Timing.siskiyou_hz));
  let clock =
    match g.g_clock_impl with
    | Clock_none -> None
    | Clock_hw { width; divider_log2 } ->
      Some (Clock.create_hw_counter cpu ~width ~divider_log2)
    | Clock_sw { lsb_width; divider_log2 } ->
      Some
        (Clock.create_sw_clock cpu interrupt ~lsb_width ~divider_log2
           ~msb_addr:base_clock_msb ~timer_vector ~handler_entry:code_clock_entry
           ~handler_region:region_clock)
  in
  let key_addr =
    match g.g_key_location with
    | Key_in_rom -> base_rom_key
    | Key_in_flash -> base_nvram + 0x80
  in
  { memory; cpu; mpu; interrupt; energy; clock; key_addr; genesis = g }

let create ?(ram_size = 512 * 1024) ?(mpu_capacity = 8) ?(clock_impl = Clock_none)
    ?(key_location = Key_in_rom) ?energy ?(rom_images = []) ?(attest_app_flash = false)
    ~key () =
  if String.length key = 0 || String.length key > 64 then
    invalid_arg "Device.create: key must be 1..64 bytes";
  let open Region in
  let memory =
    Memory.create
      [
        make ~name:region_boot ~base:base_rom_boot ~size:4096 ~kind:Rom;
        make ~name:region_attest ~base:base_rom_attest ~size:8192 ~kind:Rom;
        make ~name:region_clock ~base:base_rom_clock ~size:1024 ~kind:Rom;
        make ~name:"rom_key" ~base:base_rom_key ~size:64 ~kind:Rom;
        make ~name:region_app ~base:base_flash_app ~size:65536 ~kind:Flash;
        make ~name:"nvram" ~base:base_nvram ~size:256 ~kind:Flash;
        make ~name:"ram" ~base:base_ram ~size:ram_size ~kind:Ram;
        make ~name:"idt" ~base:base_idt ~size:256 ~kind:Ram;
        make ~name:"irq_ctrl" ~base:base_irq_ctrl ~size:16 ~kind:Mmio;
        make ~name:"clock_msb" ~base:base_clock_msb ~size:8 ~kind:Ram;
        make ~name:"actuator" ~base:base_actuator ~size:16 ~kind:Mmio;
        make ~name:"anchor_scratch" ~base:base_anchor_scratch ~size:512 ~kind:Ram;
      ]
  in
  let g =
    {
      g_ram_size = ram_size;
      g_mpu_capacity = mpu_capacity;
      g_clock_impl = clock_impl;
      g_key_location = key_location;
      g_key = key;
      g_attest_app_flash = attest_app_flash;
    }
  in
  let energy = match energy with Some e -> e | None -> Energy.create () in
  let t = assemble g ~energy ~mpu:(Ea_mpu.create ~capacity:mpu_capacity) memory in
  (* provision the key, then seal ROM *)
  Memory.write_bytes memory t.key_addr key;
  List.iter
    (fun (region_name, code) ->
      let r = Memory.region_named memory region_name in
      if String.length code > r.Region.size then
        invalid_arg
          (Printf.sprintf "Device.create: image for %s exceeds region" region_name);
      Memory.write_bytes memory r.Region.base code)
    rom_images;
  Memory.seal_rom memory;
  t

(* Reboot: non-volatile regions (ROM + flash) carry over byte-exact,
   shared copy-on-write with the old instance; the battery object is
   shared (charge does not reset); everything else starts from reset. *)
let power_cycle t =
  assemble t.genesis ~energy:t.energy
    ~mpu:(Ea_mpu.create ~capacity:t.genesis.g_mpu_capacity)
    (Memory.power_cycle t.memory)

let clone t =
  if Cpu.cycles_int t.cpu <> 0 || Cpu.faults t.cpu <> [] then
    invalid_arg "Device.clone: the device has already run";
  assemble t.genesis ~energy:(Energy.copy t.energy) ~mpu:(Ea_mpu.copy t.mpu)
    (Memory.clone t.memory)

let memory t = t.memory
let cpu t = t.cpu
let mpu t = t.mpu
let interrupt t = t.interrupt
let energy t = t.energy
let clock t = t.clock
let clock_impl t = t.genesis.g_clock_impl
let key_addr t = t.key_addr
let key_len t = String.length t.genesis.g_key
let counter_addr _ = base_nvram
let clock_msb_addr _ = base_clock_msb
let idt_base _ = base_idt
let idt_size t = Interrupt.idt_size t.interrupt
let irq_ctrl_addr _ = base_irq_ctrl
let attested_base _ = base_ram
let attested_len t = t.genesis.g_ram_size

let attested_ranges t =
  (base_ram, t.genesis.g_ram_size)
  :: (if t.genesis.g_attest_app_flash then [ (base_flash_app, 65536) ] else [])

let attested_total_len t =
  List.fold_left (fun acc (_, len) -> acc + len) 0 (attested_ranges t)

let rule_protect_key t =
  {
    Ea_mpu.rule_name = "K_attest";
    data_base = t.key_addr;
    data_size = key_len t;
    read_by = Ea_mpu.Code_in [ region_attest ];
    write_by = Ea_mpu.Nobody;
  }

let rule_protect_counter _ =
  {
    Ea_mpu.rule_name = "counter_R";
    data_base = base_nvram;
    data_size = 8;
    read_by = Ea_mpu.Anyone;
    write_by = Ea_mpu.Code_in [ region_attest ];
  }

let rule_protect_clock_msb _ =
  {
    Ea_mpu.rule_name = "Clock_MSB";
    data_base = base_clock_msb;
    data_size = 8;
    read_by = Ea_mpu.Anyone;
    write_by = Ea_mpu.Code_in [ region_clock ];
  }

let rule_protect_idt t =
  {
    Ea_mpu.rule_name = "IDT";
    data_base = base_idt;
    data_size = idt_size t;
    read_by = Ea_mpu.Anyone;
    write_by = Ea_mpu.Nobody;
  }

let actuator_addr _ = base_actuator
let anchor_scratch_addr _ = base_anchor_scratch

let rule_protect_actuator _ =
  {
    Ea_mpu.rule_name = "actuator";
    data_base = base_actuator;
    data_size = 16;
    read_by = Ea_mpu.Anyone;
    write_by = Ea_mpu.Code_in [ region_app ];
  }

let rule_protect_irq_ctrl _ =
  {
    Ea_mpu.rule_name = "IRQ_ctrl";
    data_base = base_irq_ctrl;
    data_size = 16;
    read_by = Ea_mpu.Anyone;
    write_by = Ea_mpu.Nobody;
  }

let fill_ram_deterministic t ~seed =
  let prng = Ra_crypto.Prng.create seed in
  (* chunked writes keep allocation bounded for large RAM sizes *)
  let chunk = 4096 in
  let ram_size = t.genesis.g_ram_size in
  let rec loop off =
    if off < ram_size then begin
      let n = min chunk (ram_size - off) in
      Memory.write_bytes t.memory (base_ram + off) (Ra_crypto.Prng.bytes prng n);
      loop (off + n)
    end
  in
  loop 0

let idle t ~seconds = Cpu.idle_seconds t.cpu seconds

let observe_gauges ?registry ?(labels = []) t =
  let set name v =
    Ra_obs.Registry.Gauge.set (Ra_obs.Registry.Gauge.get ?registry ~labels name) v
  in
  set "ra_device_cycles" (Int64.to_float (Cpu.cycles t.cpu));
  set "ra_device_work_cycles" (Int64.to_float (Cpu.work_cycles t.cpu));
  set "ra_device_energy_consumed_joules" (Energy.consumed_joules t.energy);
  set "ra_device_energy_remaining_joules" (Energy.remaining_joules t.energy);
  set "ra_device_faults" (float_of_int (List.length (Cpu.faults t.cpu)))
