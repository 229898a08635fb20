(* The interpreted trust anchor: the attestation report is computed by
   in-ISA SHA-1, every attested byte crossing the EA-MPU with the PC in
   rom_attest — and the unmodified Verifier accepts it. *)
open Ra_core
module Device = Ra_mcu.Device
module Memory = Ra_mcu.Memory
module Cpu = Ra_mcu.Cpu
module Ea_mpu = Ra_mcu.Ea_mpu
module Timing = Ra_mcu.Timing
module Simtime = Ra_net.Simtime

let sym_key = "K_attest_0123456789." (* 20 bytes *)

let make ?(protect = true) () =
  let blob = Auth.prover_key_blob ~sym_key ~public:None in
  let device =
    Device.create ~ram_size:2048
      ~rom_images:[ (Device.region_attest, Isa_anchor.rom_image ()) ]
      ~key:blob ()
  in
  Device.fill_ram_deterministic device ~seed:11L;
  if protect then begin
    Ea_mpu.program (Device.mpu device) (Device.rule_protect_key device);
    Ea_mpu.program (Device.mpu device) (Device.rule_protect_counter device);
    (* the anchor's scratch is its private working memory *)
    Ea_mpu.program (Device.mpu device)
      {
        Ea_mpu.rule_name = "anchor_scratch";
        data_base = Device.anchor_scratch_addr device;
        data_size = Ra_isa.Sha1_asm.scratch_bytes;
        read_by = Ea_mpu.Code_in [ Device.region_attest ];
        write_by = Ea_mpu.Code_in [ Device.region_attest ];
      };
    Ea_mpu.lock (Device.mpu device)
  end;
  let anchor =
    Isa_anchor.install device ~scheme:(Some Timing.Auth_hmac_sha1)
      ~policy:Freshness.Counter
  in
  let verifier =
    match
      Verifier.of_config
        (Verifier.Config.v ~scheme:Timing.Auth_hmac_sha1
           ~freshness_kind:Verifier.Fk_counter ~sym_key ~time:(Simtime.create ())
           ~reference_image:(Isa_anchor.measure_memory anchor) ())
    with
    | Ok v -> v
    | Error msg -> Alcotest.fail msg
  in
  (device, anchor, verifier)

let test_end_to_end_trusted () =
  let _, anchor, verifier = make () in
  let req = Verifier.make_request verifier in
  match Isa_anchor.handle_request anchor req with
  | Ok resp ->
    Alcotest.(check bool) "verifier accepts the interpreted MAC" true
      (Verifier.check_response_r verifier ~request:req resp = Verdict.Trusted)
  | Error e -> Alcotest.failf "rejected: %a" Code_attest.pp_reject e

let test_report_equals_host_crypto () =
  let _, anchor, verifier = make () in
  let req = Verifier.make_request verifier in
  match Isa_anchor.handle_request anchor req with
  | Ok resp ->
    let expected =
      Auth.response_report ~sym_key
        ~body:(Message.response_body resp)
        ~memory_image:(Isa_anchor.measure_memory anchor)
    in
    Alcotest.(check string) "bit-identical to Hmac.mac"
      (Ra_crypto.Hexutil.to_hex expected)
      (Ra_crypto.Hexutil.to_hex resp.Message.report)
  | Error e -> Alcotest.failf "rejected: %a" Code_attest.pp_reject e

let test_detects_infection () =
  let device, anchor, verifier = make () in
  Memory.write_bytes (Device.memory device) (Device.attested_base device) "IMPLANT";
  let req = Verifier.make_request verifier in
  match Isa_anchor.handle_request anchor req with
  | Ok resp ->
    Alcotest.(check bool) "untrusted" true
      (Verifier.check_response_r verifier ~request:req resp = Verdict.Untrusted_state)
  | Error e -> Alcotest.failf "rejected: %a" Code_attest.pp_reject e

let test_freshness_enforced () =
  let _, anchor, verifier = make () in
  let req = Verifier.make_request verifier in
  (match Isa_anchor.handle_request anchor req with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first rejected: %a" Code_attest.pp_reject e);
  match Isa_anchor.handle_request anchor req with
  | Error (Code_attest.Not_fresh _) -> ()
  | Ok _ -> Alcotest.fail "replay attested"
  | Error e -> Alcotest.failf "wrong reject: %a" Code_attest.pp_reject e

let test_bad_auth_rejected () =
  let _, anchor, _ = make () in
  let req =
    { Message.challenge = "evil"; freshness = Message.F_counter 1L; tag = Message.Tag_none }
  in
  match Isa_anchor.handle_request anchor req with
  | Error Code_attest.Bad_auth -> ()
  | Ok _ -> Alcotest.fail "unauthenticated request attested"
  | Error e -> Alcotest.failf "wrong reject: %a" Code_attest.pp_reject e

let test_interpreted_cost_visible () =
  let device, anchor, verifier = make () in
  let req = Verifier.make_request verifier in
  let before = Cpu.work_cycles (Device.cpu device) in
  (match Isa_anchor.handle_request anchor req with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "rejected: %a" Code_attest.pp_reject e);
  let spent = Int64.sub (Cpu.work_cycles (Device.cpu device)) before in
  (* ~2 KB + body over interpreted SHA-1 at ~8.2k cycles/block: the
     measurement dominates and is 100% real executed work *)
  Alcotest.(check bool) "mac cycles recorded" true
    (Int64.compare (Isa_anchor.last_mac_cycles anchor) 200_000L > 0);
  Alcotest.(check bool) "work charged to the device" true
    (Int64.compare spent (Isa_anchor.last_mac_cycles anchor) >= 0)

let test_scratch_protected_from_malware () =
  let device, _, _ = make () in
  (try
     ignore (Cpu.load_byte (Device.cpu device) (Device.anchor_scratch_addr device));
     Alcotest.fail "scratch read by untrusted code should fault"
   with Cpu.Protection_fault _ -> ())

let test_install_requires_rom_image () =
  let blob = Auth.prover_key_blob ~sym_key ~public:None in
  let bare = Device.create ~ram_size:2048 ~key:blob () in
  Alcotest.check_raises "missing routine"
    (Invalid_argument
       "Isa_anchor.install: rom_attest does not hold the SHA-1 routine (pass rom_images \
        at Device.create)") (fun () ->
      ignore
        (Isa_anchor.install bare ~scheme:(Some Timing.Auth_hmac_sha1)
           ~policy:Freshness.Counter))

(* ---- pinned simulated outputs ---------------------------------------

   The interpreted anchor's simulated outputs are the paper model's, so
   host-time work on the core (decode caching, the compiled EA-MPU,
   native-int cycle counting) must leave every one of them bit-for-bit
   unchanged. The values below were captured from the straightforward
   interpreter (decode per step, list-scanned MPU rules, Int64 cycles).
   Energy is a float sum taken per instruction, so it also pins the order
   and granularity of cycle advances. *)

module Energy = Ra_mcu.Energy
module Interrupt = Ra_mcu.Interrupt

(* the cost-ladder [isa] device: 4 KiB RAM, three rules, locked *)
let ladder_device () =
  let sym_key = "fleet-master-key-07!" in
  let device =
    Device.create ~ram_size:4096
      ~rom_images:[ (Device.region_attest, Isa_anchor.rom_image ()) ]
      ~key:(Auth.prover_key_blob ~sym_key ~public:None)
      ()
  in
  Device.fill_ram_deterministic device ~seed:1L;
  let mpu = Device.mpu device in
  Ea_mpu.program mpu (Device.rule_protect_key device);
  Ea_mpu.program mpu (Device.rule_protect_counter device);
  Ea_mpu.program mpu
    {
      Ea_mpu.rule_name = "anchor_scratch";
      data_base = Device.anchor_scratch_addr device;
      data_size = Ra_isa.Sha1_asm.scratch_bytes;
      read_by = Ea_mpu.Code_in [ Device.region_attest ];
      write_by = Ea_mpu.Code_in [ Device.region_attest ];
    };
  Ea_mpu.lock mpu;
  let anchor =
    Isa_anchor.install device ~scheme:(Some Timing.Auth_hmac_sha1) ~policy:Freshness.Counter
  in
  let verifier =
    match
      Verifier.of_config
        (Verifier.Config.v ~scheme:Timing.Auth_hmac_sha1 ~freshness_kind:Verifier.Fk_counter
           ~sym_key ~time:(Simtime.create ())
           ~reference_image:(Isa_anchor.measure_memory anchor) ())
    with
    | Ok v -> v
    | Error msg -> Alcotest.fail msg
  in
  (device, anchor, verifier)

let test_pinned_anchor_round () =
  let device, anchor, verifier = ladder_device () in
  let req = Verifier.make_request verifier in
  (match Isa_anchor.handle_request anchor req with
  | Ok resp ->
    Alcotest.(check string) "report bytes" "8b60b46ec078391231ba0b446a673807c4b0f4ec"
      (Ra_crypto.Hexutil.to_hex resp.Message.report);
    Alcotest.(check bool) "trusted" true
      (Verifier.check_response_r verifier ~request:req resp = Verdict.Trusted)
  | Error e -> Alcotest.failf "rejected: %a" Code_attest.pp_reject e);
  let cpu = Device.cpu device in
  Alcotest.(check int64) "last_mac_cycles" 638404L (Isa_anchor.last_mac_cycles anchor);
  Alcotest.(check int64) "cycles" 648772L (Cpu.cycles cpu);
  Alcotest.(check int64) "work cycles" 648772L (Cpu.work_cycles cpu);
  Alcotest.(check int64) "energy bits" 0x3f35424b42e380f6L
    (Int64.bits_of_float (Energy.consumed_joules (Device.energy device)));
  Alcotest.(check int) "no faults" 0 (List.length (Cpu.faults cpu))

(* Clock_sw with an interpreted Code_clock: a foreground loop (loads,
   stores, call/ret, push/pop) crosses six wraps of a 16-bit LSB, and the
   cycle count at each delivery is pinned. *)
let code_clock_src msb_addr =
  Printf.sprintf
    {|
    mov r14, #0x%x
    load r13, [r14]
    add r13, #1
    store [r14], r13
    halt
  |}
    msb_addr

let foreground_src =
  {|
    mov r1, #0
    mov r2, #0x100000
    mov r3, #0
  loop:
    load r4, [r2+0]
    add r4, r1
    store [r2+0], r4
    call bump
    add r1, #1
    cmp r1, #12000
    jnz loop
    halt
  bump:
    push r4
    xor r3, r4
    rol r3, #5
    pop r4
    ret
|}

let clock_run ~hooked =
  let assemble origin src =
    match Ra_isa.Asm.assemble ~origin src with
    | Ok p -> Ra_isa.Asm.to_bytes p
    | Error e -> Alcotest.failf "asm: %a" Ra_isa.Asm.pp_error e
  in
  let key = String.make 60 'k' in
  let msb_addr = Device.clock_msb_addr (Device.create ~ram_size:4096 ~key ()) in
  let device =
    Device.create ~ram_size:4096
      ~clock_impl:(Device.Clock_sw { lsb_width = 16; divider_log2 = 0 })
      ~rom_images:[ (Device.region_clock, assemble 0x003000 (code_clock_src msb_addr)) ]
      ~key ()
  in
  Ea_mpu.program (Device.mpu device) (Device.rule_protect_clock_msb device);
  Ea_mpu.program (Device.mpu device) (Device.rule_protect_idt device);
  Ea_mpu.lock (Device.mpu device);
  Interrupt.enable_all_raw (Device.interrupt device);
  let cpu = Device.cpu device in
  let core = Ra_isa.Core.create cpu ~pc:0x010000 ~sp:0x101000 in
  let deliveries = ref [] in
  if hooked then
    Ra_isa.Core.set_hook core
      (Some
         {
           Ra_isa.Core.h_period = max_int;
           h_sample = (fun ~pc:_ ~cycles:_ -> ());
           h_call = (fun ~target:_ -> ());
           h_ret = (fun () -> ());
           h_irq_enter = (fun ~entry:_ -> deliveries := Cpu.cycles cpu :: !deliveries);
           h_irq_exit = (fun () -> ());
         });
  let completions =
    Ra_isa.Irq.install_handler core (Device.interrupt device) ~vector:Device.timer_vector
      ~entry:0x003000 ()
  in
  Memory.write_bytes (Device.memory device) 0x010000 (assemble 0x010000 foreground_src);
  let state, steps = Ra_isa.Core.run ~max_steps:1_000_000 core in
  Alcotest.(check bool) "halted" true (state = Ra_isa.Core.Halted);
  Alcotest.(check int) "steps" 144004 steps;
  Alcotest.(check int) "completions" 6 (completions ());
  Alcotest.(check int64) "cycles" 432100L (Cpu.cycles cpu);
  Alcotest.(check int64) "work cycles" 432100L (Cpu.work_cycles cpu);
  Alcotest.(check int64) "energy bits" 0x3f2c516f5e5cace8L
    (Int64.bits_of_float (Energy.consumed_joules (Device.energy device)));
  Alcotest.(check int64) "Clock_MSB" 6L
    (Memory.read_u64 (Device.memory device) (Device.clock_msb_addr device));
  Alcotest.(check int) "r3" 0xba032807 (Ra_isa.Core.reg core 3);
  Alcotest.(check int) "no faults" 0 (List.length (Cpu.faults cpu));
  List.rev !deliveries

let test_pinned_clock_irqs () =
  Alcotest.(check (list int64)) "cycles at each IRQ delivery"
    [ 65538L; 131073L; 196608L; 262148L; 327683L; 393218L ]
    (clock_run ~hooked:true);
  Alcotest.(check (list int64)) "no hook, same run" [] (clock_run ~hooked:false)

let tests =
  [
    Alcotest.test_case "pinned anchor round" `Quick test_pinned_anchor_round;
    Alcotest.test_case "pinned Code_clock IRQ cycles" `Quick test_pinned_clock_irqs;
    Alcotest.test_case "end-to-end trusted" `Quick test_end_to_end_trusted;
    Alcotest.test_case "report = host crypto" `Quick test_report_equals_host_crypto;
    Alcotest.test_case "detects infection" `Quick test_detects_infection;
    Alcotest.test_case "freshness enforced" `Quick test_freshness_enforced;
    Alcotest.test_case "bad auth rejected" `Quick test_bad_auth_rejected;
    Alcotest.test_case "interpreted cost visible" `Quick test_interpreted_cost_visible;
    Alcotest.test_case "scratch protected" `Quick test_scratch_protected_from_malware;
    Alcotest.test_case "install requires ROM image" `Quick test_install_requires_rom_image;
  ]
