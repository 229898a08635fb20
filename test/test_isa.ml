open Ra_isa
module Memory = Ra_mcu.Memory
module Region = Ra_mcu.Region
module Ea_mpu = Ra_mcu.Ea_mpu
module Cpu = Ra_mcu.Cpu

(* a small machine: code at 0x0000 (app) and 0x2000 (trusted), data RAM
   at 0x4000, a protected secret at 0x6000, stack at top of RAM *)
let make () =
  let memory =
    Memory.create
      [
        Region.make ~name:"app" ~base:0x0000 ~size:0x1000 ~kind:Region.Flash;
        Region.make ~name:"trusted" ~base:0x2000 ~size:0x1000 ~kind:Region.Rom;
        Region.make ~name:"ram" ~base:0x4000 ~size:0x1000 ~kind:Region.Ram;
        Region.make ~name:"secret" ~base:0x6000 ~size:0x20 ~kind:Region.Ram;
      ]
  in
  let mpu = Ea_mpu.create ~capacity:4 in
  Ea_mpu.program mpu
    {
      Ea_mpu.rule_name = "secret";
      data_base = 0x6000;
      data_size = 0x20;
      read_by = Ea_mpu.Code_in [ "trusted" ];
      write_by = Ea_mpu.Code_in [ "trusted" ];
    };
  let cpu = Cpu.create memory mpu ~clock_hz:24_000_000 in
  (memory, cpu)

let assemble_at origin src =
  match Asm.assemble ~origin src with
  | Ok p -> p
  | Error e -> Alcotest.failf "assembly failed: %a" Asm.pp_error e

let run_app ?(sp = 0x5000) src =
  let memory, cpu = make () in
  let program = assemble_at 0x0000 src in
  Asm.load memory program;
  Memory.seal_rom memory;
  let core = Core.create cpu ~pc:0x0000 ~sp in
  let state, steps = Core.run core in
  (core, state, steps, memory)

let check_state = Alcotest.testable Core.pp_state (fun a b -> a = b)

(* ---- encode/decode ---- *)

let arbitrary_insn =
  let open QCheck.Gen in
  let reg = int_range 0 15 in
  let operand = oneof [ map (fun r -> Insn.Reg r) reg; map (fun v -> Insn.Imm v) (int_range 0 0xFFFFFF) ] in
  let offset = int_range (-1000) 1000 in
  let addr = map (fun v -> v * 2) (int_range 0 0x7FFF) in
  let cond =
    oneofl
      [ Insn.Always; Insn.If_zero; Insn.If_not_zero; Insn.If_carry; Insn.If_not_carry;
        Insn.If_negative ]
  in
  QCheck.make ~print:(Format.asprintf "%a" Insn.pp)
    (oneof
       [
         return Insn.Nop;
         return Insn.Halt;
         return Insn.Ret;
         map2 (fun d s -> Insn.Mov (d, s)) reg operand;
         map2 (fun d s -> Insn.Add (d, s)) reg operand;
         map2 (fun d s -> Insn.Sub (d, s)) reg operand;
         map2 (fun d s -> Insn.Cmp (d, s)) reg operand;
         map2 (fun d s -> Insn.And (d, s)) reg operand;
         map2 (fun d s -> Insn.Or (d, s)) reg operand;
         map2 (fun d s -> Insn.Xor (d, s)) reg operand;
         map2 (fun d s -> Insn.Shl (d, s)) reg operand;
         map2 (fun d s -> Insn.Shr (d, s)) reg operand;
         map2 (fun d s -> Insn.Rol (d, s)) reg operand;
         map3 (fun a b o -> Insn.Load (a, b, o)) reg reg offset;
         map3 (fun a b o -> Insn.Store (a, b, o)) reg reg offset;
         map3 (fun a b o -> Insn.Loadb (a, b, o)) reg reg offset;
         map3 (fun a b o -> Insn.Storeb (a, b, o)) reg reg offset;
         map2 (fun c t -> Insn.Jump (c, t)) cond addr;
         map (fun t -> Insn.Call t) addr;
         map (fun r -> Insn.Push r) reg;
         map (fun r -> Insn.Pop r) reg;
       ])

let qcheck_encode_decode =
  QCheck.Test.make ~name:"isa: decode . encode = id" ~count:500 arbitrary_insn
    (fun insn ->
      let words = Array.of_list (Insn.encode insn) in
      let decoded, size = Insn.decode ~fetch:(fun i -> words.(i)) ~at:0 in
      decoded = insn && size = Array.length words)

(* ---- arithmetic & flags ---- *)

let test_arithmetic () =
  let core, state, _, _ =
    run_app
      {|
        mov r1, #10
        add r1, #32
        mov r2, r1
        sub r2, #2
        halt
      |}
  in
  Alcotest.check check_state "halted" Core.Halted state;
  Alcotest.(check int) "r1" 42 (Core.reg core 1);
  Alcotest.(check int) "r2" 40 (Core.reg core 2)

let test_flags () =
  let core, _, _, _ =
    run_app {|
      mov r1, #5
      cmp r1, #5
      halt
    |}
  in
  Alcotest.(check bool) "zero set" true (Core.zero_flag core);
  Alcotest.(check bool) "carry set (no borrow)" true (Core.carry_flag core);
  let core2, _, _, _ =
    run_app {|
      mov r1, #3
      sub r1, #5
      halt
    |}
  in
  Alcotest.(check bool) "borrow clears carry" false (Core.carry_flag core2);
  Alcotest.(check bool) "negative set" true (Core.negative_flag core2);
  Alcotest.(check int) "wraparound" ((3 - 5) land 0xFFFFFFFF) (Core.reg core2 1)

let test_logic () =
  let core, _, _, _ =
    run_app
      {|
        mov r1, #0xF0
        and r1, #0x3C
        mov r2, #0xF0
        or  r2, #0x0F
        mov r3, #0xFF
        xor r3, #0x0F
        halt
      |}
  in
  Alcotest.(check int) "and" 0x30 (Core.reg core 1);
  Alcotest.(check int) "or" 0xFF (Core.reg core 2);
  Alcotest.(check int) "xor" 0xF0 (Core.reg core 3)

let test_shifts () =
  let core, _, _, _ =
    run_app
      {|
        mov r1, #1
        shl r1, #4        ; 16
        mov r2, #0x80
        shr r2, #3        ; 16
        mov r3, #0x80000001
        rol r3, #1        ; 3
        mov r4, #5
        mov r5, #2
        shl r4, r5        ; 20
        halt
      |}
  in
  Alcotest.(check int) "shl imm" 16 (Core.reg core 1);
  Alcotest.(check int) "shr imm" 16 (Core.reg core 2);
  Alcotest.(check int) "rol wraps bit 31" 3 (Core.reg core 3);
  Alcotest.(check int) "shl reg" 20 (Core.reg core 4)

let test_rotate_checksum () =
  (* a rotate-xor checksum — the shape of a real software-attestation
     inner loop — over 4 RAM bytes *)
  let memory, cpu = make () in
  Memory.write_bytes memory 0x4000 "\x01\x02\x03\x04";
  let app =
    assemble_at 0x0000
      {|
        mov r1, #0x4000
        mov r2, #0x4004
        mov r3, #0
      loop:
        loadb r4, [r1]
        xor r3, r4
        rol r3, #5
        add r1, #1
        cmp r1, r2
        jnz loop
        halt
      |}
  in
  Asm.load memory app;
  Memory.seal_rom memory;
  let core = Core.create cpu ~pc:0x0000 ~sp:0x5000 in
  let state, _ = Core.run core in
  Alcotest.check check_state "halted" Core.Halted state;
  (* reference computation *)
  let expected =
    List.fold_left
      (fun acc b -> let v = acc lxor b in ((v lsl 5) lor (v lsr 27)) land 0xFFFFFFFF)
      0 [ 1; 2; 3; 4 ]
  in
  Alcotest.(check int) "matches reference" expected (Core.reg core 3)

(* ---- control flow ---- *)

let test_loop () =
  (* sum 1..10 *)
  let core, state, steps, _ =
    run_app
      {|
        mov r1, #0      ; acc
        mov r2, #1      ; i
      loop:
        add r1, r2
        add r2, #1
        cmp r2, #11
        jnz loop
        halt
      |}
  in
  Alcotest.check check_state "halted" Core.Halted state;
  Alcotest.(check int) "sum" 55 (Core.reg core 1);
  Alcotest.(check bool) "looped" true (steps > 30)

let test_call_ret_stack () =
  let core, state, _, _ =
    run_app
      {|
        mov r1, #7
        call double
        add r1, #1
        halt
      double:
        add r1, r1
        ret
      |}
  in
  Alcotest.check check_state "halted" Core.Halted state;
  Alcotest.(check int) "2*7+1" 15 (Core.reg core 1)

let test_push_pop () =
  let core, _, _, _ =
    run_app
      {|
        mov r1, #111
        mov r2, #222
        push r1
        push r2
        pop r3
        pop r4
        halt
      |}
  in
  Alcotest.(check int) "lifo r3" 222 (Core.reg core 3);
  Alcotest.(check int) "lifo r4" 111 (Core.reg core 4)

(* ---- memory ---- *)

let test_load_store () =
  let core, _, _, memory =
    run_app
      {|
        mov r1, #0x4000
        mov r2, #0xDEAD
        store [r1], r2
        load r3, [r1]
        mov r4, #0x41
        storeb [r1+8], r4
        loadb r5, [r1+8]
        halt
      |}
  in
  Alcotest.(check int) "store/load" 0xDEAD (Core.reg core 3);
  Alcotest.(check int) "byte" 0x41 (Core.reg core 5);
  Alcotest.(check int) "in memory" 0xDEAD (Memory.read_u32 memory 0x4000)

(* ---- EA-MPU at instruction granularity ---- *)

let test_app_denied_secret () =
  let _, state, _, _ =
    run_app {|
      mov r1, #0x6000
      load r2, [r1]
      halt
    |}
  in
  (match state with
  | Core.Trapped (Core.Trap_protection f) ->
    Alcotest.(check string) "attributed to app code" "app" f.Cpu.fault_code;
    Alcotest.(check int) "faulting address" 0x6000 f.Cpu.fault_addr
  | s -> Alcotest.failf "expected protection trap, got %a" Core.pp_state s)

let trusted_reader_src = {|
      mov r1, #0x6000
      load r2, [r1]
      mov r3, #0x4000
      store [r3], r2
      ret
    |}

let test_trusted_code_allowed () =
  let memory, cpu = make () in
  (* trusted routine in ROM reads the secret and copies it to RAM *)
  let trusted = assemble_at 0x2000 trusted_reader_src in
  Asm.load memory trusted;
  let app =
    assemble_at 0x0000 {|
      call 0x2000
      halt
    |}
  in
  Asm.load memory app;
  Memory.write_u32 memory 0x6000 0xC0FFEE;
  Memory.seal_rom memory;
  let core = Core.create cpu ~pc:0x0000 ~sp:0x5000 in
  let state, _ = Core.run core in
  Alcotest.check check_state "halted" Core.Halted state;
  Alcotest.(check int) "secret copied by trusted code" 0xC0FFEE
    (Memory.read_u32 memory 0x4000)

let test_entry_point_enforcement () =
  let memory, cpu = make () in
  let trusted = assemble_at 0x2000 trusted_reader_src in
  Asm.load memory trusted;
  (* the app jumps PAST the entry point, into the middle of the trusted
     routine (the §6.2 runtime attack) *)
  let app = assemble_at 0x0000 {|
      call 0x2008
      halt
    |} in
  Asm.load memory app;
  Memory.seal_rom memory;
  let core = Core.create cpu ~pc:0x0000 ~sp:0x5000 in
  Core.allow_entries core ~region:"trusted" [ 0x2000 ];
  let state, _ = Core.run core in
  (match state with
  | Core.Trapped (Core.Trap_entry { target = 0x2008; region = "trusted"; _ }) -> ()
  | s -> Alcotest.failf "expected entry trap, got %a" Core.pp_state s);
  (* the declared entry point still works *)
  let core2 = Core.create cpu ~pc:0x0000 ~sp:0x5000 in
  Core.allow_entries core2 ~region:"trusted" [ 0x2000 ];
  let app2 = assemble_at 0x0000 {|
      call 0x2000
      halt
    |} in
  Asm.load memory app2 (* fails: ROM sealed? app is Flash, fine *);
  let state2, _ = Core.run core2 in
  Alcotest.check check_state "legitimate entry ok" Core.Halted state2

let test_rom_store_traps () =
  let _, state, _, _ =
    run_app {|
      mov r1, #0x2000
      mov r2, #1
      store [r1], r2
      halt
    |}
  in
  (match state with
  | Core.Trapped (Core.Trap_bus _) -> ()
  | s -> Alcotest.failf "expected bus trap, got %a" Core.pp_state s)

let test_unmapped_traps () =
  let _, state, _, _ = run_app {|
      jmp 0x9000
    |} in
  (match state with
  | Core.Trapped (Core.Trap_bus _) -> ()
  | s -> Alcotest.failf "expected bus trap, got %a" Core.pp_state s)

let test_cycles_charged () =
  let memory, cpu = make () in
  let app = assemble_at 0x0000 {|
      mov r1, #1
      add r1, #2
      halt
    |} in
  Asm.load memory app;
  Memory.seal_rom memory;
  let core = Core.create cpu ~pc:0x0000 ~sp:0x5000 in
  let _ = Core.run core in
  (* mov-imm (3w) + add-imm (3w) + halt (1w) = 7 cycles *)
  Alcotest.(check int64) "cycle count" 7L (Cpu.cycles cpu)

(* ---- checksum routine: a miniature software attestation sweep ---- *)

let test_checksum_program () =
  let memory, cpu = make () in
  Memory.write_bytes memory 0x4000 "abcdef";
  let app =
    assemble_at 0x0000
      {|
        mov r1, #0x4000   ; cursor
        mov r2, #0x4006   ; limit
        mov r3, #0        ; checksum
      loop:
        loadb r4, [r1]
        add r3, r4
        add r1, #1
        cmp r1, r2
        jnz loop
        halt
      |}
  in
  Asm.load memory app;
  Memory.seal_rom memory;
  let core = Core.create cpu ~pc:0x0000 ~sp:0x5000 in
  let state, _ = Core.run core in
  Alcotest.check check_state "halted" Core.Halted state;
  let expected = Char.code 'a' + Char.code 'b' + Char.code 'c' + Char.code 'd'
                 + Char.code 'e' + Char.code 'f' in
  Alcotest.(check int) "checksum" expected (Core.reg core 3)

(* ---- assembler errors ---- *)

let test_asm_errors () =
  let bad src =
    match Asm.assemble ~origin:0 src with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "bad mnemonic" true (bad "frobnicate r1, r2");
  Alcotest.(check bool) "bad register" true (bad "mov r99, #1");
  Alcotest.(check bool) "undefined label" true (bad "jmp nowhere");
  Alcotest.(check bool) "duplicate label" true (bad "a:\na:\nhalt");
  Alcotest.(check bool) "good program" false (bad "halt")

let test_asm_labels () =
  let p = assemble_at 0x100 "start:\n  nop\n  jmp start\n  halt" in
  Alcotest.(check int) "label address" 0x100 (Asm.label p "start");
  Alcotest.(check int) "size: nop(1w) jmp(3w) halt(1w)" 10 (Asm.size_bytes p)

let test_disassemble_roundtrip () =
  let src = {|
    start:
      mov r1, #0x4000
      loadb r2, [r1+3]
      push r2
      call fn
      halt
    fn:
      pop r3
      ret
  |} in
  let p = assemble_at 0x200 src in
  let listing = Asm.disassemble_bytes ~origin:0x200 (Asm.to_bytes p) in
  Alcotest.(check int) "all instructions recovered" (List.length p.Asm.instructions)
    (List.length listing);
  List.iteri
    (fun i (addr, insn) ->
      Alcotest.(check bool) (Printf.sprintf "insn %d decodes identically" i) true
        (insn = List.nth p.Asm.instructions i);
      if i = 0 then Alcotest.(check int) "first address" 0x200 addr)
    listing

let test_disassemble_stops_on_garbage () =
  (* word 0x0000 is nop; word 0x0F00 is an illegal misc sub-opcode *)
  let bytes = "\x00\x00\x00\x0f" in
  let listing = Asm.disassemble_bytes ~origin:0 bytes in
  Alcotest.(check int) "stops after the nop" 1 (List.length listing)

let test_listing_contains_labels () =
  let p = assemble_at 0 "start:\n  nop\n  jmp start\n  halt" in
  let text = Asm.listing p in
  Alcotest.(check bool) "label shown" true
    (String.length text > 0
    && (let re = "start:" in
        let rec find i =
          i + String.length re <= String.length text
          && (String.sub text i (String.length re) = re || find (i + 1))
        in
        find 0))

let qcheck_disassemble_inverse_of_assemble =
  QCheck.Test.make ~name:"isa: disassemble . encode = id over programs" ~count:100
    QCheck.(list_of_size Gen.(1 -- 10) arbitrary_insn)
    (fun instructions ->
      let bytes =
        String.concat ""
          (List.map
             (fun insn ->
               String.concat ""
                 (List.map
                    (fun w ->
                      String.init 2 (fun i -> Char.chr ((w lsr (8 * i)) land 0xff)))
                    (Insn.encode insn)))
             instructions)
      in
      List.map snd (Asm.disassemble_bytes ~origin:0 bytes) = instructions)

let test_run_bound () =
  let _, state, steps, _ = run_app ~sp:0x5000 "spin:\n  jmp spin" in
  Alcotest.check check_state "still running at bound" Core.Running state;
  Alcotest.(check int) "hit the bound" 1_000_000 steps

(* ---- the decode cache ----------------------------------------------

   Decoded instructions are cached per region's bytes and revalidated
   after writes; an instruction that runs off its region's end is never
   cached. None of it may be visible in what executes. *)

let words_bytes words =
  String.concat ""
    (List.map (fun w -> String.init 2 (fun i -> Char.chr ((w lsr (8 * i)) land 0xff))) words)

(* decode straight off the bus, the way an uncached fetch reads *)
let bus_decode memory ~pc =
  Insn.decode
    ~fetch:(fun i -> Memory.read_byte memory (2 * i) lor (Memory.read_byte memory ((2 * i) + 1) lsl 8))
    ~at:(pc / 2)

let test_self_modifying_code () =
  (* the loop runs [patch] once, then overwrites its first two words
     with an [add] and runs it again: the new instruction must execute *)
  let src =
    {|
      mov r5, #0
    again:
    patch:
      mov r1, #1
      add r5, #1
      cmp r5, #2
      jz done
      store [r7+0], r6
      jmp again
    done:
      halt
    |}
  in
  List.iter
    (fun origin ->
      let memory, cpu = make () in
      let program = assemble_at origin src in
      Asm.load memory program;
      let core = Core.create cpu ~pc:origin ~sp:0x5000 in
      let patched = Insn.encode (Insn.Add (1, Insn.Imm 0x1234)) in
      Core.set_reg core 7 (Asm.label program "patch");
      Core.set_reg core 6 (List.nth patched 0 lor (List.nth patched 1 lsl 16));
      let state, _ = Core.run core in
      Alcotest.check check_state "halted" Core.Halted state;
      Alcotest.(check int) (Printf.sprintf "patched add ran (code at 0x%x)" origin) 0x1235
        (Core.reg core 1))
    [ 0x0000 (* writable flash *); 0x4000 (* RAM *) ]

let test_straddling_jump_uncached () =
  let memory =
    Memory.create
      [
        Region.make ~name:"lo" ~base:0x0000 ~size:0x100 ~kind:Region.Flash;
        Region.make ~name:"hi" ~base:0x0100 ~size:0x100 ~kind:Region.Flash;
      ]
  in
  let cpu = Cpu.create memory (Ea_mpu.create ~capacity:0) ~clock_hz:24_000_000 in
  (* jmp at 0xFC: opcode and low target word in "lo", high word in "hi" *)
  Memory.write_bytes memory 0xFC (words_bytes (Insn.encode (Insn.Jump (Insn.Always, 0x10))));
  Memory.write_bytes memory 0x10 (words_bytes (Insn.encode Insn.Halt));
  Alcotest.(check bool) "bus decode" true (bus_decode memory ~pc:0xFC = (Insn.Jump (Insn.Always, 0x10), 3));
  let core = Core.create cpu ~pc:0xFC ~sp:0 in
  Alcotest.check check_state "jumps" Core.Running (Core.step core);
  Alcotest.(check int) "to the target" 0x10 (Core.pc core);
  Alcotest.(check int64) "three words, three cycles" 3L (Cpu.cycles cpu);
  (* rewrite the high target word in "hi": a cache keyed on "lo" alone
     would still jump to 0x10 *)
  Memory.write_bytes memory 0x100 (words_bytes [ 0x0001 ]);
  Core.force_pc core 0xFC;
  Alcotest.check check_state "new target read off the bus"
    (Core.Trapped (Core.Trap_bus "jump to unmapped 0x010010"))
    (Core.step core);
  (* a jump in the last word of memory faults fetching its target,
     exactly as the bus decode does *)
  Memory.write_bytes memory 0x1FE (words_bytes [ List.hd (Insn.encode (Insn.Jump (Insn.Always, 0))) ]);
  let expected =
    match bus_decode memory ~pc:0x1FE with
    | _ -> Alcotest.fail "decode past the end of memory succeeded"
    | exception Memory.Bus_fault msg -> Core.Trapped (Core.Trap_bus msg)
  in
  Core.force_pc core 0x1FE;
  Alcotest.check check_state "same fault" expected (Core.step core)

let test_clone_write_isolated () =
  let memory =
    Memory.create
      [
        Region.make ~name:"app" ~base:0x0000 ~size:0x1000 ~kind:Region.Flash;
        Region.make ~name:"ram" ~base:0x4000 ~size:0x1000 ~kind:Region.Ram;
      ]
  in
  Asm.load memory (assemble_at 0 "mov r1, #7\nhalt");
  let run m =
    let core = Core.create (Cpu.create m (Ea_mpu.create ~capacity:0) ~clock_hz:24_000_000) ~pc:0 ~sp:0x5000 in
    ignore (Core.run core);
    Core.reg core 1
  in
  Alcotest.(check int) "prototype" 7 (run memory);
  let clone = Memory.clone memory and sibling = Memory.clone memory in
  Alcotest.(check int) "clone, shared flash" 7 (run clone);
  Memory.write_bytes clone 0 (words_bytes (Insn.encode (Insn.Mov (1, Insn.Imm 9))));
  Alcotest.(check int) "clone runs its own write" 9 (run clone);
  Alcotest.(check int) "prototype unchanged" 7 (run memory);
  Alcotest.(check int) "sibling clone unchanged" 7 (run sibling)

(* Every first word: [Insn.decode] returns or raises [Invalid_argument]
   only, and one step gives the same machine state when the instruction
   is decoded cold, served warm from the cache (a clone sharing the code
   bytes), or fetched off the bus because its extension words lie in the
   next region. *)
let test_every_first_word () =
  let ext = [ 0x0010; 0x0000 ] in
  let code ~split =
    if split then
      [
        Region.make ~name:"code" ~base:0x000 ~size:0x102 ~kind:Region.Flash;
        Region.make ~name:"code" ~base:0x102 ~size:0x0FE ~kind:Region.Flash;
      ]
    else [ Region.make ~name:"code" ~base:0x000 ~size:0x200 ~kind:Region.Flash ]
  in
  let machine ~split w0 =
    let memory =
      Memory.create (code ~split @ [ Region.make ~name:"ram" ~base:0x200 ~size:0x200 ~kind:Region.Ram ])
    in
    Memory.write_bytes memory 0x100 (words_bytes (w0 :: ext));
    memory
  in
  let step memory =
    let cpu = Cpu.create memory (Ea_mpu.create ~capacity:0) ~clock_hz:24_000_000 in
    let core = Core.create cpu ~pc:0x100 ~sp:0x3F0 in
    for r = 0 to 15 do
      Core.set_reg core r (0x200 + (8 * r))
    done;
    let state = Core.step core in
    ( Format.asprintf "%a" Core.pp_state state,
      (Core.pc core, Core.sp core, List.init 16 (Core.reg core)),
      (Core.zero_flag core, Core.carry_flag core, Core.negative_flag core),
      (Cpu.cycles cpu, Memory.read_bytes memory 0x200 0x200) )
  in
  let bad = ref 0 and first = ref "" in
  for w0 = 0 to 0xFFFF do
    (match Insn.decode ~fetch:(fun i -> if i = 0 then w0 else List.nth ext (i - 1)) ~at:0 with
    | _ -> ()
    | exception Invalid_argument _ -> ()
    | exception e -> Alcotest.failf "decode 0x%04x raised %s" w0 (Printexc.to_string e));
    let cold = machine ~split:false w0 in
    let warm = Memory.clone cold in
    let a = step cold in
    let b = step warm in
    let c = step (machine ~split:true w0) in
    if a <> b || a <> c then begin
      if !bad = 0 then first := Printf.sprintf "0x%04x" w0;
      incr bad
    end
  done;
  Alcotest.(check (pair int string)) "no first word steps differently" (0, "") (!bad, !first)

let tests =
  [
    QCheck_alcotest.to_alcotest qcheck_encode_decode;
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "flags" `Quick test_flags;
    Alcotest.test_case "logic" `Quick test_logic;
    Alcotest.test_case "shifts/rotates" `Quick test_shifts;
    Alcotest.test_case "rotate-xor checksum" `Quick test_rotate_checksum;
    Alcotest.test_case "loop" `Quick test_loop;
    Alcotest.test_case "call/ret" `Quick test_call_ret_stack;
    Alcotest.test_case "push/pop" `Quick test_push_pop;
    Alcotest.test_case "load/store" `Quick test_load_store;
    Alcotest.test_case "EA-MPU denies app" `Quick test_app_denied_secret;
    Alcotest.test_case "EA-MPU allows trusted" `Quick test_trusted_code_allowed;
    Alcotest.test_case "entry-point enforcement (§6.2)" `Quick
      test_entry_point_enforcement;
    Alcotest.test_case "ROM store traps" `Quick test_rom_store_traps;
    Alcotest.test_case "unmapped jump traps" `Quick test_unmapped_traps;
    Alcotest.test_case "cycles charged" `Quick test_cycles_charged;
    Alcotest.test_case "checksum sweep" `Quick test_checksum_program;
    Alcotest.test_case "assembler errors" `Quick test_asm_errors;
    Alcotest.test_case "assembler labels & sizes" `Quick test_asm_labels;
    Alcotest.test_case "disassemble roundtrip" `Quick test_disassemble_roundtrip;
    Alcotest.test_case "disassemble stops on garbage" `Quick
      test_disassemble_stops_on_garbage;
    Alcotest.test_case "listing shows labels" `Quick test_listing_contains_labels;
    QCheck_alcotest.to_alcotest qcheck_disassemble_inverse_of_assemble;
    Alcotest.test_case "run bound" `Slow test_run_bound;
    Alcotest.test_case "self-modifying code" `Quick test_self_modifying_code;
    Alcotest.test_case "straddling jump decodes off the bus" `Quick
      test_straddling_jump_uncached;
    Alcotest.test_case "clone flash write isolated" `Quick test_clone_write_isolated;
    Alcotest.test_case "every first word: cold = warm = bus" `Quick test_every_first_word;
  ]
