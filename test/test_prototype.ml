(* Sessions cloned from a per-domain booted prototype: a clone must be
   indistinguishable from a prover and verifier built from scratch
   ([Session_ref]), copy-on-write memory must keep clones isolated, and
   the per-session heap must stay near the attested RAM. *)
open Ra_core
module Device = Ra_mcu.Device
module Memory = Ra_mcu.Memory
module Cpu = Ra_mcu.Cpu
module Ea_mpu = Ra_mcu.Ea_mpu

let key = String.make 20 'K'
let flash = 0x010000

(* one session's observable state: wire, verdicts, cycles, energy, every
   region's bytes, the EA-MPU table and lock *)
let observe s =
  let d = Session.device s in
  let mem = Device.memory d in
  ( Ra_net.Channel.transcript (Session.channel s),
    Session.verdicts s,
    Cpu.cycles (Device.cpu d),
    Ra_mcu.Energy.consumed_joules (Device.energy d),
    List.map
      (fun r -> Memory.read_bytes mem r.Ra_mcu.Region.base r.Ra_mcu.Region.size)
      (Memory.regions mem),
    Ea_mpu.rules (Device.mpu d),
    Ea_mpu.is_locked (Device.mpu d) )

(* attest, sync and service rounds, a flash-writing code update and a
   reboot of the prover: everything a session can do to shared state *)
let exercise s =
  for i = 1 to 5 do
    Session.advance_time s ~seconds:1.5;
    ignore (Session.attest_round s);
    if i = 2 then ignore (Session.sync_round s);
    if i = 3 then ignore (Session.service_round s (Service.Code_update { image = "app-v2" }));
    if i = 4 then ignore (Session.service_round s Service.Ping)
  done

let test_clone_equals_fresh_build () =
  List.iter
    (fun spec ->
      List.iter
        (fun ram_size ->
          List.iter
            (fun ram_seed ->
              let create () = Session.create ~spec ?ram_seed ~ram_size () in
              (* the prototype serves two sessions first *)
              for _ = 1 to 2 do
                let s = create () in
                exercise s;
                ignore (Architecture.reboot (Session.prover s))
              done;
              let s = create () and r = Session_ref.create ~spec ?ram_seed ~ram_size () in
              Alcotest.(check bool) "same state before the rounds" true (observe s = observe r);
              exercise s;
              exercise r;
              if observe s <> observe r then
                Alcotest.failf "%s ram_size=%d ram_seed=%s: clone differs from fresh build"
                  spec.Architecture.spec_name ram_size
                  (match ram_seed with None -> "default" | Some v -> Int64.to_string v))
            [ None; Some 7L ])
        [ 256; 1024; 4096 ])
    Architecture.all_specs

let test_clone_flash_isolated () =
  let proto = Device.create ~ram_size:256 ~key () in
  Memory.write_bytes (Device.memory proto) flash "proto";
  let a = Device.clone proto and b = Device.clone proto in
  let read d = Memory.read_bytes (Device.memory d) flash 5 in
  Memory.write_byte (Device.memory a) flash (Char.code 'A');
  Alcotest.(check string) "writer" "Aroto" (read a);
  Alcotest.(check string) "prototype unchanged" "proto" (read proto);
  Alcotest.(check string) "sibling unchanged" "proto" (read b);
  Memory.write_bytes (Device.memory b) flash "BB";
  Alcotest.(check string) "bulk writer" "BBoto" (read b);
  Alcotest.(check string) "prototype still unchanged" "proto" (read proto);
  Alcotest.(check string) "first clone keeps its write" "Aroto" (read a);
  Memory.write_bytes (Device.memory proto) flash "P";
  Alcotest.(check string) "prototype write invisible to clones" "Aroto" (read a);
  Alcotest.(check string) "later clone sees the prototype's write" "Proto"
    (read (Device.clone proto))

let test_clone_rom_sealed () =
  let c = Device.clone (Device.create ~ram_size:256 ~key ()) in
  Alcotest.(check string) "key shared" key
    (Memory.read_bytes (Device.memory c) (Device.key_addr c) (Device.key_len c));
  (try
     Memory.write_byte (Device.memory c) (Device.key_addr c) 0;
     Alcotest.fail "ROM write on a clone must fault"
   with Memory.Bus_fault _ -> ())

let test_clone_copies_mpu () =
  let d = Device.create ~ram_size:256 ~key () in
  Ea_mpu.program (Device.mpu d) (Device.rule_protect_key d);
  Ea_mpu.lock (Device.mpu d);
  let c = Device.clone d in
  Alcotest.(check bool) "same rules" true (Ea_mpu.rules (Device.mpu c) = Ea_mpu.rules (Device.mpu d));
  Alcotest.(check bool) "locked" true (Ea_mpu.is_locked (Device.mpu c));
  Alcotest.(check bool) "separate tables" true (Device.mpu c != Device.mpu d)

let test_clone_rejects_run_device () =
  let d = Device.create ~ram_size:256 ~key () in
  Cpu.consume_cycles (Device.cpu d) 1L;
  Alcotest.check_raises "cycles consumed"
    (Invalid_argument "Device.clone: the device has already run") (fun () ->
      ignore (Device.clone d));
  let d = Device.create ~ram_size:256 ~key () in
  Ea_mpu.program (Device.mpu d) (Device.rule_protect_key d);
  (try ignore (Cpu.load_byte (Device.cpu d) (Device.key_addr d)) with Cpu.Protection_fault _ -> ());
  Alcotest.check_raises "fault recorded"
    (Invalid_argument "Device.clone: the device has already run") (fun () ->
      ignore (Device.clone d))

(* per-member outputs of [members] sessions over two alternating specs *)
let sweep ~shards ~members =
  let out = Array.make members None in
  let parts = Shard.partition ~members ~shards in
  Shard.run ~shards (fun sh ->
      for i = parts.(sh).Shard.sh_lo to parts.(sh).Shard.sh_hi - 1 do
        let spec = if i mod 2 = 0 then Architecture.trustlite_base else Architecture.smart_like in
        let s = Session.create ~spec ~ram_size:512 () in
        Session.advance_time s ~seconds:(float_of_int i);
        ignore (Session.attest_round s);
        out.(i) <- Some (observe s)
      done);
  out

let test_sharded_creation_matches_sequential () =
  let members = 16 in
  Alcotest.(check bool) "4 shards = sequential" true
    (sweep ~shards:4 ~members = sweep ~shards:1 ~members)

let test_live_heap_per_session () =
  let ram_size = 1024 and held_n = 64 in
  ignore (Session.create ~ram_size ());
  let live () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  let held = List.init held_n (fun _ -> Session.create ~ram_size ()) in
  let after = live () in
  ignore (Sys.opaque_identity held);
  let per_session = (after - before) * (Sys.word_size / 8) / held_n in
  if per_session > ram_size + 8192 then
    Alcotest.failf "live heap per session %d B exceeds attested RAM + 8 KiB" per_session

let tests =
  [
    Alcotest.test_case "clone equals fresh build" `Quick test_clone_equals_fresh_build;
    Alcotest.test_case "clone flash isolated" `Quick test_clone_flash_isolated;
    Alcotest.test_case "clone ROM sealed" `Quick test_clone_rom_sealed;
    Alcotest.test_case "clone copies MPU" `Quick test_clone_copies_mpu;
    Alcotest.test_case "clone rejects a run device" `Quick test_clone_rejects_run_device;
    Alcotest.test_case "sharded creation = sequential" `Quick
      test_sharded_creation_matches_sequential;
    Alcotest.test_case "live heap per session" `Quick test_live_heap_per_session;
  ]
