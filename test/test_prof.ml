(* The cycle-exact profiler: PC-sample accumulators and their folded
   export, the ISA sampler's call-stack reconstruction and exact cycle
   attribution, session phase attribution, the shard-invariant fleet
   merge, and the Perfetto counter-track export. *)
open Ra_core
module Profiler = Ra_obs.Profiler
module Memory = Ra_mcu.Memory
module Region = Ra_mcu.Region
module Ea_mpu = Ra_mcu.Ea_mpu
module Cpu = Ra_mcu.Cpu
module Device = Ra_mcu.Device
module Timing = Ra_mcu.Timing

(* --- Pc accumulator --- *)

let test_pc_folded_sorted_and_sanitized () =
  let pc = Profiler.Pc.create () in
  Profiler.Pc.add pc ~frames:[ "rom"; "b" ] ~cycles:10L;
  Profiler.Pc.add pc ~frames:[ "rom"; "a" ] ~cycles:1L;
  Profiler.Pc.add pc ~frames:[ "rom"; "b" ] ~cycles:5L;
  (* ';' and ' ' are structural in the folded format: hostile frame
     names must be sanitized, not emitted raw *)
  Profiler.Pc.add pc ~frames:[ "we;ird frame"; "\n"; "" ] ~cycles:2L;
  Alcotest.(check string) "sorted, merged, sanitized"
    "rom;a 1\nrom;b 15\nwe,ird_frame;?;? 2\n"
    (Profiler.Pc.folded pc);
  Alcotest.(check int) "samples" 4 (Profiler.Pc.samples pc);
  Alcotest.(check int64) "cycles" 18L (Profiler.Pc.cycles pc);
  Alcotest.(check int64) "leaf filter" 15L
    (Profiler.Pc.cycles_matching pc ~f:(fun leaf -> leaf = "b"))

let test_pc_absorb_grouping_invariant () =
  let stacks =
    [
      ([ "r"; "f" ], 3L); ([ "r"; "g" ], 7L); ([ "r"; "f" ], 2L);
      ([ "r"; "h"; "i" ], 11L); ([ "r"; "g" ], 1L); ([ "r" ], 4L);
    ]
  in
  let merged groups =
    let dst = Profiler.Pc.create () in
    List.iter
      (fun group ->
        let shard = Profiler.Pc.create () in
        List.iter
          (fun (frames, cycles) -> Profiler.Pc.add shard ~frames ~cycles)
          group;
        Profiler.Pc.absorb dst shard)
      groups;
    Profiler.Pc.folded dst
  in
  let base = merged [ stacks ] in
  let halves =
    merged [ List.filteri (fun i _ -> i < 3) stacks;
             List.filteri (fun i _ -> i >= 3) stacks ]
  in
  let singles = merged (List.map (fun s -> [ s ]) stacks) in
  Alcotest.(check string) "two shards = one" base halves;
  Alcotest.(check string) "one shard per sample = one" base singles

(* --- ISA sampler: call stacks, symbolization, exact attribution --- *)

let sampled_run ?(symbolize = true) ~period src =
  let memory =
    Memory.create
      [
        Region.make ~name:"app" ~base:0x0000 ~size:0x1000 ~kind:Region.Flash;
        Region.make ~name:"ram" ~base:0x4000 ~size:0x1000 ~kind:Region.Ram;
      ]
  in
  let program =
    match Ra_isa.Asm.assemble ~origin:0x0000 src with
    | Ok p -> p
    | Error e -> Alcotest.failf "assembly failed: %a" Ra_isa.Asm.pp_error e
  in
  Ra_isa.Asm.load memory program;
  Memory.seal_rom memory;
  let cpu = Cpu.create memory (Ea_mpu.create ~capacity:0) ~clock_hz:24_000_000 in
  let pc = Profiler.Pc.create () in
  let sampler = Ra_isa.Sampler.create ~period ~memory pc in
  if symbolize then Ra_isa.Sampler.add_program sampler program;
  let core = Ra_isa.Core.create cpu ~pc:0x0000 ~sp:0x5000 in
  Ra_isa.Sampler.attach sampler core;
  let state, _ = Ra_isa.Core.run core in
  Ra_isa.Sampler.flush sampler;
  Alcotest.(check bool) "halted" true (state = Ra_isa.Core.Halted);
  (pc, Cpu.work_cycles cpu)

let nested_src =
  {|
  start:
    mov r1, #7
    call outer
    halt
  outer:
    add r1, #1
    call inner
    ret
  inner:
    add r1, r1
    ret
  |}

let test_sampler_symbolized_stacks () =
  let pc, _ = sampled_run ~period:1 nested_src in
  let keys =
    List.map
      (fun (frames, _, _) -> String.concat ";" frames)
      (Profiler.Pc.rows pc)
  in
  Alcotest.(check bool) "top level under region root" true
    (List.mem "app;start" keys);
  Alcotest.(check bool) "call pushes a frame" true
    (List.exists
       (fun k -> k = "app;outer;outer" || k = "app;outer;inner;inner") keys);
  Alcotest.(check bool) "nested call keeps the caller" true
    (List.mem "app;outer;inner;inner" keys);
  Alcotest.(check bool) "everything symbolized" true
    (List.for_all
       (fun k -> not (Ra_net.Trace.contains_substring ~needle:"0x" k))
       keys)

let test_sampler_attribution_exact () =
  (* whatever the period, flush makes attributed cycles equal executed
     cycles exactly — nothing lost to rounding *)
  List.iter
    (fun period ->
      let pc, executed = sampled_run ~period nested_src in
      Alcotest.(check int64)
        (Printf.sprintf "period %d conserves cycles" period)
        executed (Profiler.Pc.cycles pc))
    [ 1; 3; 64; 10_000 ]

let test_sampler_deterministic () =
  let folded () =
    let pc, _ = sampled_run ~period:4 nested_src in
    Profiler.Pc.folded pc
  in
  Alcotest.(check string) "same folded across runs" (folded ()) (folded ())

(* The same callee reached from different stacks, stacks re-entered after
   ret, a leaf shared by two paths: the interned call-stack nodes must
   attribute exactly as a frame list rebuilt per sample did. The folded
   profiles below were captured from that rebuild-per-sample sampler. *)
let revisited_src =
  {|
  start:
    mov r1, #0
    mov r2, #0
  loop:
    call left
    call right
    add r2, #1
    cmp r2, #5
    jnz loop
    halt
  left:
    add r1, #1
    call leaf
    ret
  right:
    xor r1, #3
    call left
    call leaf
    ret
  leaf:
    rol r1, #3
    add r1, r2
    ret
  |}

let unsymbolized_folded =
  "app;0x000000 3\napp;0x000006 3\napp;0x00000c 25\n\
     app;0x000012 25\napp;0x000018 15\napp;0x00001e 15\n\
     app;0x000024 15\napp;0x00002a 1\napp;0x00002c;0x00002c 15\n\
     app;0x00002c;0x000032 25\napp;0x00002c;0x000038 15\n\
     app;0x00002c;0x00004e;0x00004e 15\n\
     app;0x00002c;0x00004e;0x000056 20\n\
     app;0x00003a;0x00002c;0x00002c 15\n\
     app;0x00003a;0x00002c;0x000032 25\n\
     app;0x00003a;0x00002c;0x000038 15\n\
     app;0x00003a;0x00002c;0x00004e;0x00004e 15\n\
     app;0x00003a;0x00002c;0x00004e;0x000056 20\n\
     app;0x00003a;0x00003a 15\napp;0x00003a;0x000040 25\n\
     app;0x00003a;0x000046 25\napp;0x00003a;0x00004c 15\n\
     app;0x00003a;0x00004e;0x00004e 15\n\
     app;0x00003a;0x00004e;0x000056 20\n"

let test_sampler_revisited_stacks () =
  List.iter
    (fun (period, expected) ->
      let pc, _ = sampled_run ~period revisited_src in
      Alcotest.(check string) (Printf.sprintf "folded at period %d" period) expected
        (Profiler.Pc.folded pc))
    [
      ( 1,
        "app;left;leaf;leaf 35\napp;left;left 55\napp;loop 96\napp;right;leaf;leaf 35\n\
         app;right;left;leaf;leaf 35\napp;right;left;left 55\napp;right;right 80\napp;start 6\n" );
      ( 5,
        "app;left;leaf;leaf 35\napp;left;left 40\napp;loop 126\napp;right;leaf;leaf 35\n\
         app;right;left;leaf;leaf 35\napp;right;left;left 40\napp;right;right 80\napp;start 6\n" );
    ]

(* Code the sampler cannot symbolize gets a leaf per address; a loop
   sampled over and over must still attribute exactly. The folded
   profile was captured before unsymbolized addresses stopped being
   remembered per stack. *)
let test_sampler_unsymbolized () =
  let pc, executed = sampled_run ~symbolize:false ~period:3 revisited_src in
  Alcotest.(check int64) "cycles conserved" executed (Profiler.Pc.cycles pc);
  Alcotest.(check string) "folded" unsymbolized_folded (Profiler.Pc.folded pc)

(* The core's sample credit: parked while no hook is set, carried into a
   hook, kept across a hook change, and reported whole when a sample
   fires. *)
let test_core_sample_credit () =
  let memory =
    Memory.create
      [ Region.make ~name:"ram" ~base:0x0000 ~size:0x1000 ~kind:Region.Ram ]
  in
  let program =
    match
      Ra_isa.Asm.assemble ~origin:0x0000
        "start:\n  add r1, #1\n  add r1, #1\n  add r1, #1\n  halt\n"
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "assembly failed: %a" Ra_isa.Asm.pp_error e
  in
  Ra_isa.Asm.load memory program;
  let cpu = Cpu.create memory (Ea_mpu.create ~capacity:0) ~clock_hz:24_000_000 in
  let core = Ra_isa.Core.create cpu ~pc:0x0000 ~sp:0x1000 in
  let samples = ref [] in
  let hook period =
    Some
      {
        Ra_isa.Core.h_period = period;
        h_sample = (fun ~pc:_ ~cycles -> samples := cycles :: !samples);
        h_call = (fun ~target:_ -> ());
        h_ret = (fun () -> ());
        h_irq_enter = (fun ~entry:_ -> ());
        h_irq_exit = (fun () -> ());
      }
  in
  let step () =
    let before = Cpu.cycles_int cpu in
    ignore (Ra_isa.Core.step core);
    Cpu.cycles_int cpu - before
  in
  Ra_isa.Core.set_sample_credit core 5;
  let c1 = step () in
  Alcotest.(check bool) "an instruction costs cycles" true (c1 > 0);
  Alcotest.(check int) "parked while unhooked" 5 (Ra_isa.Core.sample_credit core);
  Ra_isa.Core.set_hook core (hook 1000);
  Alcotest.(check int) "carried into the hook" 5 (Ra_isa.Core.sample_credit core);
  let c2 = step () in
  Alcotest.(check int) "counted while hooked" (5 + c2) (Ra_isa.Core.sample_credit core);
  Ra_isa.Core.set_hook core (hook (5 + c2 + 1));
  Alcotest.(check int) "kept across a hook change" (5 + c2)
    (Ra_isa.Core.sample_credit core);
  let c3 = step () in
  Alcotest.(check (list int)) "the whole credit fires" [ 5 + c2 + c3 ] !samples;
  Alcotest.(check int) "reset after the sample" 0 (Ra_isa.Core.sample_credit core);
  Ra_isa.Core.set_hook core None;
  ignore (step ());
  Alcotest.(check int) "unhooked again: parked" 0 (Ra_isa.Core.sample_credit core);
  Alcotest.(check (list int)) "no sample without a hook" [ 5 + c2 + c3 ] !samples

let test_isa_sha1_flame () =
  let memory =
    Memory.create
      [
        Region.make ~name:"rom_attest" ~base:0x1000 ~size:8192 ~kind:Region.Rom;
        Region.make ~name:"ram" ~base:0x10000 ~size:4096 ~kind:Region.Ram;
      ]
  in
  let sha = Ra_isa.Sha1_asm.install memory ~origin:0x1000 ~scratch_addr:0x10000 in
  Memory.seal_rom memory;
  let cpu = Cpu.create memory (Ea_mpu.create ~capacity:0) ~clock_hz:24_000_000 in
  let pc = Profiler.Pc.create () in
  let sampler = Ra_isa.Sampler.create ~memory pc in
  Ra_isa.Sha1_asm.set_sampler sha (Some sampler);
  let digest = Ra_isa.Sha1_asm.digest sha cpu "abc" in
  Ra_isa.Sampler.flush sampler;
  Alcotest.(check string) "digest still correct under sampling"
    (Ra_crypto.Hexutil.to_hex (Ra_crypto.Sha1.digest "abc"))
    (Ra_crypto.Hexutil.to_hex digest);
  Alcotest.(check int64) "all interpreted cycles attributed"
    (Ra_isa.Sha1_asm.last_run_cycles sha)
    (Profiler.Pc.cycles pc);
  let total = Int64.to_float (Profiler.Pc.cycles pc) in
  let symbolized =
    Int64.to_float
      (Profiler.Pc.cycles_matching pc ~f:(fun leaf ->
           not (String.length leaf >= 2 && String.sub leaf 0 2 = "0x")))
  in
  Alcotest.(check bool) ">= 90% of cycles symbolized" true
    (symbolized /. total >= 0.9);
  Alcotest.(check bool) "stacks root at the ROM region" true
    (List.for_all
       (fun (frames, _, _) -> List.hd frames = "rom_attest")
       (Profiler.Pc.rows pc))

(* the interpreted anchor answering a real attestation request while
   PC-sampled: the flame graph `ra_cli profile` prints *)
let sampled_anchor_round () =
  let sym_key = "K_attest_0123456789." in
  let device =
    Device.create ~ram_size:2048
      ~rom_images:[ (Device.region_attest, Isa_anchor.rom_image ()) ]
      ~key:(Auth.prover_key_blob ~sym_key ~public:None)
      ()
  in
  Device.fill_ram_deterministic device ~seed:11L;
  let anchor =
    Isa_anchor.install device ~scheme:(Some Timing.Auth_hmac_sha1)
      ~policy:Freshness.Counter
  in
  let verifier =
    match
      Verifier.of_config
        (Verifier.Config.v ~scheme:Timing.Auth_hmac_sha1
           ~freshness_kind:Verifier.Fk_counter ~sym_key
           ~time:(Ra_net.Simtime.create ())
           ~reference_image:(Isa_anchor.measure_memory anchor) ())
    with
    | Ok v -> v
    | Error msg -> Alcotest.failf "verifier: %s" msg
  in
  let pc = Profiler.Pc.create () in
  let sampler = Ra_isa.Sampler.create ~memory:(Device.memory device) pc in
  Ra_isa.Sha1_asm.set_sampler (Isa_anchor.sha anchor) (Some sampler);
  let attested =
    Result.is_ok (Isa_anchor.handle_request anchor (Verifier.make_request verifier))
  in
  Ra_isa.Sampler.flush sampler;
  (pc, attested, Isa_anchor.last_mac_cycles anchor)

let test_isa_anchor_under_sampling () =
  let pc, attested, mac_cycles = sampled_anchor_round () in
  Alcotest.(check bool) "anchor attests under sampling" true attested;
  Alcotest.(check int64) "every interpreted mac cycle attributed" mac_cycles
    (Profiler.Pc.cycles pc);
  let symbolized =
    Profiler.Pc.cycles_matching pc ~f:(fun leaf ->
        not (String.length leaf >= 2 && String.sub leaf 0 2 = "0x"))
  in
  Alcotest.(check bool) ">= 90% of cycles symbolized" true
    (Int64.to_float symbolized >= 0.9 *. Int64.to_float mac_cycles);
  let pc2, _, _ = sampled_anchor_round () in
  Alcotest.(check string) "flame graph deterministic across runs"
    (Profiler.Pc.folded pc) (Profiler.Pc.folded pc2)

(* --- session phase attribution --- *)

let test_session_phases_and_trace_ids () =
  let s = Session.create ~ram_size:2048 () in
  ignore (Session.enable_tracing s);
  let p = Session.enable_profiling s in
  Session.advance_time s ~seconds:1.0;
  let r = Session.attest_round_r s in
  Alcotest.(check bool) "round converged" true (r.Session.r_verdict = Verdict.Trusted);
  let totals = Profiler.Phases.totals p.Profiler.phases in
  List.iter
    (fun phase ->
      Alcotest.(check bool) (phase ^ " attributed") true
        (List.mem_assoc phase totals))
    [ "auth"; "freshness"; "mac"; "radio" ];
  let mac_cycles, mac_nj, _ = List.assoc "mac" totals in
  Alcotest.(check bool) "mac cycles positive" true (Int64.compare mac_cycles 0L > 0);
  Alcotest.(check bool) "mac energy positive" true (mac_nj > 0.0);
  let samples = Profiler.Phases.samples p.Profiler.phases in
  Alcotest.(check bool) "samples tagged with the device" true
    (List.for_all (fun ps -> ps.Profiler.ps_device = "prover") samples);
  Alcotest.(check bool) "samples carry the round's trace id" true
    (samples <> []
    && List.for_all (fun ps -> ps.Profiler.ps_trace_id <> None) samples)

(* satellite: ring wraparound with tracing and profiling co-enabled *)
let test_phase_ring_wraparound () =
  let s = Session.create ~ram_size:2048 () in
  ignore (Session.enable_tracing s);
  let p = Session.enable_profiling ~capacity:3 s in
  for _ = 1 to 3 do
    Session.advance_time s ~seconds:1.0;
    ignore (Session.attest_round_r s)
  done;
  Alcotest.(check int) "ring holds exactly its capacity" 3
    (Profiler.Phases.length p.Profiler.phases);
  Alcotest.(check bool) "older samples evicted" true
    (Profiler.Phases.dropped p.Profiler.phases > 0);
  (* totals keep counting past the wraparound: one auth per round *)
  let _, _, auth_n = List.assoc "auth" (Profiler.Phases.totals p.Profiler.phases) in
  Alcotest.(check int) "totals unaffected by eviction" 3 auth_n;
  (* the survivors are the newest samples, oldest first *)
  let at = List.map (fun ps -> ps.Profiler.ps_at) (Profiler.Phases.samples p.Profiler.phases) in
  Alcotest.(check bool) "survivors chronological" true
    (List.sort compare at = at)

(* --- fleet merge: byte-identical at every shard count --- *)

let test_fleet_profile_shard_invariant () =
  let names = List.init 5 (Printf.sprintf "dev-%d") in
  let fleet = Fleet.create ~ram_size:2048 ~names () in
  Fleet.enable_tracing fleet;
  Fleet.enable_profiling fleet;
  Fleet.advance fleet ~seconds:1.0;
  ignore (Fleet.sweep fleet);
  let export k =
    let p = Fleet.profile ~shards:k fleet in
    (Profiler.folded p, Ra_obs.Export.profile_jsonl p)
  in
  let base = export 1 in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "%d shards byte-identical to 1" k)
        true
        (export k = base))
    [ 2; 3; 5 ];
  let p = Fleet.profile fleet in
  Alcotest.(check int) "no phase samples dropped by the merge" 0
    (Profiler.Phases.dropped p.Profiler.phases);
  let devices =
    List.sort_uniq compare
      (List.map
         (fun ps -> ps.Profiler.ps_device)
         (Profiler.Phases.samples p.Profiler.phases))
  in
  Alcotest.(check (list string)) "every member contributed" (List.sort compare names)
    devices

(* --- a profiled lossy chaos cell on the sharded engine: exports,
   run-to-run determinism and wire-neutrality --- *)

let profiled_chaos_fleet ~profiled () =
  let fleet =
    Fleet.create ~ram_size:2048 ~names:(List.init 4 (Printf.sprintf "dev-%d")) ()
  in
  Fleet.enable_tracing fleet;
  if profiled then Fleet.enable_profiling fleet;
  Fleet.advance fleet ~seconds:1.0;
  let grid =
    Fleet.chaos_sweep ~seed:42L ~engine:(`Shards 2) ~rounds_per_member:3
      ~losses:[ 0.2 ]
      ~policies:[ ("default", Retry.default) ]
      fleet
  in
  (fleet, grid)

let test_profiled_chaos_cell () =
  let fleet, grid = profiled_chaos_fleet ~profiled:true () in
  let p = Fleet.profile ~shards:2 fleet in
  let fleet2, _ = profiled_chaos_fleet ~profiled:true () in
  let p2 = Fleet.profile ~shards:2 fleet2 in
  Alcotest.(check string) "JSONL deterministic across runs"
    (Ra_obs.Export.profile_jsonl p) (Ra_obs.Export.profile_jsonl p2);
  (* the driver folds the sampled anchor's stacks into the fleet profile:
     one folded file, every line "frame;frame;... cycles" *)
  let pc, _, _ = sampled_anchor_round () in
  Profiler.Pc.absorb p.Profiler.pc pc;
  let folded = Profiler.folded p in
  Alcotest.(check bool) "folded stacks present" true (folded <> "");
  String.split_on_char '\n' folded
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun line ->
         let ok =
           match String.rindex_opt line ' ' with
           | Some i when i > 0 -> (
             match Int64.of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
             | Some c -> Int64.compare c 0L > 0
             | None -> false)
           | _ -> false
         in
         Alcotest.(check bool) ("'stack cycles' line: " ^ line) true ok);
  let rounds = Fleet.recent_rounds fleet in
  Alcotest.(check bool) "the lossy cell retried" true
    (List.exists (fun r -> r.Ra_obs.Trace.rd_attempts > 1) rounds);
  Alcotest.(check bool) "wait attributed on retried rounds" true
    (List.mem_assoc "wait" (Profiler.Phases.totals p.Profiler.phases));
  let perfetto =
    Ra_obs.Export.perfetto_string ~phases:(Profiler.Phases.samples p.Profiler.phases) rounds
  in
  (match Ra_obs.Json.of_string perfetto with
  | Error e -> Alcotest.failf "perfetto export unparseable: %s" e
  | Ok j ->
    let evs =
      match Ra_obs.Json.member "traceEvents" j with
      | Some (Ra_obs.Json.Arr evs) -> evs
      | _ -> []
    in
    Alcotest.(check bool) "phase instants present" true
      (List.exists
         (fun ev ->
           match Ra_obs.Json.member "name" ev with
           | Some (Ra_obs.Json.Str s) -> String.length s > 6 && String.sub s 0 6 = "phase."
           | _ -> false)
         evs));
  let _, plain_grid = profiled_chaos_fleet ~profiled:false () in
  Alcotest.(check bool) "chaos grid identical with profiling on/off" true
    (grid = plain_grid)

(* --- counter tracks and their Perfetto export (satellite) --- *)

let test_track_merge_grouping_invariant () =
  let mk points =
    let t = Profiler.Track.create "depth" in
    List.iter (fun (at, v) -> Profiler.Track.push t ~at v) points;
    t
  in
  let a = mk [ (0.0, 1.0); (1.0, 3.0) ] in
  let b = mk [ (0.5, 2.0); (1.0, 4.0) ] in
  let direct = Profiler.Track.merge ~name:"depth" [ a; b ] in
  let nested =
    Profiler.Track.merge ~name:"depth"
      [ Profiler.Track.merge ~name:"x" [ a ]; Profiler.Track.merge ~name:"y" [ b ] ]
  in
  Alcotest.(check bool) "chronological with stable ties" true
    (Profiler.Track.points direct
    = [ (0.0, 1.0); (0.5, 2.0); (1.0, 3.0); (1.0, 4.0) ]);
  Alcotest.(check bool) "grouping-invariant" true
    (Profiler.Track.points direct = Profiler.Track.points nested)

let test_perfetto_counter_track () =
  let track = Profiler.Track.create "ra_sched_queue_depth" in
  Profiler.Track.push track ~at:0.0 1.0;
  Profiler.Track.push track ~at:0.5 2.0;
  let j = Ra_obs.Export.perfetto ~counters:[ track ] [] in
  let evs =
    match Ra_obs.Json.member "traceEvents" j with
    | Some (Ra_obs.Json.Arr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents"
  in
  let counters =
    List.filter
      (fun ev -> Ra_obs.Json.member "ph" ev = Some (Ra_obs.Json.Str "C"))
      evs
  in
  Alcotest.(check int) "one C event per point" 2 (List.length counters);
  Alcotest.(check bool) "counter events on pid 0 with us timestamps" true
    (List.for_all
       (fun ev ->
         Ra_obs.Json.member "pid" ev = Some (Ra_obs.Json.Num 0.0)
         && Ra_obs.Json.member "name" ev
            = Some (Ra_obs.Json.Str "ra_sched_queue_depth"))
       counters);
  Alcotest.(check bool) "values ride in args.value" true
    (List.map
       (fun ev ->
         Option.bind (Ra_obs.Json.member "args" ev) (Ra_obs.Json.member "value"))
       counters
    = [ Some (Ra_obs.Json.Num 1.0); Some (Ra_obs.Json.Num 2.0) ]);
  Alcotest.(check bool) "counters process is named" true
    (List.exists
       (fun ev ->
         Ra_obs.Json.member "ph" ev = Some (Ra_obs.Json.Str "M")
         && Ra_obs.Json.member "pid" ev = Some (Ra_obs.Json.Num 0.0))
       evs)

let test_profile_jsonl_roundtrip () =
  let p = Profiler.create () in
  Profiler.Pc.add p.Profiler.pc ~frames:[ "rom"; "we\"ird\\name" ] ~cycles:5L;
  Profiler.Phases.record p.Profiler.phases
    {
      Profiler.ps_at = 1.5;
      ps_trace_id = Some 3;
      ps_device = "dev \"quoted\"";
      ps_phase = "mac";
      ps_cycles = 100L;
      ps_nj = 50.0;
    };
  match Ra_obs.Export.parse_jsonl (Ra_obs.Export.profile_jsonl p) with
  | Error e -> Alcotest.failf "profile jsonl unparseable: %s" e
  | Ok lines ->
    Alcotest.(check int) "stack + total + sample lines" 3 (List.length lines);
    let stack =
      List.find
        (fun l -> Ra_obs.Json.member "kind" l = Some (Ra_obs.Json.Str "stack"))
        lines
    in
    (match Ra_obs.Json.member "frames" stack with
    | Some (Ra_obs.Json.Arr [ Ra_obs.Json.Str "rom"; Ra_obs.Json.Str f ]) ->
      Alcotest.(check string) "hostile frame survives the round-trip"
        "we\"ird\\name" f
    | _ -> Alcotest.fail "stack line lost its frames");
    let sample =
      List.find
        (fun l ->
          Ra_obs.Json.member "kind" l = Some (Ra_obs.Json.Str "phase_sample"))
        lines
    in
    Alcotest.(check (option string)) "hostile device name survives"
      (Some "dev \"quoted\"")
      (Option.bind (Ra_obs.Json.member "device" sample) Ra_obs.Json.as_string)

let tests =
  [
    Alcotest.test_case "pc folded sorted+sanitized" `Quick
      test_pc_folded_sorted_and_sanitized;
    Alcotest.test_case "pc absorb grouping-invariant" `Quick
      test_pc_absorb_grouping_invariant;
    Alcotest.test_case "sampler symbolized stacks" `Quick
      test_sampler_symbolized_stacks;
    Alcotest.test_case "sampler attribution exact" `Quick
      test_sampler_attribution_exact;
    Alcotest.test_case "sampler revisited stacks" `Quick test_sampler_revisited_stacks;
    Alcotest.test_case "sampler unsymbolized code" `Quick test_sampler_unsymbolized;
    Alcotest.test_case "core sample credit" `Quick test_core_sample_credit;
    Alcotest.test_case "sampler deterministic" `Quick test_sampler_deterministic;
    Alcotest.test_case "in-ISA sha1 flame graph" `Quick test_isa_sha1_flame;
    Alcotest.test_case "isa anchor under sampling" `Quick test_isa_anchor_under_sampling;
    Alcotest.test_case "session phases + trace ids" `Quick
      test_session_phases_and_trace_ids;
    Alcotest.test_case "phase ring wraparound" `Quick test_phase_ring_wraparound;
    Alcotest.test_case "fleet profile shard-invariant" `Quick
      test_fleet_profile_shard_invariant;
    Alcotest.test_case "profiled chaos cell" `Quick test_profiled_chaos_cell;
    Alcotest.test_case "track merge grouping-invariant" `Quick
      test_track_merge_grouping_invariant;
    Alcotest.test_case "perfetto counter track" `Quick test_perfetto_counter_track;
    Alcotest.test_case "profile jsonl round-trip" `Quick
      test_profile_jsonl_roundtrip;
  ]
