(* ra_cli: command-line front end for the prover-side attestation
   library.

     ra_cli attest  --spec trustlite-base --rounds 3 --ram-kb 64
     ra_cli attack  --scenario roam-clock --defended
     ra_cli costs
     ra_cli table2

   The heavy lifting lives in the libraries; this binary is argument
   parsing and printing. *)

open Cmdliner
open Ra_core
module Device = Ra_mcu.Device
module Timing = Ra_mcu.Timing
module Energy = Ra_mcu.Energy

(* write one artifact file and say so *)
let write_artifact path contents what =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  Printf.printf "wrote %s (%d bytes) — %s\n" path (String.length contents) what

let perfetto_hint = "load it at ui.perfetto.dev or chrome://tracing"

let spec_of_name name =
  List.find_opt (fun s -> s.Architecture.spec_name = name) Architecture.all_specs

let spec_names =
  String.concat ", " (List.map (fun s -> s.Architecture.spec_name) Architecture.all_specs)

(* ---- attest ---- *)

let run_attest spec_name rounds ram_kb =
  match spec_of_name spec_name with
  | None ->
    Printf.eprintf "unknown spec %s (available: %s)\n" spec_name spec_names;
    1
  | Some spec ->
    let session = Session.create ~spec ~ram_size:(ram_kb * 1024) () in
    Session.advance_time session ~seconds:1.0;
    Printf.printf "spec: %s, attested memory: %d KB\n\n" spec_name ram_kb;
    for i = 1 to rounds do
      Session.advance_time session ~seconds:1.0;
      let r = Session.attest_round_r session in
      Format.printf "round %d: %a (%d attempt%s, %.3f s)@." i Verdict.pp
        r.Session.r_verdict r.Session.r_attempts
        (if r.Session.r_attempts = 1 then "" else "s")
        r.Session.r_elapsed_s
    done;
    let device = Session.device session in
    Printf.printf "\nprover work: %.3f ms, energy: %.6f J\n"
      (Timing.ms_of_cycles (Ra_mcu.Cpu.work_cycles (Device.cpu device)))
      (Energy.consumed_joules (Device.energy device));
    0

let attest_cmd =
  let spec =
    Arg.(value & opt string "trustlite-base" & info [ "spec" ] ~docv:"SPEC"
           ~doc:(Printf.sprintf "Architecture: %s." spec_names))
  in
  let rounds = Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"N" ~doc:"Rounds to run.") in
  let ram = Arg.(value & opt int 64 & info [ "ram-kb" ] ~docv:"KB" ~doc:"Attested RAM size.") in
  Cmd.v (Cmd.info "attest" ~doc:"Run benign attestation rounds against a prover")
    Term.(const run_attest $ spec $ rounds $ ram)

(* ---- attack ---- *)

let scenarios =
  [
    ("roam-counter", fun defended -> Experiment.roam_counter_rollback ~defended);
    ("roam-clock", fun defended -> Experiment.roam_clock_rollback ~defended);
    ("roam-clock-hw", fun _ -> Experiment.roam_clock_rollback_hw ());
    ("roam-idt", fun defended -> Experiment.roam_idt_freeze ~defended);
    ("roam-key", fun defended -> Experiment.roam_key_extraction ~defended);
    ("roam-lockdown", fun defended -> Experiment.roam_mpu_lockdown ~defended);
  ]

let run_attack scenario defended =
  if scenario = "all" then begin
    List.iter (fun o -> Format.printf "%a@." Experiment.pp_roam_outcome o)
      (Experiment.roaming_matrix ());
    0
  end
  else
    match List.assoc_opt scenario scenarios with
    | Some f ->
      Format.printf "%a@." Experiment.pp_roam_outcome (f defended);
      0
    | None ->
      Printf.eprintf "unknown scenario %s (available: all, %s)\n" scenario
        (String.concat ", " (List.map fst scenarios));
      1

let attack_cmd =
  let scenario =
    Arg.(value & opt string "all" & info [ "scenario" ] ~docv:"NAME"
           ~doc:"Attack scenario (or 'all').")
  in
  let defended =
    Arg.(value & flag & info [ "defended" ] ~doc:"Run with the protection in place.")
  in
  Cmd.v (Cmd.info "attack" ~doc:"Run a roaming-adversary scenario")
    Term.(const run_attack $ scenario $ defended)

(* ---- table2 ---- *)

let run_table2 () =
  let matrix = Experiment.table2 () in
  Printf.printf "%-10s %-10s %-10s %-12s\n" "attack" "nonces" "counter" "timestamps";
  List.iter
    (fun (attack, cells) ->
      Printf.printf "%-10s" (Experiment.attack_name attack);
      List.iter
        (fun (_, ok) -> Printf.printf " %-10s" (if ok then "mitigated" else "-"))
        cells;
      Printf.printf "\n")
    matrix;
  Printf.printf "matches paper: %b\n" (matrix = Experiment.expected_table2);
  0

let table2_cmd =
  Cmd.v (Cmd.info "table2" ~doc:"Regenerate Table 2 by simulation")
    Term.(const run_table2 $ const ())

(* ---- costs ---- *)

let run_costs () =
  let open Ra_hwcost in
  Format.printf "baseline: %a@." Synthesis.pp_totals Synthesis.baseline;
  List.iter
    (fun o -> Format.printf "%a@." Synthesis.pp_overhead o)
    [ Synthesis.upgrade_64bit_clock; Synthesis.upgrade_32bit_clock; Synthesis.upgrade_sw_clock ];
  0

let costs_cmd =
  Cmd.v (Cmd.info "costs" ~doc:"Hardware cost of prover protection (Table 3 / §6.3)")
    Term.(const run_costs $ const ())

(* ---- auth-cost ---- *)

let run_auth_cost () =
  Printf.printf "%-24s %14s %16s\n" "scheme" "cold (ms)" "precomputed (ms)";
  List.iter
    (fun scheme ->
      Printf.printf "%-24s %14.3f %16.3f\n"
        (Format.asprintf "%a" Timing.pp_auth_scheme scheme)
        (Timing.request_auth_ms scheme)
        (Timing.request_auth_ms ~precomputed_key_schedule:true scheme))
    [ Timing.Auth_hmac_sha1; Timing.Auth_aes128_cbc_mac; Timing.Auth_speck64_cbc_mac;
      Timing.Auth_ecdsa_verify ];
  0

let auth_cost_cmd =
  Cmd.v (Cmd.info "auth-cost" ~doc:"Request-authentication cost comparison (§4.1)")
    Term.(const run_auth_cost $ const ())

(* ---- fleet ---- *)

let run_fleet n sweeps =
  if n < 1 || n > 1000 then begin
    Printf.eprintf "fleet size must be 1..1000\n";
    1
  end
  else begin
    let names = List.init n (Printf.sprintf "device-%02d") in
    let fleet = Fleet.create ~ram_size:4096 ~names () in
    for s = 1 to sweeps do
      Fleet.advance fleet ~seconds:10.0;
      let _ = Fleet.sweep fleet in
      Printf.printf "sweep %d done\n" s
    done;
    Printf.printf "%-12s %-12s %s\n" "device" "health" "sweeps";
    List.iter
      (fun (name, health, sweeps) ->
        Format.printf "%-12s %-12s %d@." name
          (Format.asprintf "%a" Fleet.pp_health health)
          sweeps)
      (Fleet.summary fleet);
    0
  end

let fleet_cmd =
  let n = Arg.(value & opt int 5 & info [ "size" ] ~docv:"N" ~doc:"Fleet size.") in
  let sweeps = Arg.(value & opt int 2 & info [ "sweeps" ] ~docv:"S" ~doc:"Sweeps to run.") in
  Cmd.v (Cmd.info "fleet" ~doc:"Sweep a fleet of provers (future work 1)")
    Term.(const run_fleet $ n $ sweeps)

(* ---- lattice ---- *)

let run_lattice () =
  let ok = ref 0 in
  List.iter
    (fun (config, _predicted, observed, agree) ->
      if agree then incr ok;
      Format.printf "%-36s %-42s %s@."
        (Format.asprintf "%a" Analysis.pp_config config)
        (Format.asprintf "%a" Analysis.pp_exposure observed)
        (if agree then "ok" else "MISMATCH"))
    (Analysis.exhaustive_check ());
  Printf.printf "%d/16 lattice points agree with the paper's argument\n" !ok;
  if !ok = 16 then 0 else 1

let lattice_cmd =
  Cmd.v (Cmd.info "lattice" ~doc:"Exhaustive protection-lattice check (§5/§6.2)")
    Term.(const run_lattice $ const ())

(* ---- inspect ---- *)

let run_inspect spec_name =
  match spec_of_name spec_name with
  | None ->
    Printf.eprintf "unknown spec %s (available: %s)\n" spec_name spec_names;
    1
  | Some spec ->
    let session = Session.create ~spec ~ram_size:(16 * 1024) () in
    Session.advance_time session ~seconds:5.0;
    let _ = Session.attest_round session in
    print_string (Ra_mcu.Hexdump.device_report (Session.device session));
    Printf.printf "\nfirst 64 bytes of attested RAM:\n%s"
      (Ra_mcu.Hexdump.dump
         (Device.memory (Session.device session))
         ~addr:(Device.attested_base (Session.device session))
         ~len:64);
    0

let inspect_cmd =
  let spec =
    Arg.(value & opt string "trustlite-sw-clock" & info [ "spec" ] ~docv:"SPEC"
           ~doc:(Printf.sprintf "Architecture: %s." spec_names))
  in
  Cmd.v (Cmd.info "inspect" ~doc:"Print a device-state report after one round")
    Term.(const run_inspect $ spec)

(* ---- stats ---- *)

let run_stats n sweeps =
  if n < 1 || n > 1000 then begin
    Printf.eprintf "fleet size must be 1..1000\n";
    1
  end
  else begin
    let names = List.init n (Printf.sprintf "device-%02d") in
    let fleet = Fleet.create ~ram_size:4096 ~names () in
    for _ = 1 to sweeps do
      Fleet.advance fleet ~seconds:10.0;
      ignore (Fleet.sweep fleet)
    done;
    (* exercise the service path, including both rejection reasons, on
       the first member so the rejection-breakdown counters are live *)
    let first = Fleet.member_session (List.hd (Fleet.members fleet)) in
    ignore (Session.service_round first Service.Ping);
    let scheme = Verifier.scheme (Session.verifier first) in
    List.iter
      (fun (sym_key, counter) ->
        ignore
          (Service.handle_r (Session.service first)
             (Service.make_request ~sym_key ~scheme
                ~freshness:(Message.F_counter counter) Service.Ping)))
      [
        (String.make 20 'x', 99L) (* forged: bad_auth *);
        (Session.sym_key first, 0L) (* stale: not_fresh *);
      ];
    print_string (Fleet.render_health (Fleet.health_snapshot fleet));
    print_newline ();
    print_string (Ra_obs.Export.render_prometheus Ra_obs.Registry.default);
    0
  end

let stats_cmd =
  let n = Arg.(value & opt int 4 & info [ "size" ] ~docv:"N" ~doc:"Fleet size.") in
  let sweeps = Arg.(value & opt int 2 & info [ "sweeps" ] ~docv:"S" ~doc:"Sweeps to run.") in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Sweep a small fleet and print its health snapshot and Prometheus metrics")
    Term.(const run_stats $ n $ sweeps)

(* ---- chaos ---- *)

let run_chaos n rounds loss =
  if n < 1 || n > 1000 then begin
    Printf.eprintf "fleet size must be 1..1000\n";
    1
  end
  else if not (loss >= 0.0 && loss < 1.0) then begin
    Printf.eprintf "loss must be in [0, 1)\n";
    1
  end
  else begin
    let names = List.init n (Printf.sprintf "device-%02d") in
    let fleet = Fleet.create ~ram_size:4096 ~names () in
    let losses = if loss > 0.0 then [ 0.0; loss ] else [ 0.0; 0.2 ] in
    let policies = [ ("no-retry", Retry.no_retry); ("default", Retry.default) ] in
    ignore (Fleet.chaos_sweep ~rounds_per_member:rounds ~losses ~policies fleet);
    print_string (Fleet.render_health (Fleet.health_snapshot fleet));
    0
  end

let chaos_cmd =
  let n = Arg.(value & opt int 4 & info [ "size" ] ~docv:"N" ~doc:"Fleet size.") in
  let rounds =
    Arg.(value & opt int 5 & info [ "rounds" ] ~docv:"R" ~doc:"Rounds per member per cell.")
  in
  let loss =
    Arg.(value & opt float 0.2 & info [ "loss" ] ~docv:"P"
           ~doc:"Per-direction loss probability for the lossy cells.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Sweep loss rates x backoff policies over an impaired fleet")
    Term.(const run_chaos $ n $ rounds $ loss)

(* ---- trace ---- *)

let run_trace n rounds loss out =
  if n < 1 || n > 1000 then begin
    Printf.eprintf "fleet size must be 1..1000\n";
    1
  end
  else if not (loss >= 0.0 && loss < 1.0) then begin
    Printf.eprintf "loss must be in [0, 1)\n";
    1
  end
  else begin
    let names = List.init n (Printf.sprintf "device-%02d") in
    let fleet = Fleet.create ~ram_size:4096 ~names () in
    Fleet.enable_tracing fleet;
    let policies = [ ("default", Retry.default) ] in
    ignore (Fleet.chaos_sweep ~rounds_per_member:rounds ~losses:[ loss ] ~policies fleet);
    let recorded = Fleet.recent_rounds fleet in
    let perfetto = Ra_obs.Export.perfetto_string recorded in
    Option.iter (fun path -> write_artifact path perfetto perfetto_hint) out;
    let events = List.fold_left (fun acc r -> acc + List.length r.Ra_obs.Trace.rd_events) 0 recorded in
    Printf.printf "chaos cell: loss=%.0f%% policy=default, %d members x %d rounds\n"
      (100.0 *. loss) n rounds;
    Printf.printf "flight recorder: %d rounds, %d events, %d distinct trace ids\n"
      (List.length recorded) events
      (List.length
         (List.sort_uniq compare
            (List.map (fun r -> (r.Ra_obs.Trace.rd_device, r.Ra_obs.Trace.rd_trace_id)) recorded)));
    let checks = Fleet.slo_watch fleet in
    List.iter (fun c -> Format.printf "slo: %a@." Ra_obs.Slo.pp_check c) checks;
    0
  end

let trace_cmd =
  let n = Arg.(value & opt int 4 & info [ "size" ] ~docv:"N" ~doc:"Fleet size.") in
  let rounds =
    Arg.(value & opt int 5 & info [ "rounds" ] ~docv:"R" ~doc:"Traced rounds per member.")
  in
  let loss =
    Arg.(value & opt float 0.2 & info [ "loss" ] ~docv:"P"
           ~doc:"Per-direction loss probability for the traced chaos cell.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Write the Perfetto trace-event JSON here.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Record causally-traced chaos rounds and export a Perfetto trace")
    Term.(const run_trace $ n $ rounds $ loss $ out)

(* ---- serve ---- *)

let serve_sym_key = "K_attest_0123456789."

let serve_config ~rate =
  let vcfg =
    Verifier.Config.v ~sym_key:serve_sym_key
      ~reference_image:(String.make 64 '\xc3')
      ~time:(Ra_net.Simtime.create ()) ()
  in
  {
    (Server.default_config vcfg) with
    Server.sc_admission =
      {
        Admission.default_config with
        (* size the per-device bucket above the offered per-device rate,
           so a well-behaved fleet is never throttled *)
        device_rate = Float.max 1.0 (2.0 *. rate);
        device_burst = Float.max 12.0 (8.0 *. rate);
      };
  }

let run_serve devices rate horizon shards flood_factor bursty =
  if devices < 1 || devices > 200_000 then begin
    Printf.eprintf "devices must be 1..200000\n";
    1
  end
  else if shards < 1 then begin
    Printf.eprintf "shards must be >= 1\n";
    1
  end
  else begin
    let cfg = serve_config ~rate in
    let traffic =
      {
        Server.Load.default_traffic with
        Server.Load.tr_devices = devices;
        tr_rate = rate;
        tr_process = (if bursty then `Bursty else `Poisson);
        tr_horizon_s = horizon;
        tr_seed = 2016L;
      }
    in
    let engine = if shards = 1 then `Seq else `Shards shards in
    let base, _ = Server.Load.run ~engine cfg traffic in
    print_string (Server.Load.render base);
    let flood_traffic =
      if flood_factor <= 0.0 then None
      else begin
        let sources = max 1 (devices / 20) in
        let aggregate = flood_factor *. (float_of_int devices *. rate) in
        Some
          {
            traffic with
            Server.Load.tr_flood_sources = sources;
            tr_flood_rate = aggregate /. float_of_int sources;
          }
      end
    in
    Option.iter
      (fun ft -> print_string (Server.Load.render (fst (Server.Load.run ~engine cfg ft))))
      flood_traffic;
    List.iter
      (fun c -> Format.printf "%a@." Ra_obs.Slo.pp_check c)
      (Server.Load.slo_watch base);
    0
  end

let serve_cmd =
  let devices =
    Arg.(value & opt int 64 & info [ "devices" ] ~docv:"N"
           ~doc:"Registered report sources (known-class identities).")
  in
  let rate =
    Arg.(value & opt float 0.5 & info [ "rate" ] ~docv:"RPS"
           ~doc:"Per-device reports per simulated second.")
  in
  let horizon =
    Arg.(value & opt float 30.0 & info [ "horizon" ] ~docv:"S"
           ~doc:"Simulated seconds of open-loop traffic.")
  in
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"K"
           ~doc:"Shard count (1 = sequential engine).")
  in
  let flood =
    Arg.(value & opt float 10.0 & info [ "flood" ] ~docv:"X"
           ~doc:"Also run an Adv_ext flood at X times the authenticated \
                 aggregate rate (0 disables the flood run).")
  in
  let bursty =
    Arg.(value & flag & info [ "bursty" ]
           ~doc:"Gilbert-Elliott-bursty arrivals instead of Poisson.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the verifier-as-a-service against open-loop fleet traffic")
    Term.(
      const run_serve $ devices $ rate $ horizon $ shards $ flood $ bursty)

(* ---- profile ---- *)

let run_prof n rounds loss shards period out folded_out =
  if n < 1 || n > 1000 then begin
    Printf.eprintf "fleet size must be 1..1000\n";
    1
  end
  else if not (loss >= 0.0 && loss < 1.0) then begin
    Printf.eprintf "loss must be in [0, 1)\n";
    1
  end
  else if shards < 1 || shards > 64 then begin
    Printf.eprintf "shards must be 1..64\n";
    1
  end
  else if period < 1 then begin
    Printf.eprintf "period must be >= 1 cycles\n";
    1
  end
  else begin
    let module Profiler = Ra_obs.Profiler in
    (* --- fleet run: traced+profiled chaos rounds, then one sweep, on the
       sharded engine --- *)
    let fleet =
      Fleet.create ~ram_size:4096 ~names:(List.init n (Printf.sprintf "device-%02d")) ()
    in
    Fleet.enable_tracing fleet;
    Fleet.enable_profiling fleet;
    Fleet.advance fleet ~seconds:1.0;
    ignore
      (Fleet.chaos_sweep ~seed:42L ~engine:(`Shards shards) ~rounds_per_member:rounds
         ~losses:[ loss ]
         ~policies:[ ("default", Retry.default) ]
         fleet);
    ignore (Fleet.sweep ~engine:(`Shards shards) fleet);
    let prof = Fleet.profile ~shards fleet in
    (* --- in-ISA SHA-1 flame graph: PC-sample the interpreted anchor
       through one full attestation round --- *)
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
      | Error msg -> failwith msg
    in
    let pc = Profiler.Pc.create () in
    let sampler = Ra_isa.Sampler.create ~period ~memory:(Device.memory device) pc in
    Ra_isa.Sha1_asm.set_sampler (Isa_anchor.sha anchor) (Some sampler);
    ignore (Isa_anchor.handle_request anchor (Verifier.make_request verifier));
    Ra_isa.Sampler.flush sampler;
    let mac_cycles = Isa_anchor.last_mac_cycles anchor in
    let symbolized_pct =
      let total = Profiler.Pc.cycles pc in
      if Int64.equal total 0L then 0.0
      else
        100.0
        *. Int64.to_float
             (Profiler.Pc.cycles_matching pc ~f:(fun leaf ->
                  not (String.length leaf >= 2 && String.sub leaf 0 2 = "0x")))
        /. Int64.to_float total
    in
    (* fold the ISA stacks into the fleet profile so one folded file and
       one JSONL stream carry both views *)
    Profiler.Pc.absorb prof.Profiler.pc pc;
    let folded_text = Profiler.folded prof in
    let phases = Profiler.Phases.samples prof.Profiler.phases in
    let perfetto = Ra_obs.Export.perfetto_string ~phases (Fleet.recent_rounds fleet) in
    Printf.printf
      "in-ISA SHA-1 anchor: %Ld interpreted mac cycles, %d stacks, %.1f%% symbolized \
       (period %d cycles)\n"
      mac_cycles
      (List.length (Profiler.Pc.rows pc))
      symbolized_pct
      period;
    let top =
      Profiler.Pc.rows pc
      |> List.sort (fun (_, a, _) (_, b, _) -> Int64.compare b a)
      |> List.filteri (fun i _ -> i < 3)
    in
    List.iter
      (fun (frames, cycles, samples) ->
        Printf.printf "  %-56s %10Ld cycles %5d samples\n"
          (String.concat ";" frames) cycles samples)
      top;
    Printf.printf "\nfleet: %d members x %d rounds at %.0f%% loss, %d shard%s\n" n
      rounds (100.0 *. loss) shards
      (if shards = 1 then "" else "s");
    Printf.printf "%-12s %14s %16s %8s\n" "phase" "cycles" "energy (nJ)" "samples";
    List.iter
      (fun (phase, (cycles, nj, samples)) ->
        Printf.printf "%-12s %14Ld %16.1f %8d\n" phase cycles nj samples)
      (Profiler.Phases.totals prof.Profiler.phases);
    Option.iter
      (fun path -> write_artifact path folded_text "feed it to flamegraph.pl")
      folded_out;
    Option.iter (fun path -> write_artifact path perfetto perfetto_hint) out;
    0
  end

let prof_cmd =
  let n =
    Arg.(
      value
      & opt int 4
      & info [ "size"; "members" ] ~docv:"N" ~doc:"Fleet size (members).")
  in
  let rounds =
    Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"R" ~doc:"Profiled rounds per member.")
  in
  let loss =
    Arg.(value & opt float 0.2 & info [ "loss" ] ~docv:"P"
           ~doc:"Per-direction loss probability for the profiled chaos cell.")
  in
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"K"
           ~doc:"Shard count for the sharded engine and the profile merge.")
  in
  let period =
    Arg.(value & opt int Ra_isa.Sampler.default_period
         & info [ "period" ] ~docv:"CYCLES"
             ~doc:"PC-sampling period in prover CPU cycles (deterministic; \
                   never wall time).")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Write the Perfetto trace-event JSON (causal rounds and phase \
                 instants) here.")
  in
  let folded =
    Arg.(value & opt (some string) None & info [ "folded" ] ~docv:"FILE"
           ~doc:"Write flamegraph.pl-compatible folded stacks of the in-ISA \
                 SHA-1 attestation here.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"PC-sample the in-ISA anchor and attribute fleet cycles/energy to phases")
    Term.(const run_prof $ n $ rounds $ loss $ shards $ period $ out $ folded)

(* ---- replay ---- *)

let run_replay n rounds loss seed diagnosis_out capsules_out perfetto_out =
  if n < 1 || n > 1000 then begin
    Printf.eprintf "fleet size must be 1..1000\n";
    1
  end
  else if rounds < 1 then begin
    Printf.eprintf "rounds must be >= 1\n";
    1
  end
  else if not (loss > 0.0 && loss < 1.0) then begin
    Printf.eprintf "loss must be in (0, 1)\n";
    1
  end
  else begin
    let module Forensics = Ra_obs.Forensics in
    let losses = [ 0.0; loss ] in
    let policies = [ ("no-retry", Retry.no_retry); ("default", Retry.default) ] in
    (* one capturing fleet: forensics + tracing + profiling, then the
       failure-provoking sweep *)
    let fleet =
      Fleet.create ~ram_size:4096 ~names:(List.init n (Printf.sprintf "device-%02d")) ()
    in
    ignore (Fleet.enable_forensics fleet);
    Fleet.enable_tracing fleet;
    Fleet.enable_profiling fleet;
    ignore (Fleet.chaos_sweep ~seed ~rounds_per_member:rounds ~losses ~policies fleet);
    let caps = Fleet.capsules fleet in
    let failures_caps =
      List.filter (fun c -> c.Forensics.cap_kind = Forensics.Failure) caps
    in
    let stamped = Fleet.annotate_exemplars fleet in
    let diags = Forensics.triage caps in
    Printf.printf
      "%d members x %d rounds, cells %s; captured %d capsules (%d failures, %d \
       slowest), %d exemplars stamped\n\n"
      n rounds
      (String.concat ", "
         (List.concat_map
            (fun l ->
              List.map
                (fun (p, _) -> Printf.sprintf "%.0f%%/%s" (100.0 *. l) p)
                policies)
            losses))
      (List.length caps) (List.length failures_caps)
      (List.length caps - List.length failures_caps)
      stamped;
    print_string (Forensics.render_diagnosis diags);
    (* replay the first failure capsule (or the latest capsule when the
       sweep happened to converge everywhere) and report the comparison *)
    let target =
      match failures_caps with
      | c :: _ -> Some c
      | [] -> ( match List.rev caps with c :: _ -> Some c | [] -> None)
    in
    let replayed =
      match target with
      | None ->
        print_endline "\nno capsule to replay";
        None
      | Some c -> (
        Printf.printf
          "\nreplaying %s capsule: %s cell=%d (loss=%.0f%% policy=%s) round=%d \
           reason=%s\n"
          (Forensics.kind_label c.Forensics.cap_kind)
          c.Forensics.cap_name c.Forensics.cap_cell
          (100.0 *. c.Forensics.cap_loss)
          c.Forensics.cap_policy c.Forensics.cap_round c.Forensics.cap_reason;
        match Fleet.replay_capsule fleet c with
        | Error msg ->
          Printf.printf "replay failed: %s\n" msg;
          None
        | Ok rp ->
          Format.printf
            "replayed: %a (%d attempt%s, %.3f s) wire digest %s — %s@."
            Verdict.pp rp.Fleet.rp_verdict rp.Fleet.rp_attempts
            (if rp.Fleet.rp_attempts = 1 then "" else "s")
            rp.Fleet.rp_elapsed_s
            (String.sub rp.Fleet.rp_digest 0 12)
            (if rp.Fleet.rp_match then "byte-identical to the capture"
             else "MISMATCH vs capture");
          Some (c, rp))
    in
    Option.iter
      (fun path ->
        write_artifact path (Forensics.diagnosis_jsonl diags) "ranked diagnosis JSONL")
      diagnosis_out;
    Option.iter
      (fun path ->
        write_artifact path (Forensics.capsules_jsonl caps) "replay capsules JSONL")
      capsules_out;
    (match perfetto_out with
    | None -> ()
    | Some path ->
      let rounds_tr, phases =
        match replayed with
        | Some (_, rp) ->
          ( (match rp.Fleet.rp_round with Some r -> [ r ] | None -> []),
            match rp.Fleet.rp_profile with
            | Some p -> Ra_obs.Profiler.Phases.samples p.Ra_obs.Profiler.phases
            | None -> [] )
        | None -> ([], [])
      in
      write_artifact path
        (Ra_obs.Export.perfetto_string ~counters:[] ~phases rounds_tr)
        "Perfetto trace of the replayed round");
    0
  end

let replay_cmd =
  let n =
    Arg.(value & opt int 6 & info [ "size" ] ~docv:"N" ~doc:"Fleet size (members).")
  in
  let rounds =
    Arg.(value & opt int 4 & info [ "rounds" ] ~docv:"R"
           ~doc:"Rounds per member per chaos cell.")
  in
  let loss =
    Arg.(value & opt float 0.4 & info [ "loss" ] ~docv:"P"
           ~doc:"Per-direction loss probability for the failure-provoking cells.")
  in
  let seed =
    Arg.(value & opt int64 31L & info [ "seed" ] ~docv:"SEED"
           ~doc:"Chaos sweep root seed (pinned into every capsule).")
  in
  let diagnosis =
    Arg.(value & opt (some string) None & info [ "diagnosis" ] ~docv:"FILE"
           ~doc:"Write the ranked diagnosis report as JSONL here.")
  in
  let capsules =
    Arg.(value & opt (some string) None & info [ "capsules" ] ~docv:"FILE"
           ~doc:"Write the captured replay capsules as JSONL here.")
  in
  let perfetto =
    Arg.(value & opt (some string) None & info [ "perfetto" ] ~docv:"FILE"
           ~doc:"Write the Perfetto trace of the replayed round here.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Capture failure capsules from a chaos sweep, triage them, and replay \
             one round byte-for-byte")
    Term.(const run_replay $ n $ rounds $ loss $ seed $ diagnosis $ capsules
          $ perfetto)

(* ---- session ---- *)

let run_session n rounds records loss seed =
  if n < 1 || n > 1000 then begin
    Printf.eprintf "fleet size must be 1..1000\n";
    1
  end
  else if rounds < 1 then begin
    Printf.eprintf "rounds must be >= 1\n";
    1
  end
  else if records < 0 then begin
    Printf.eprintf "records must be >= 0\n";
    1
  end
  else if not (loss > 0.0 && loss < 1.0) then begin
    Printf.eprintf "loss must be in (0, 1)\n";
    1
  end
  else begin
    let fleet =
      Fleet.create ~ram_size:4096 ~names:(List.init n (Printf.sprintf "device-%02d")) ()
    in
    let cells =
      Fleet.chaos_sweep ~seed ~rounds_per_member:rounds ~workload:(`Session records)
        ~losses:[ 0.0; loss ]
        ~policies:[ ("default", Retry.default) ]
        fleet
    in
    Printf.printf
      "%d members x %d session rounds (handshake + %d records + close each)\n\n"
      n rounds records;
    Printf.printf "%-8s %-10s %-12s %-14s %-8s\n" "loss" "policy" "converged"
      "mean sends" "p99 s";
    List.iter
      (fun c ->
        Printf.printf "%-8s %-10s %-12s %-14.2f %-8.2f\n"
          (Printf.sprintf "%.0f%%" (100.0 *. c.Fleet.c_loss))
          c.Fleet.c_policy
          (Printf.sprintf "%d/%d" c.Fleet.c_converged c.Fleet.c_rounds)
          c.Fleet.c_mean_attempts c.Fleet.c_p99_s)
      cells;
    (* one pristine world for the wire story *)
    let s1 = Session.create ~ram_size:4096 () in
    Session.advance_time s1 ~seconds:1.0;
    let r1 = Secure_session.run_r ~records s1 in
    Printf.printf
      "\nsingle pristine session: %s, %d transmissions, %.3f s, %d wire frames\n"
      (Verdict.label r1.Session.r_verdict)
      r1.Session.r_attempts r1.Session.r_elapsed_s
      (Ra_net.Channel.transcript_length (Session.channel s1));
    0
  end

let session_cmd =
  let n =
    Arg.(value & opt int 6 & info [ "size" ] ~docv:"N" ~doc:"Fleet size (members).")
  in
  let rounds =
    Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"R"
           ~doc:"Session rounds per member per chaos cell.")
  in
  let records =
    Arg.(value & opt int 4 & info [ "records" ] ~docv:"K"
           ~doc:"Streaming attestation records per session.")
  in
  let loss =
    Arg.(value & opt float 0.2 & info [ "loss" ] ~docv:"P"
           ~doc:"Per-direction loss probability for the impaired cell.")
  in
  let seed =
    Arg.(value & opt int64 23L & info [ "seed" ] ~docv:"SEED"
           ~doc:"Chaos sweep root seed.")
  in
  Cmd.v
    (Cmd.info "session"
       ~doc:"Stream encrypted, replay-windowed attestation records over an \
             attested secure session")
    Term.(const run_session $ n $ rounds $ records $ loss $ seed)

let main =
  Cmd.group
    (Cmd.info "ra_cli" ~version:"1.0.0"
       ~doc:"Prover-side remote attestation: protocol, attacks, and costs")
    [ attest_cmd; attack_cmd; table2_cmd; costs_cmd; auth_cost_cmd; fleet_cmd; lattice_cmd; inspect_cmd; stats_cmd; chaos_cmd; trace_cmd; serve_cmd; prof_cmd; replay_cmd; session_cmd ]

let () = exit (Cmd.eval' main)
