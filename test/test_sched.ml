open Ra_core
module Simtime = Ra_net.Simtime
module Trace = Ra_net.Trace
module Channel = Ra_net.Channel
module Impairment = Ra_net.Impairment

(* ---- event queue ------------------------------------------------------ *)

let test_heap_order_and_ties () =
  let sched = Sched.create () in
  let log = ref [] in
  let ev tag () = log := tag :: !log in
  Sched.at sched ~at:5.0 (ev "a5");
  Sched.at sched ~at:1.0 (ev "b1");
  Sched.at sched ~at:5.0 (ev "c5");
  Sched.at sched ~at:3.0 (ev "d3");
  Alcotest.(check int) "four pending" 4 (Sched.pending sched);
  Alcotest.(check bool) "earliest is 1.0" true (Sched.next_at sched = Some 1.0);
  let fired = Sched.run sched in
  Alcotest.(check int) "all fired" 4 fired;
  Alcotest.(check (list string)) "time order, insertion order on ties"
    [ "b1"; "d3"; "a5"; "c5" ]
    (List.rev !log);
  Alcotest.(check (float 0.0)) "clock at last event" 5.0 (Sched.now sched);
  Alcotest.(check int) "fired counter" 4 (Sched.fired sched);
  Alcotest.(check int) "queue drained" 0 (Sched.pending sched)

let test_past_events_clamp_to_now () =
  let sched = Sched.create () in
  let seen = ref [] in
  Sched.at sched ~at:2.0 (fun () ->
      (* "due" one second ago: must fire at now, never rewind the clock *)
      Sched.at sched ~at:1.0 (fun () -> seen := Sched.now sched :: !seen));
  let fired = Sched.run sched in
  Alcotest.(check int) "both fired" 2 fired;
  Alcotest.(check (list (float 0.0))) "clamped to now" [ 2.0 ] !seen

let test_run_until_horizon () =
  let sched = Sched.create () in
  let log = ref [] in
  List.iter (fun at -> Sched.at sched ~at (fun () -> log := at :: !log)) [ 1.0; 2.0; 10.0 ];
  let fired = Sched.run ~until:5.0 sched in
  Alcotest.(check int) "two within horizon" 2 fired;
  Alcotest.(check int) "one beyond it still pending" 1 (Sched.pending sched);
  Alcotest.(check (float 0.0)) "clock at last fired event" 2.0 (Sched.now sched);
  let rest = Sched.run sched in
  Alcotest.(check int) "rest fired" 1 rest;
  Alcotest.(check (float 0.0)) "clock caught up" 10.0 (Sched.now sched)

let test_after_negative_rejected () =
  let sched = Sched.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sched.after: delay must be >= 0") (fun () ->
      Sched.after sched ~delay:(-1.0) (fun () -> ()))

let test_determinism_across_runs () =
  let run () =
    let sched = Sched.create () in
    let log = ref [] in
    let rec chain i at =
      if i < 20 then
        Sched.at sched ~at (fun () ->
            log := (i, Sched.now sched) :: !log;
            chain (i + 1) (at +. (0.1 *. float_of_int (i mod 3))))
    in
    chain 0 0.5;
    Sched.at sched ~at:0.5 (fun () -> log := (100, Sched.now sched) :: !log);
    ignore (Sched.run sched);
    List.rev !log
  in
  Alcotest.(check bool) "two runs identical" true (run () = run ())

(* ---- delayed delivery on the channel --------------------------------- *)

let test_channel_delay_inline () =
  let time = Simtime.create () in
  let trace = Trace.create time in
  let ch = Channel.create time trace in
  let got = ref [] in
  let (_ : string Channel.Endpoint.handle) =
    Channel.Endpoint.attach ch Channel.Prover_side (fun m -> got := m :: !got)
  in
  Channel.set_impairment ch
    (Some
       (Impairment.create
          ~to_prover:{ Impairment.pristine with delay = 1.0; delay_s = 0.25 }
          ~seed:11L ()));
  (* a delayed delivery advances the session's own clock inline *)
  let before = Simtime.now time in
  Channel.send ch ~src:Channel.Verifier_side "inline";
  let (_ : bool) = Channel.forward_next ch ~dst:Channel.Prover_side in
  Alcotest.(check (list string)) "inline delivery immediate" [ "inline" ] !got;
  Alcotest.(check bool) "inline delay advanced the clock" true
    (Simtime.now time >= before)

let test_metric_families_exported () =
  let sched = Sched.create () in
  Sched.at sched ~at:1.0 (fun () -> ());
  ignore (Sched.run sched);
  let exposition = Ra_obs.Export.render_prometheus Ra_obs.Registry.default in
  List.iter
    (fun family ->
      Alcotest.(check bool) ("exposition has " ^ family) true
        (Trace.contains_substring ~needle:family exposition))
    [ "ra_sched_events_total{"; "ra_sched_queue_depth" ]

(* ---- the shard engine against the sequential reference fold ---------- *)

let names = [ "a"; "b"; "c" ]

(* every interesting shard count for 3 members: 1 = one shard on the
   caller, 2/3 = uneven and singleton splits, 4/7 = more shards than
   members, so some shards own empty ranges *)
let shard_counts = [ 1; 2; 3; 4; 7 ]

let test_sweep_matches_reference () =
  let reference = Fleet_ref.create ~ram_size:1024 ~traced:true names in
  let verdicts = Fleet_ref.sweep reference in
  List.iter
    (fun shards ->
      let f = Fleet.create ~ram_size:1024 ~names () in
      Fleet.enable_tracing f;
      let label what = Printf.sprintf "%s at %d shards" what shards in
      Alcotest.(check bool) (label "verdicts") true
        (Fleet.sweep ~engine:(`Shards shards) f = verdicts);
      Alcotest.(check bool) (label "ledgers, clocks, transcripts, recorders") true
        (Fleet_ref.fleet_state f = Fleet_ref.state reference);
      Alcotest.(check string) (label "fingerprint") (Fleet_ref.fingerprint reference)
        (Fleet.fingerprint f))
    shard_counts

(* a lossy chaos grid with capture on: grid, member state, capsules and
   fingerprint at every shard count *)
let test_chaos_matches_reference () =
  let losses = [ 0.0; 0.3 ] and policies = [ ("impatient", Retry.impatient) ] in
  let reference = Fleet_ref.create ~ram_size:1024 ~traced:true names in
  let grid =
    Fleet_ref.chaos_sweep ~seed:99L ~rounds_per_member:3 ~losses ~policies reference
  in
  List.iter
    (fun shards ->
      let f = Fleet.create ~ram_size:1024 ~names () in
      Fleet.enable_tracing f;
      ignore (Fleet.enable_forensics f);
      let label what = Printf.sprintf "%s at %d shards" what shards in
      Alcotest.(check bool) (label "grid") true
        (Fleet.chaos_sweep ~seed:99L ~engine:(`Shards shards) ~rounds_per_member:3
           ~losses ~policies f
        = grid);
      Alcotest.(check bool) (label "ledgers, clocks, transcripts, recorders") true
        (Fleet_ref.fleet_state f = Fleet_ref.state reference);
      Alcotest.(check bool) (label "capsules") true
        (Fleet_ref.fleet_capsules f = reference.Fleet_ref.capsules);
      Alcotest.(check string) (label "fingerprint") (Fleet_ref.fingerprint reference)
        (Fleet.fingerprint f))
    shard_counts

(* The chaos metric families, float sum included, must be exactly what
   flushing the shard arenas in shard order gives. Eight members and
   lossy cells give round times of very different magnitudes, so the
   sum depends on the order the shard sums reach the registry. *)
let test_chaos_metrics_match_reference () =
  let names = List.init 8 (Printf.sprintf "m%d") in
  let losses = [ 0.0; 0.3 ] and policies = [ ("impatient", Retry.impatient) ] in
  let reference = Fleet_ref.create ~ram_size:1024 names in
  ignore (Fleet_ref.chaos_sweep ~seed:7L ~rounds_per_member:3 ~losses ~policies reference);
  List.iter
    (fun shards ->
      let f = Fleet.create ~ram_size:1024 ~names () in
      Ra_obs.Registry.reset Ra_obs.Registry.default;
      ignore
        (Fleet.chaos_sweep ~seed:7L ~engine:(`Shards shards) ~rounds_per_member:3 ~losses
           ~policies f);
      Alcotest.(check bool)
        (Printf.sprintf "metric totals at %d shards" shards)
        true
        (Fleet_ref.registry_chaos_metrics () = Fleet_ref.chaos_metrics ~shards reference))
    shard_counts;
  Ra_obs.Registry.reset Ra_obs.Registry.default

let prop_sharded_engine_equivalent =
  let gen =
    QCheck.Gen.(
      triple (float_bound_exclusive 0.5) (map Int64.of_int int) (oneofl shard_counts))
  in
  QCheck.Test.make ~count:10
    ~name:
      "sharded engine = sequential oracle (verdicts, ledgers, transcripts, \
       clocks, recorders) over random (loss, seed, shards)"
    (QCheck.make gen ~print:(fun (loss, seed, shards) ->
         Printf.sprintf "loss=%.3f seed=%Ld shards=%d" loss seed shards))
    (fun (loss, seed, shards) ->
      let names = [ "p"; "q"; "r" ] in
      let losses = [ loss ] and policies = [ ("impatient", Retry.impatient) ] in
      let reference = Fleet_ref.create ~ram_size:1024 ~traced:true names in
      let f = Fleet.create ~ram_size:1024 ~names () in
      Fleet.enable_tracing f;
      Fleet.chaos_sweep ~seed ~engine:(`Shards shards) ~rounds_per_member:2 ~losses
        ~policies f
      = Fleet_ref.chaos_sweep ~seed ~rounds_per_member:2 ~losses ~policies reference
      && Fleet_ref.fleet_state f = Fleet_ref.state reference)

(* ---- retry bound used for scheduler horizons -------------------------- *)

let test_max_total_s_bounds_round () =
  let p = Retry.impatient in
  let bound = Retry.max_total_s p in
  Alcotest.(check bool) "bound positive" true (bound > 0.0);
  (* a dead wire uses every window in full: the round's simulated waiting
     must stay within the bound *)
  let session = Session.create ~ram_size:1024 () in
  Session.set_impairment session
    (Some
       (Impairment.create
          ~to_prover:(Impairment.lossy 1.0)
          ~to_verifier:(Impairment.lossy 1.0)
          ~seed:3L ()));
  let round = Session.attest_round_r ~policy:p session in
  (match round.Session.r_verdict with
  | Verdict.Timed_out { waited_s; _ } ->
    Alcotest.(check bool) "waited within max_total_s" true (waited_s <= bound)
  | v -> Alcotest.failf "expected Timed_out, got %s" (Verdict.label v));
  Alcotest.(check bool) "bound is tight-ish (not 10x the wait)" true
    (round.Session.r_elapsed_s > 0.5 *. bound)

let tests =
  [
    Alcotest.test_case "heap order and ties" `Quick test_heap_order_and_ties;
    Alcotest.test_case "past events clamp to now" `Quick test_past_events_clamp_to_now;
    Alcotest.test_case "run until horizon" `Quick test_run_until_horizon;
    Alcotest.test_case "negative delay rejected" `Quick test_after_negative_rejected;
    Alcotest.test_case "determinism across runs" `Quick test_determinism_across_runs;
    Alcotest.test_case "channel delay inline" `Quick test_channel_delay_inline;
    Alcotest.test_case "metric families exported" `Quick test_metric_families_exported;
    Alcotest.test_case "sweep: shards = seq" `Quick test_sweep_matches_reference;
    Alcotest.test_case "chaos: shards = seq" `Slow test_chaos_matches_reference;
    Alcotest.test_case "chaos: metric totals = reference" `Quick
      test_chaos_metrics_match_reference;
    QCheck_alcotest.to_alcotest prop_sharded_engine_equivalent;
    Alcotest.test_case "max_total_s bounds a round" `Quick test_max_total_s_bounds_round;
  ]
