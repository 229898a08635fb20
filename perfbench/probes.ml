(* The traced run's ladder: benchmark-owned probes that call each
   layer's public functions inside spans, from the crypto kernels up to
   the fleet engine and the server. Every probe measures host time only;
   simulated outputs are checked by the workloads, never tuned here.

   Where a probe re-drives a workload's own path (the stream member, the
   secure-session record, the server's submit path, the interpreted
   round) it alternates untraced and traced chunks, so the same probe
   also yields that workload's tracing overhead. *)

open Ra_core
module S = Spans
module Device = Ra_mcu.Device
module W = Workloads

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* Call [f] until [budget] seconds have passed and at least [min] times. *)
let for_budget ~min budget f =
  let t0 = now_s () in
  let n = ref 0 in
  while !n < min || now_s () -. t0 < budget do
    f ();
    incr n
  done

let time_s f = snd (W.timed f) /. 1e9

(* Legs compared against each other each start from a collected heap, so
   one leg's garbage is not charged to the next. *)
let leg traced f =
  Gc.full_major ();
  S.with_tracing traced (fun () -> time_s f)

(* Median over alternating-order pairs of traced/untraced chunk times,
   minus one, in percent: adjacent pairs cancel slow host drift.
   [prepare] builds a chunk's inputs untimed and returns the timed part. *)
let tracing_overhead ~budget ~min prepare =
  let ratios = ref [] in
  let k = ref 0 in
  let run traced = leg traced (prepare ()) in
  for_budget ~min budget (fun () ->
      let plain, traced =
        if !k land 1 = 0 then
          let p = run false in
          (p, run true)
        else
          let t = run true in
          (run false, t)
      in
      incr k;
      ratios := (traced /. plain) :: !ratios);
  100.0 *. (Stats.median !ratios -. 1.0)

let batch ~n name f =
  S.with_span ~ops:n name (fun () ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (f ()))
      done)

(* ---- lib/crypto ------------------------------------------------------- *)

let crypto ~budget =
  let module C = Ra_crypto in
  let kib = String.make 1024 'a' and b64 = String.make 64 'b' in
  let hk = C.Hmac.key C.Hmac.sha1 ~key:W.server_sym_key in
  let aes = C.Aes.expand (String.make C.Aes.key_size 'k') in
  let cipher = C.Block_mode.aes aes in
  let nonce = String.make (C.Aes.block_size - 8) 'n' in
  let cmac = C.Cmac.derive aes in
  let kernel name f = for_budget ~min:3 budget (fun () -> batch ~n:200 name f) in
  kernel "crypto.sha1_1kib" (fun () -> C.Sha1.digest kib);
  kernel "crypto.hmac_sha1_64b" (fun () -> C.Hmac.mac_with hk b64);
  kernel "crypto.aes_ctr_64b" (fun () -> C.Block_mode.ctr_crypt cipher ~nonce b64);
  kernel "crypto.cmac_64b" (fun () -> C.Cmac.mac cmac b64);
  fun aggs ->
    [
      metric "crypto.sha1_ns_per_kib" "ns" (S.ns_per_op aggs "crypto.sha1_1kib");
      metric "crypto.hmac_sha1_64b_ns" "ns" (S.ns_per_op aggs "crypto.hmac_sha1_64b");
      metric "crypto.aes_ctr_64b_ns" "ns" (S.ns_per_op aggs "crypto.aes_ctr_64b");
      metric "crypto.cmac_64b_ns" "ns" (S.ns_per_op aggs "crypto.cmac_64b");
    ]

(* ---- lib/mcu ---------------------------------------------------------- *)

let mcu ~budget =
  let key = Auth.prover_key_blob ~sym_key:W.isa_sym_key ~public:None in
  let d = Device.create ~ram_size:W.isa_ram ~key () in
  let mem = Device.memory d and ranges = Device.attested_ranges d in
  for_budget ~min:10 budget (fun () ->
      ignore (S.with_span "mcu.device_create" (fun () -> Device.create ~ram_size:W.stream_ram ~key ())));
  for_budget ~min:3 budget (fun () ->
      batch ~n:50 "mcu.attested_read" (fun () ->
          List.iter (fun (base, len) -> ignore (Ra_mcu.Memory.read_bytes mem base len)) ranges));
  let kib = float_of_int (Device.attested_total_len d) /. 1024.0 in
  fun aggs ->
    [
      metric "mcu.device_create_us" "us" (S.ns_per_op aggs "mcu.device_create" /. 1e3);
      metric "mcu.attested_read_ns_per_kib" "ns" (S.ns_per_op aggs "mcu.attested_read" /. kib);
    ]

(* ---- lib/isa: the interpreted anchor round ---------------------------- *)

let isa ~budget ~seed =
  let w = W.isa_world ~seed in
  let failed = ref 0 in
  let round () =
    S.with_span "isa.round" (fun () ->
        let req = S.with_span "isa.request" (fun () -> Verifier.make_request w.verifier) in
        let resp = S.with_span "isa.anchor" (fun () -> Isa_anchor.handle_request_r w.anchor req) in
        let verdict =
          S.with_span "isa.verify" (fun () ->
              match resp with
              | Ok r -> Verifier.check_response_r w.verifier ~request:req r
              | Error v -> v)
        in
        if verdict <> Verdict.Trusted then incr failed)
  in
  let overhead = tracing_overhead ~budget ~min:2 (fun () -> round) in
  let cycles = Int64.to_float (Isa_anchor.last_mac_cycles w.anchor) in
  ( overhead,
    !failed,
    fun aggs ->
      [
        metric "isa.round_ms" "ms" (S.ns_per_op aggs "isa.round" /. 1e6);
        metric "isa.ns_per_sim_cycle" "ns" (S.ns_per_op aggs "isa.anchor" /. cycles);
        metric "isa.sim_cycles_per_round" "count" cycles;
      ] )

(* ---- construction ----------------------------------------------------- *)

let build ~budget =
  let spec = Architecture.trustlite_base in
  let freshness_kind =
    match spec.Architecture.policy with
    | Freshness.No_freshness -> Verifier.Fk_none
    | Freshness.Nonce_history _ -> Verifier.Fk_nonce
    | Freshness.Counter -> Verifier.Fk_counter
    | Freshness.Timestamp _ -> Verifier.Fk_timestamp
  in
  for_budget ~min:10 budget (fun () ->
          let v =
            S.with_span "build.verifier" (fun () ->
                Verifier.of_config
                  (Verifier.Config.v ?scheme:spec.Architecture.scheme ~freshness_kind
                     ~sym_key:W.isa_sym_key ~time:(Ra_net.Simtime.create ()) ()))
          in
          let v = match v with Ok v -> v | Error m -> failwith m in
          ignore
            (S.with_span "build.prover" (fun () ->
                 Architecture.build ~ram_size:W.stream_ram
                   ~key_blob:(Verifier.prover_key_blob v) spec));
          ignore
            (S.with_span "build.session_create" (fun () ->
                 Session.create ~ram_size:W.stream_ram ())));
  (* live heap per session held alive, after full compactions *)
  let held_n = 64 in
  let live () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  let held = List.init held_n (fun _ -> Session.create ~ram_size:W.stream_ram ()) in
  let after = live () in
  ignore (Sys.opaque_identity held);
  let live_kb = float_of_int ((after - before) * (Sys.word_size / 8)) /. 1024.0 /. float_of_int held_n in
  fun aggs ->
    let create = S.ns_per_op aggs "build.session_create" in
    let verifier = S.ns_per_op aggs "build.verifier" and prover = S.ns_per_op aggs "build.prover" in
    [
      metric "build.verifier_us" "us" (verifier /. 1e3);
      metric "build.prover_us" "us" (prover /. 1e3);
      metric "build.session_create_us" "us" (create /. 1e3);
      metric "build.session_self_us" "us" ((create -. verifier -. prover) /. 1e3);
      metric "build.live_kb_per_session" "kB" live_kb;
    ]

(* ---- one round and the fleet engine: the stream member re-driven ------ *)

let pre_offset i = float_of_int (i + 1) *. Fleet.stagger_seconds
let post_offset ~n i = (float_of_int n *. Fleet.stagger_seconds) -. pre_offset i

(* The calls Fleet.stream_sweep makes for member [i] of [n], from the
   outside: create, stagger, one round (request, prover, verifier drain),
   stagger. Returns whether the round was trusted. *)
let redrive_member ~n i =
  S.with_span "fleet.member" (fun () ->
      let s = S.with_span "fleet.create" (fun () -> Session.create ~ram_size:W.stream_ram ()) in
      Session.advance_time s ~seconds:(pre_offset i);
      let before = List.length (Session.verdicts s) in
      S.with_span "round" (fun () ->
          ignore (S.with_span "round.request" (fun () -> Session.send_request s));
          ignore (S.with_span "round.prover" (fun () -> Session.deliver_next_to_prover s));
          S.with_span "round.verify" (fun () ->
              let rec drain () =
                if List.length (Session.verdicts s) = before && Session.deliver_next_to_verifier s
                then drain ()
              in
              drain ()));
      Session.advance_time s ~seconds:(post_offset ~n i);
      match List.rev (Session.verdicts s) with (_, Verdict.Trusted) :: _ -> true | _ -> false)

type fleet_result = {
  f_overhead_pct : float;
  f_gap_pct : float;  (** traced re-drive per member vs the untraced engine *)
  f_gap_spread_pct : float;
  f_closes : bool;
  f_self_sum_ratio : float;  (** sum of self times in a member / its total *)
  f_parallel : (float, string) result;
      (** two-shard speed-up / 2, or why it cannot apply here *)
  f_failed : int;
}

let fleet ~budget ~seed ~smoke =
  let m = 256 in
  let failed = ref 0 in
  let redrive () =
    for i = 0 to m - 1 do
      if not (redrive_member ~n:m i) then incr failed
    done
  in
  let engine shards () = ignore (W.stream_sweep ~seed ~shards ~members:m) in
  let nproc = Host.nproc () in
  (* legs: untraced engine at one shard, traced and untraced re-drive,
     and (with two cores) the engine at two shards *)
  let legs =
    Array.of_list
      ([ (false, engine 1); (true, redrive); (false, redrive) ]
      @ if nproc >= 2 then [ (false, engine 2) ] else [])
  in
  let times = Array.make (Array.length legs) [] in
  let k = ref 0 in
  for_budget ~min:3 budget (fun () ->
      (* rotate the order each iteration so drift hits every leg alike *)
      let n = Array.length legs in
      for j = 0 to n - 1 do
        let i = (j + !k) mod n in
        let traced, f = legs.(i) in
        times.(i) <- leg traced f :: times.(i)
      done;
      incr k);
  let engine1 = times.(0) and traced = times.(1) and plain = times.(2) in
  let gap = List.map2 ( /. ) traced engine1 and ovh = List.map2 ( /. ) traced plain in
  let overhead = 100.0 *. (Stats.median ovh -. 1.0) in
  let gap_pct = 100.0 *. (Stats.median gap -. 1.0) in
  let spread_pct = 100.0 *. Stats.spread gap in
  (* what stream_sweep spends per member beyond the calls the re-drive
     makes (member digest, tallies, shard dispatch); both legs untraced *)
  let engine_self_us = (Stats.median engine1 -. Stats.median plain) /. float_of_int m *. 1e6 in
  let parallel =
    if nproc < 2 then Error (Printf.sprintf "nproc = %d < 2" nproc)
    else if smoke then Error "smoke run"
    else Ok (Stats.median engine1 /. Stats.median times.(3) /. 2.0)
  in
  (* one more member, traced on its own, for the exact per-round counts *)
  let entries, wire_bytes =
    let s = Session.create ~ram_size:W.stream_ram () in
    Session.advance_time s ~seconds:(pre_offset 0);
    let e0 = List.length (Ra_net.Trace.entries (Session.trace s)) in
    let ch = Session.channel s in
    let pos = Ra_net.Channel.transcript_length ch in
    ignore (Session.attest_round s);
    ( List.length (Ra_net.Trace.entries (Session.trace s)) - e0,
      List.fold_left
        (fun acc e -> acc + String.length e.Ra_net.Channel.payload)
        0
        (Ra_net.Channel.transcript_from ch ~pos) )
  in
  fun aggs ->
    let member = S.find aggs "fleet.member" in
    let subtree =
      [ "fleet.member"; "fleet.create"; "round"; "round.request"; "round.prover"; "round.verify" ]
    in
    let self_sum = List.fold_left (fun acc n -> acc +. (S.find aggs n).S.a_self_ns) 0.0 subtree in
    let result =
      {
        f_overhead_pct = overhead;
        f_gap_pct = gap_pct;
        f_gap_spread_pct = spread_pct;
        f_closes = Float.abs gap_pct <= Float.abs overhead +. spread_pct;
        f_self_sum_ratio = self_sum /. member.S.a_total_ns;
        f_parallel = parallel;
        f_failed = !failed;
      }
    in
    ( result,
      [
        metric "round.request_us" "us" (S.ns_per_op aggs "round.request" /. 1e3);
        metric "round.prover_us" "us" (S.ns_per_op aggs "round.prover" /. 1e3);
        metric "round.verify_us" "us" (S.ns_per_op aggs "round.verify" /. 1e3);
        metric "round.audit_entries" "count" (float_of_int entries);
        metric "round.wire_bytes" "bytes" (float_of_int wire_bytes);
        metric "fleet.member_us" "us" (S.ns_per_op aggs "fleet.member" /. 1e3);
        metric "fleet.engine_self_us" "us" engine_self_us;
        metric "ladder.closure_gap_pct" "%" gap_pct;
      ] )

(* Retries on the session workload's shape: a small fleet swept at 0%
   and 5% loss; first transmissions are what the lossless cell sends. *)
let chaos ~seed =
  let fleet =
    Fleet.create ~ram_size:W.session_ram
      ~names:(List.init 8 (fun i -> Printf.sprintf "s%d-c%02d" seed i))
      ()
  in
  let cells =
    S.with_span "fleet.chaos_sweep" (fun () ->
        Fleet.chaos_sweep ~seed:(Int64.of_int seed) ~rounds_per_member:1 ~engine:(`Shards 1)
          ~workload:(`Session W.session_records) ~losses:[ 0.0; W.session_loss ]
          ~policies:[ ("default", Retry.default) ]
          fleet)
  in
  let attempts loss =
    (List.find (fun c -> c.Fleet.c_loss = loss) cells).Fleet.c_mean_attempts
  in
  let lossy = attempts W.session_loss in
  [
    metric "fleet.attempts_per_round" "count" lossy;
    metric "fleet.useful_ratio" "ratio" (attempts 0.0 /. lossy);
  ]

(* ---- Secure_session: handshake and streamed records ------------------- *)

let ss_records = 32

let pump s =
  let rec go () =
    let a = Session.deliver_next_to_prover s in
    let b = Session.deliver_next_to_verifier s in
    if a || b then go ()
  in
  go ()

(* One session lifecycle; returns the in-session verdicts that were not
   trusted. *)
let ss_lifecycle s =
  S.with_span "ss.lifecycle" (fun () ->
      let r, i =
        S.with_span "ss.handshake" (fun () ->
            let r = Secure_session.listen s in
            let i = Secure_session.connect s in
            Secure_session.handshake_send i;
            pump s;
            (r, i))
      in
      for _ = 1 to ss_records do
        S.with_span "ss.record" (fun () ->
            ignore (S.with_span "ss.seal" (fun () -> Secure_session.request_round i));
            let rec go () =
              let a = S.with_span "ss.responder" (fun () -> Session.deliver_next_to_prover s) in
              let b = S.with_span "ss.initiator" (fun () -> Session.deliver_next_to_verifier s) in
              if a || b then go ()
            in
            go ())
      done;
      ignore (Secure_session.close_begin i);
      pump s;
      let bad =
        List.length (List.filter (fun (_, v) -> v <> Verdict.Trusted) (Secure_session.session_verdicts i))
        + (ss_records - Secure_session.verdict_count i)
      in
      Secure_session.teardown_initiator i;
      Secure_session.teardown_responder r;
      bad)

let secure_session ~budget =
  let failed = ref 0 in
  let prepare () =
    let sessions =
      List.init 2 (fun _ ->
          let s = Session.create ~ram_size:W.session_ram () in
          (* past the t = 0 timestamp corner, as the fleet's stagger is *)
          Session.advance_time s ~seconds:1.0;
          s)
    in
    fun () -> List.iter (fun s -> failed := !failed + ss_lifecycle s) sessions
  in
  let overhead = tracing_overhead ~budget ~min:3 prepare in
  let n = 10_000 in
  S.with_span ~ops:n "ss.window" (fun () ->
      let w = Secure_session.Window.create () in
      for k = 1 to n do
        let seq = Int64.of_int k in
        ignore (Sys.opaque_identity (Secure_session.Window.check w seq));
        ignore (Sys.opaque_identity (Secure_session.Window.accept w seq))
      done);
  ( overhead,
    !failed,
    fun aggs ->
      let records = float_of_int (S.find aggs "ss.record").S.a_spans in
      let per_record name = (S.find aggs name).S.a_total_ns /. records /. 1e3 in
      [
        metric "ss.handshake_us" "us" (S.ns_per_op aggs "ss.handshake" /. 1e3);
        metric "ss.record_us" "us" (S.ns_per_op aggs "ss.record" /. 1e3);
        metric "ss.record_responder_us" "us" (per_record "ss.responder");
        metric "ss.record_initiator_us" "us" (per_record "ss.initiator");
        metric "ss.window_ns" "ns" (S.ns_per_op aggs "ss.window");
      ] )

(* ---- Server: arrivals, admission, submit, batched verification -------- *)

let device_name i = Printf.sprintf "dev-%06d" i

(* An authentic report with counter [n] over the server's reference image. *)
let authentic_response ~keyed n =
  let resp0 = { Message.echo_challenge = ""; echo_freshness = Message.F_counter n; report = "" } in
  {
    resp0 with
    report =
      Auth.response_report_keyed ~keyed ~body:(Message.response_body resp0)
        ~memory_image:W.server_image;
  }

(* The workload's traffic over [horizon], fed one request at a time into
   a benchmark-owned Sched and Server. Returns the server's stats. *)
let server_run ~seed ~horizon cfg =
  let tr = W.server_traffic ~seed ~horizon in
  let sched = Sched.create () in
  let server = match Server.create ~sched cfg with Ok s -> s | Error m -> failwith m in
  for i = 0 to tr.tr_devices - 1 do
    Server.register_device server (device_name i)
  done;
  let keyed = Auth.keyed W.server_sym_key in
  S.with_span "server.run" (fun () ->
      for i = 0 to tr.tr_devices + tr.tr_flood_sources - 1 do
        let legit = i < tr.tr_devices in
        let arrivals = W.source_arrivals tr i in
        let junk =
          Ra_crypto.Prng.create (Ra_net.Impairment.derive_seed ~root:(Int64.lognot tr.tr_seed) ~index:i)
        in
        let counter = ref 0L in
        let frame () =
          counter := Int64.add !counter 1L;
          let resp =
            if legit then authentic_response ~keyed !counter
            else
              {
                Message.echo_challenge = "";
                echo_freshness = Message.F_counter !counter;
                report = Ra_crypto.Prng.bytes junk 20;
              }
          in
          Message.wire_to_bytes (Message.Response resp)
        in
        let rq_device = if legit then Some (device_name i) else None in
        let rec arm () =
          let at = S.with_span "server.arm" (fun () -> Ra_net.Arrival.next arrivals) in
          if at < horizon then
            Sched.at sched ~at (fun () ->
                let rq_frame = S.with_span "server.frame" frame in
                S.with_span "server.submit" (fun () ->
                    Server.submit server { Server.rq_device; rq_tag = 0; rq_frame });
                arm ())
        in
        arm ()
      done;
      ignore (Sched.run sched);
      Server.flush server);
  Server.stats server

let server ~budget ~seed =
  let tr = W.server_traffic ~seed ~horizon:W.server_horizon_s in
  let counts = S.with_span "server.arrival" (fun () -> W.arrival_counts tr) in
  let draws = Array.fold_left (fun acc c -> acc + c + 1) 0 counts in
  let per_shard =
    Array.map
      (fun { Shard.sh_lo; sh_hi } ->
        float_of_int (Array.fold_left ( + ) 0 (Array.sub counts sh_lo (sh_hi - sh_lo))))
      (Shard.partition ~members:(Array.length counts) ~shards:W.server_shards)
  in
  let imbalance =
    Array.fold_left Float.max 0.0 per_shard
    /. (Array.fold_left ( +. ) 0.0 per_shard /. float_of_int (Array.length per_shard))
  in
  (* admission alone, on the merged arrival sequence of a short horizon *)
  let short = W.server_traffic ~seed ~horizon:3.0 in
  let offers =
    let acc = ref [] in
    for i = 0 to short.tr_devices + short.tr_flood_sources - 1 do
      let a = W.source_arrivals short i in
      let rec go () =
        let at = Ra_net.Arrival.next a in
        if at < short.tr_horizon_s then begin
          acc := (at, i) :: !acc;
          go ()
        end
      in
      go ()
    done;
    Array.of_list (List.sort compare !acc)
  in
  let cfg = W.server_config () in
  let admit () =
    let adm = Admission.create ~config:cfg.Server.sc_admission () in
    for i = 0 to short.tr_devices - 1 do
      Admission.register adm (device_name i)
    done;
    S.with_span ~ops:(Array.length offers) "server.admission" (fun () ->
        Array.iter
          (fun (now, i) ->
            let identity = if i < short.tr_devices then Some (device_name i) else None in
            ignore (Admission.offer adm ~identity ~now i);
            if Admission.depth adm >= 64 then
              while Admission.take adm <> None do
                ()
              done)
          offers)
  in
  let stats = ref None in
  for_budget ~min:3 (budget /. 5.0) admit;
  let overhead =
    tracing_overhead ~budget ~min:3 (fun () () -> stats := Some (server_run ~seed ~horizon:3.0 cfg))
  in
  let verifier =
    match Verifier.of_config (W.server_verifier_config ()) with Ok v -> v | Error m -> failwith m
  in
  let keyed = Auth.keyed W.server_sym_key in
  let resps = Array.init 64 (fun i -> authentic_response ~keyed (Int64.of_int (i + 1))) in
  for_budget ~min:3 (budget /. 5.0) (fun () ->
      S.with_span ~ops:64 "server.batch_verify" (fun () ->
          ignore (Sys.opaque_identity (Server.Batch.verify verifier resps))));
  let st = Option.get !stats in
  ( overhead,
    fun aggs ->
      [
        metric "server.arrival_ns" "ns" ((S.find aggs "server.arrival").S.a_total_ns /. float_of_int draws);
        metric "server.admission_ns" "ns" (S.ns_per_op aggs "server.admission");
        metric "server.submit_ns" "ns" (S.ns_per_op aggs "server.submit");
        metric "server.batch_verify_ns_per_report" "ns" (S.ns_per_op aggs "server.batch_verify");
        metric "server.drain_ns_per_report" "ns"
          ((S.find aggs "server.run").S.a_self_ns
          /. float_of_int (max 1 (st.Server.sv_batched_reports * (S.find aggs "server.run").S.a_spans)));
        metric "server.admitted_ratio" "ratio"
          (float_of_int st.Server.sv_admitted /. float_of_int (max 1 st.Server.sv_requests));
        metric "server.shard_imbalance" "ratio" imbalance;
      ] )
