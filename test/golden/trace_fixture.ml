(* Renders the audit text ([Ra_net.Trace.pp]) and the span JSONL
   ([Ra_obs.Export.spans_jsonl]) of scripted sessions that between them
   reach every family of trace line: attest, sync and service rounds, a
   rejected request, impairment drops and a retry give-up, a lost
   delivery, adversary inject/replay/intercept/drop, a roaming tamper
   and a secure session (handshake, records, close, give-up).

   The output is diffed against trace_fixture.expected by
   [dune runtest]; every scenario is seeded, so it is deterministic. *)

open Ra_core
module Channel = Ra_net.Channel
module Impairment = Ra_net.Impairment

let show name trace spans =
  Format.printf "== %s: audit ==@.%a" name Ra_net.Trace.pp trace;
  List.iter
    (fun (label, ctx) ->
      Format.printf "== %s: spans (%s) ==@.%s" name label (Ra_obs.Export.spans_jsonl ctx))
    spans

let show_session name s =
  show name (Session.trace s)
    [
      ("trace", Ra_net.Trace.spans (Session.trace s));
      ("anchor", Code_attest.spans (Session.anchor s));
      ("service", Service.spans (Session.service s));
    ]

let make ?spec () =
  let s = Session.create ?spec ~ram_size:2048 () in
  Session.advance_time s ~seconds:1.0;
  s

let counter_spec ~protect =
  {
    (Architecture.with_policy Architecture.trustlite_base Freshness.Counter) with
    Architecture.clock_impl = Ra_mcu.Device.Clock_none;
    protect_counter = protect;
    protect_key = protect;
  }

(* benign attest, sync and service rounds, then a rejected service call *)
let rounds () =
  let s = make () in
  ignore (Session.attest_round s);
  ignore (Session.attest_round_r s);
  ignore (Session.sync_round s);
  ignore (Session.service_round s Service.Ping);
  ignore (Session.service_round s Service.Secure_erase);
  (* the erase frame again, verbatim: a replayed service request *)
  List.iter
    (fun (sent : string Channel.sent) ->
      match Message.wire_of_bytes sent.Channel.payload with
      | Some (Message.Service_request { command_name = "secure-erase"; _ }) ->
        Session.deliver_frame_to_prover s sent.Channel.payload
      | Some _ | None -> ())
    (Channel.transcript (Session.channel s));
  Session.advance_time s ~seconds:1.0;
  ignore (Session.attest_round s);
  show_session "rounds" s

(* Adv_ext: forged inject (rejected request), replay, intercept, drop *)
let adversary () =
  let s = make () in
  ignore (Session.attest_round s);
  let forged = Adversary.forge_request s ~freshness:(Message.F_timestamp 5L) () in
  Adversary.inject s forged;
  (match Adversary.recorded_requests s with
  | req :: _ -> Adversary.replay s req
  | [] -> ());
  ignore (Session.send_request s);
  ignore (Adversary.intercept_next_request s);
  ignore (Session.send_request s);
  ignore (Channel.drop_next (Session.channel s) ~src:Channel.Verifier_side);
  show_session "adversary" s

(* Adv_roam on exposed and protected counter provers *)
let roaming () =
  List.iter
    (fun protect ->
      let s = make ~spec:(counter_spec ~protect) () in
      ignore (Session.attest_round s);
      ignore
        (Adversary.compromise s
           ~tampers:
             [
               Adversary.Try_key_read;
               Adversary.Try_counter_write 0L;
               Adversary.Try_mpu_reconfig;
             ]);
      ignore (Session.attest_round s);
      show_session (if protect then "roaming protected" else "roaming exposed") s)
    [ false; true ]

(* every impairment action, seeded *)
let rough =
  { Impairment.loss = Impairment.Iid 0.15; duplicate = 0.25; reorder = 0.25;
    corrupt = 0.2; delay = 0.25; delay_s = 0.01 }

(* seeded impairment: rounds that recover, and one that gives up *)
let impaired () =
  let s = make () in
  Session.set_impairment s
    (Some (Impairment.create ~to_prover:rough ~to_verifier:rough ~seed:7L ()));
  for _ = 1 to 4 do
    ignore (Session.attest_round_r s)
  done;
  Session.set_impairment s
    (Some (Impairment.create ~to_prover:(Impairment.lossy 1.0) ~seed:5L ()));
  ignore (Session.attest_round_r ~policy:Retry.impatient s);
  show_session "impaired" s

(* a bare channel: delivery with no receiver, and a user span *)
let lost () =
  let time = Ra_net.Simtime.create () in
  let trace = Ra_net.Trace.create time in
  let ch : string Channel.t = Channel.create time trace in
  Channel.send ch ~src:Channel.Verifier_side "hello";
  Ra_net.Simtime.advance_by time 0.25;
  ignore (Channel.forward_next ch ~dst:Channel.Prover_side);
  Ra_net.Trace.with_span trace "fixture.span" (fun () ->
      Ra_net.Simtime.advance_by time 0.5;
      Ra_net.Trace.recordf trace "fixture: %d %s" 42 "done");
  show "lost" trace [ ("trace", Ra_net.Trace.spans trace) ]

(* secure sessions: a clean one, an impaired one, one refused on untrusted memory, and
   one on a dead wire that gives up *)
let secure () =
  let s = make () in
  ignore (Secure_session.run_r ~records:2 s);
  show_session "secure" s;
  let s = make () in
  Session.set_impairment s
    (Some (Impairment.create ~to_prover:rough ~to_verifier:rough ~seed:11L ()));
  ignore (Secure_session.run_r ~records:4 s);
  show_session "secure impaired" s;
  let s = make () in
  let d = Session.device s in
  Ra_mcu.Memory.write_byte (Ra_mcu.Device.memory d) (Ra_mcu.Device.attested_base d) 0xEE;
  ignore (Secure_session.run_r ~records:2 s);
  show_session "secure refused" s;
  let s = make () in
  Session.set_impairment s
    (Some (Impairment.create ~to_prover:(Impairment.lossy 1.0)
             ~to_verifier:(Impairment.lossy 1.0) ~seed:5L ()));
  ignore (Secure_session.run_r ~policy:Retry.impatient ~records:2 s);
  show_session "secure give-up" s

let () =
  rounds ();
  adversary ();
  roaming ();
  impaired ();
  lost ();
  secure ()
