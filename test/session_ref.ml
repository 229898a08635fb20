(* Reference session constructor: a verifier and a prover built from
   scratch on every call — [Verifier.of_config], then
   [Architecture.build] (manufacture, provisioning, secure boot), then
   the prover's measured memory as the verifier's reference image —
   wired by [Session.wire]. It shares no prototype, cache or clone with
   [Session.create], which must produce a session indistinguishable from
   this one. *)
open Ra_core

let default_sym_key = "K_attest_0123456789."

let freshness_kind = function
  | Freshness.No_freshness -> Verifier.Fk_none
  | Freshness.Nonce_history _ -> Verifier.Fk_nonce
  | Freshness.Counter -> Verifier.Fk_counter
  | Freshness.Timestamp _ -> Verifier.Fk_timestamp

let create ?(spec = Architecture.trustlite_base) ?(sym_key = default_sym_key) ?ram_seed
    ?ram_size () =
  let verifier =
    match
      Verifier.of_config
        (Verifier.Config.v ?scheme:spec.Architecture.scheme
           ~freshness_kind:(freshness_kind spec.Architecture.policy)
           ~sym_key ~time:(Ra_net.Simtime.create ()) ())
    with
    | Ok v -> v
    | Error msg -> invalid_arg msg
  in
  let prover =
    Architecture.build ?ram_seed ?ram_size ~key_blob:(Verifier.prover_key_blob verifier) spec
  in
  Verifier.set_reference_image verifier (Code_attest.measure_memory prover.Architecture.anchor);
  Session.wire verifier prover
