(** The verifier: issues authenticated, fresh attestation requests and
    validates the prover's reports against a known-good reference image
    of the prover's memory.

    Construction goes through {!Config} + {!of_config}; verdicts come
    back as the unified {!Verdict.t} ({!check_response_r},
    {!check_report_r}). The historical [create]/[check_response] pair
    survives as deprecated shims. *)

type freshness_kind = Fk_none | Fk_nonce | Fk_counter | Fk_timestamp

type verdict =
  | Trusted (* report matches the reference state *)
  | Untrusted_state (* authentic-looking response, wrong memory *)
  | Invalid_response (* echo mismatch / malformed *)

type t

(** How to build a verifier. A plain record (build one literally, or via
    {!Config.v}); {!of_config} validates it. [Server] accepts only this. *)
module Config : sig
  type t = {
    scheme : Ra_mcu.Timing.auth_scheme option;
        (** request-authentication scheme; [None] = unauthenticated *)
    freshness_kind : freshness_kind;
    sym_key : string;  (** 20-byte K_attest shared with the prover *)
    ecdsa_seed : string;
        (** deterministic seed for the [Auth_ecdsa_verify] keypair *)
    time : Ra_net.Simtime.t;
    reference_image : string;  (** known-good prover memory *)
  }

  val v :
    ?scheme:Ra_mcu.Timing.auth_scheme ->
    ?freshness_kind:freshness_kind ->
    ?ecdsa_seed:string ->
    ?reference_image:string ->
    sym_key:string ->
    time:Ra_net.Simtime.t ->
    unit ->
    t
  (** Record builder with the common defaults: no scheme, [Fk_nonce],
      seed ["verifier"], empty reference image. *)
end

val of_config : Config.t -> (t, string) result
(** Validate and build. [Error] (not an exception) on a [sym_key] that is
    not exactly [Auth.k_attest_len] bytes or an empty [ecdsa_seed]. *)

val clone : t -> time:Ra_net.Simtime.t -> t
(** A verifier in the same state on clock [time]: it shares the immutable
    key material (HMAC key context, ECDSA keypair) and the reference
    image, and copies the challenge DRBG and the counter, so the two
    evolve independently and identically. *)

val time : t -> Ra_net.Simtime.t
val sym_key : t -> string

val prover_key_blob : t -> string
(** The blob to provision into the prover's protected key storage. *)

val scheme : t -> Ra_mcu.Timing.auth_scheme option

val next_counter_value : t -> int64
(** The counter the next request will carry (monotonically increasing). *)

val make_request : t -> Message.attreq
(** Build the next request: fresh challenge, freshness field per
    [freshness_kind] (counter incremented, timestamp = current simulated
    time), authenticated per [scheme]. *)

val make_session_request : t -> Message.attreq
(** Build a request for delivery {e inside} an established secure
    session: fresh challenge, but no freshness field and no auth tag —
    the record layer (CMAC + anti-replay window) supplies both, and the
    challenge echo binds each response to its round. *)

val session_nonce : t -> string
(** 16 fresh bytes from the verifier's DRBG — handshake nonces. *)

val check_response_r : t -> request:Message.attreq -> Message.attresp -> Verdict.t
(** The primary closed-loop check: echo fields must match [request], then
    the report MAC decides [Trusted] vs [Untrusted_state]. *)

val check_report_r : t -> Message.attresp -> Verdict.t
(** Open-loop (server-side) check: report MAC only, no echo matching —
    the caller has already bound the response to a request (or accepts
    counter-based freshness instead). Never returns [Invalid_response]. *)

val check_reports_r : t -> Message.attresp array -> Verdict.t array
(** Batch form of {!check_report_r}: the HMAC key context (ipad/opad
    midstates) is derived once per verifier and shared across the batch,
    so per-report cost drops to the report MAC itself. *)

val to_verdict : verdict -> Verdict.t
(** Embed the verifier-local verdict into the unified {!Verdict.t}. *)

val set_reference_image : t -> string -> unit
(** Update the known-good state (e.g. after an authorized code update). *)

val pp_verdict : Format.formatter -> verdict -> unit
