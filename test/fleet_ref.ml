(* Reference fleet: the sequential fold that [Fleet]'s shard engine must
   reproduce at every shard count. Every member is a fresh
   [Session.create] world; members run one after another in index order
   and every round runs inline. It is built from public [Session],
   [Secure_session] and [Impairment] calls only and shares no code with
   [Fleet]: the stagger offsets, impairment seeding, health
   classification, ledgers, cell statistics, capsule selection, the
   fingerprint and the metric totals are restated here from their
   documented definitions. *)
open Ra_core
module Simtime = Ra_net.Simtime
module Channel = Ra_net.Channel
module Impairment = Ra_net.Impairment

(* [Fleet.stagger_seconds] *)
let stagger = 1.0

type member = {
  name : string;
  session : Session.t;
  mutable health : Fleet.health;
  mutable sweeps : int;
  mutable history : (float * Verdict.t option) list; (* newest first *)
}

(* One captured round, as a capsule describes it. *)
type capsule = {
  k_slowest : bool;
  k_member : int;
  k_cell : int;
  k_round : int;
  k_imp_seed : int64;
  k_started_at : float;
  k_elapsed_s : float;
  k_attempts : int;
  k_verdict : Verdict.t;
}

type t = {
  members : member array;
  mutable chaos_obs : (float * bool) list array list;
      (* per chaos cell, oldest first: per member, each round's latency in
         ms and whether it converged, oldest round first *)
  mutable capsules : capsule list; (* oldest first *)
}

let create ?spec ?ram_size ?(traced = false) names =
  let member name =
    let session = Session.create ?spec ?ram_size () in
    if traced then ignore (Session.enable_tracing ~device:name session);
    { name; session; health = Fleet.Unknown; sweeps = 0; history = [] }
  in
  { members = Array.of_list (List.map member names); chaos_obs = []; capsules = [] }

let clock m = Simtime.now (Session.time m.session)
let advance t ~seconds =
  Array.iter (fun m -> Session.advance_time m.session ~seconds) t.members

let health_of = function
  | Verdict.Trusted -> Fleet.Healthy
  | Verdict.Untrusted_state | Verdict.Invalid_response | Verdict.Fault _ ->
    Fleet.Compromised
  | Verdict.Timed_out _ | Verdict.Bad_auth | Verdict.Not_fresh _ -> Fleet.Unresponsive

(* The staggered sweep: member [i] of [n] attests [i+1] stagger steps into
   the sweep, and every member leaves it [n] steps after it began. *)
let sweep t =
  let n = Array.length t.members in
  List.init n (fun i ->
      let m = t.members.(i) in
      let slot = float_of_int (i + 1) *. stagger in
      Session.advance_time m.session ~seconds:slot;
      let verdict = Session.attest_round m.session in
      m.health <- (match verdict with None -> Fleet.Unresponsive | Some v -> health_of v);
      m.sweeps <- m.sweeps + 1;
      m.history <- (clock m, verdict) :: m.history;
      Session.advance_time m.session ~seconds:((float_of_int n *. stagger) -. slot);
      (m.name, verdict))

(* ledgers keep only the verdicts a closed-loop sweep can produce *)
let ledger_verdict = function
  | (Verdict.Trusted | Verdict.Untrusted_state | Verdict.Invalid_response) as v -> Some v
  | Verdict.Bad_auth | Verdict.Not_fresh _ | Verdict.Fault _ | Verdict.Timed_out _ -> None

let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* One (loss, policy) cell: one root draw from the sweep's seeder, and
   member [i] gets [Impairment.derive_seed ~root ~index:i] on both
   directions for [rounds] stagger-spaced rounds. Every round that does
   not end [Trusted] is a failure capsule; the cell's first slowest
   [Trusted] round, in (member, round) order, is its slowest capsule. *)
let run_cell t ~seeder ~workload ~rounds (loss, policy_name, policy) =
  let cell = List.length t.chaos_obs in
  let root = Ra_crypto.Prng.next_int64 seeder in
  let converged = ref 0 and attempts = ref 0 and durations = ref [] in
  let failures = ref [] and slowest = ref None in
  let obs =
    Array.mapi
      (fun i m ->
        let imp_seed = Impairment.derive_seed ~root ~index:i in
        let profile = if loss <= 0.0 then Impairment.pristine else Impairment.lossy loss in
        Session.set_impairment m.session
          (Some
             (Impairment.create ~to_prover:profile ~to_verifier:profile ~seed:imp_seed ()));
        let member_obs =
          List.init rounds (fun k ->
              Session.advance_time m.session ~seconds:stagger;
              let at = clock m in
              let r =
                match workload with
                | `Attest -> Session.attest_round_r ~policy m.session
                | `Session records -> Secure_session.run_r ~policy ~records m.session
              in
              let v = r.Session.r_verdict and elapsed = r.Session.r_elapsed_s in
              let ok = match v with Verdict.Timed_out _ -> false | _ -> true in
              attempts := !attempts + r.Session.r_attempts;
              if ok then begin
                incr converged;
                durations := elapsed :: !durations
              end;
              m.health <- health_of v;
              m.sweeps <- m.sweeps + 1;
              m.history <- (at +. elapsed, ledger_verdict v) :: m.history;
              let capsule slowest =
                {
                  k_slowest = slowest;
                  k_member = i;
                  k_cell = cell;
                  k_round = k + 1;
                  k_imp_seed = imp_seed;
                  k_started_at = at;
                  k_elapsed_s = elapsed;
                  k_attempts = r.Session.r_attempts;
                  k_verdict = v;
                }
              in
              (match (v, !slowest) with
              | Verdict.Trusted, Some c when c.k_elapsed_s >= elapsed -> ()
              | Verdict.Trusted, _ -> slowest := Some (capsule true)
              | _ -> failures := capsule false :: !failures);
              (elapsed *. 1000.0, ok))
        in
        Session.set_impairment m.session None;
        member_obs)
      t.members
  in
  t.chaos_obs <- t.chaos_obs @ [ obs ];
  t.capsules <- t.capsules @ List.rev !failures @ Option.to_list !slowest;
  let total = Array.length t.members * rounds in
  let sorted = Array.of_list !durations in
  Array.sort compare sorted;
  {
    Fleet.c_loss = loss;
    c_policy = policy_name;
    c_rounds = total;
    c_converged = !converged;
    c_mean_attempts = float_of_int !attempts /. float_of_int total;
    c_p50_s = nearest_rank sorted 50.0;
    c_p90_s = nearest_rank sorted 90.0;
    c_p99_s = nearest_rank sorted 99.0;
  }

let chaos_sweep ~seed ~rounds_per_member ?(workload = `Attest) ~losses ~policies t =
  let seeder = Ra_crypto.Prng.create seed in
  List.concat_map
    (fun loss -> List.map (fun (name, policy) -> (loss, name, policy)) policies)
    losses
  |> List.map (run_cell t ~seeder ~workload ~rounds:rounds_per_member)

(* ---- what the shard engine must match ---- *)

let recorder session =
  match Session.tracing session with None -> [] | Some tr -> Ra_obs.Trace.rounds tr

let member_state ~name ~health ~sweeps ~history session =
  ( (name, health, sweeps, history),
    Simtime.now (Session.time session),
    Channel.transcript (Session.channel session),
    recorder session )

(* ledger, clock, transcript and flight recorder per member *)
let state t =
  Array.to_list
    (Array.map
       (fun m ->
         member_state ~name:m.name ~health:m.health ~sweeps:m.sweeps
           ~history:(List.rev m.history) m.session)
       t.members)

let fleet_state f =
  List.map
    (fun m ->
      member_state ~name:(Fleet.member_name m) ~health:(Fleet.member_health m)
        ~sweeps:(Fleet.sweeps_of m) ~history:(Fleet.member_history m)
        (Fleet.member_session m))
    (Fleet.members f)

(* [Fleet.fingerprint]: XOR over members of SHA-1(name, latest ledger
   verdict, clock, every wire frame with its send time and side). *)
let fingerprint t =
  let module Sha1 = Ra_crypto.Sha1 in
  let digest m =
    let ctx = Sha1.init () in
    Sha1.feed ctx m.name;
    Sha1.feed ctx
      (match m.history with
      | (_, Some v) :: _ -> "|" ^ Verdict.label v ^ "|"
      | (_, None) :: _ | [] -> "|none|");
    Sha1.feed ctx (Printf.sprintf "%h" (clock m));
    List.iter
      (fun { Channel.sent_at; src; payload } ->
        Sha1.feed ctx
          (Printf.sprintf "|%h|%s|%d|" sent_at
             (match src with Channel.Verifier_side -> "v" | Channel.Prover_side -> "p")
             (String.length payload));
        Sha1.feed ctx payload)
      (Channel.transcript (Session.channel m.session));
    Sha1.finalize ctx
  in
  Ra_crypto.Hexutil.to_hex
    (Array.fold_left
       (fun acc m -> Ra_crypto.Hexutil.xor acc (digest m))
       (String.make Sha1.digest_size '\000')
       t.members)

let fleet_capsules f =
  List.map
    (fun (c : Ra_obs.Forensics.capsule) ->
      {
        k_slowest = c.cap_kind = Ra_obs.Forensics.Slowest;
        k_member = c.cap_member;
        k_cell = c.cap_cell;
        k_round = c.cap_round;
        k_imp_seed = c.cap_imp_seed;
        k_started_at = c.cap_started_at;
        k_elapsed_s = c.cap_elapsed_s;
        k_attempts = c.cap_attempts;
        k_verdict =
          (match Verdict.of_json c.cap_verdict with
          | Some v -> v
          | None -> Alcotest.fail "capsule verdict does not parse");
      })
    (Fleet.capsules f)

(* The chaos metric families after [chaos_sweep] at [shards] shards, from
   a reset registry: (converged rounds, timed-out rounds, round-time
   bucket counts, round-time sum). Each shard owns the contiguous members
   [s*n/shards, (s+1)*n/shards) and sums its round times in member then
   round order; the shard sums reach the registry in shard order, cell
   after cell. *)
let chaos_metrics ~shards t =
  let bounds = Fleet.chaos_latency_buckets in
  let buckets = Array.make (Array.length bounds + 1) 0 in
  let bucket v =
    let rec go i = if i >= Array.length bounds || v <= bounds.(i) then i else go (i + 1) in
    go 0
  in
  let converged = ref 0 and timed_out = ref 0 and sum = ref 0.0 in
  List.iter
    (fun (obs : (float * bool) list array) ->
      let n = Array.length obs in
      for s = 0 to shards - 1 do
        let shard_sum = ref 0.0 in
        for i = n * s / shards to (n * (s + 1) / shards) - 1 do
          List.iter
            (fun (ms, ok) ->
              if ok then incr converged else incr timed_out;
              buckets.(bucket ms) <- buckets.(bucket ms) + 1;
              shard_sum := !shard_sum +. ms)
            obs.(i)
        done;
        sum := !sum +. !shard_sum
      done)
    t.chaos_obs;
  (!converged, !timed_out, Array.to_list buckets, !sum)

let registry_chaos_metrics () =
  let module R = Ra_obs.Registry in
  let rounds r =
    R.Counter.value (R.Counter.get ~labels:[ ("result", r) ] "ra_chaos_rounds_total")
  in
  let h = R.Histogram.get ~buckets:Fleet.chaos_latency_buckets "ra_chaos_round_time_ms" in
  ( rounds "converged",
    rounds "timed_out",
    List.map snd (R.Histogram.buckets h),
    R.Histogram.sum h )
