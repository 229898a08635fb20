(* The four workloads. Each one is a [setup] (timed as setup_s) that
   returns an instance whose [run] executes one timed unit of work and
   reports what it did. Every unit of a run repeats the same simulated
   work, so every unit's oracle must equal the first one's; [check]
   holds the first unit to a seed-independent self-consistency rule.
   Why each workload exists, and which layers it stresses, is recorded
   in perfbench/NOTES.md. *)

open Ra_core
module Json = Ra_obs.Json
module Device = Ra_mcu.Device
module Ea_mpu = Ra_mcu.Ea_mpu
module Timing = Ra_mcu.Timing

type outcome = {
  ns : float;  (** host time of the timed part *)
  ops : float;  (** work done, in the workload's unit *)
  attempted : int;
  failed : int;
  oracle : Json.t;  (** simulated outputs only *)
}

type instance = {
  run : unit -> outcome;
  check : outcome -> (unit, string) result;
  single : unit -> float;
      (** one unit on the calling domain alone (for allocation and GC
          figures); returns the ops it did *)
}

type t = {
  name : string;
  op : string;  (** what one op of ops_per_s is *)
  setup : seed:int -> instance;
}

let num i = Json.Num (float_of_int i)

let timed f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  (r, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0))

let same_oracle what expected o =
  if Json.to_string expected = Json.to_string o.oracle then Ok ()
  else
    Error
      (Printf.sprintf "%s: %s" what
         (String.concat "; " (Oracle.diff ~expected ~observed:o.oracle)))

(* ---- stream: the million-device shape, one chunk at a time ---------- *)

let stream_members = 1024
let stream_ram = 1024
let stream_shards = 2
let stream_name_of ~seed i = Printf.sprintf "s%d-dev-%07d" seed i

let stream_sweep ~seed ~shards ~members =
  Fleet.stream_sweep ~ram_size:stream_ram ~shards ~name_of:(stream_name_of ~seed)
    ~members ()

let stream_oracle (r : Fleet.stream_report) =
  Json.Obj
    [
      ("members", num r.st_members);
      ("healthy", num r.st_healthy);
      ("compromised", num r.st_compromised);
      ("unresponsive", num r.st_unresponsive);
      ("fingerprint", Json.Str r.st_fingerprint);
    ]

(* Set-up is the single-shard sweep of the chunk: the reference every
   two-shard timed chunk must reproduce (shard-count invariance). *)
let stream =
  let setup ~seed =
    let single = stream_oracle (stream_sweep ~seed ~shards:1 ~members:stream_members) in
    let run () =
      let r, ns =
        timed (fun () -> stream_sweep ~seed ~shards:stream_shards ~members:stream_members)
      in
      {
        ns;
        ops = float_of_int r.st_members;
        attempted = r.st_members;
        failed = r.st_members - r.st_healthy;
        oracle = stream_oracle r;
      }
    in
    {
      run;
      check = same_oracle "1-shard vs 2-shard stream" single;
      single =
        (fun () ->
          ignore (stream_sweep ~seed ~shards:1 ~members:stream_members);
          float_of_int stream_members);
    }
  in
  { name = "stream"; op = "member"; setup }

(* ---- session: a materialised fleet streaming secure-session records -- *)

let session_members = 32
let session_ram = 2048
let session_records = 64
let session_loss = 0.05

let session_fleet ~seed =
  Fleet.create ~ram_size:session_ram
    ~names:(List.init session_members (fun i -> Printf.sprintf "s%d-m%02d" seed i))
    ()

let session_sweep ~seed ~shards fleet =
  match
    Fleet.chaos_sweep ~seed:(Int64.of_int seed) ~rounds_per_member:1 ~engine:(`Shards shards)
      ~workload:(`Session session_records) ~losses:[ session_loss ]
      ~policies:[ ("default", Retry.default) ]
      fleet
  with
  | [ cell ] -> cell
  | _ -> failwith "chaos_sweep: expected one cell"

let session_outcome fleet (c : Fleet.chaos_cell) ns =
  {
    ns;
    ops = float_of_int (c.c_rounds * session_records);
    attempted = c.c_rounds;
    failed = c.c_rounds - c.c_converged;
    oracle =
      Json.Obj
        [
          ("fingerprint", Json.Str (Fleet.fingerprint fleet));
          ("rounds", num c.c_rounds);
          ("converged", num c.c_converged);
          ("mean_attempts", Json.Num c.c_mean_attempts);
          ("p50_s", Json.Num c.c_p50_s);
          ("p90_s", Json.Num c.c_p90_s);
          ("p99_s", Json.Num c.c_p99_s);
        ];
  }

(* Set-up is Fleet.create. Each timed unit sweeps a fresh fleet (built
   untimed just before), so every unit does identical simulated work and
   member transcripts never grow across units. *)
let session =
  let setup ~seed =
    let first = ref (Some (session_fleet ~seed)) in
    let fleet () =
      match !first with
      | Some f ->
        first := None;
        f
      | None -> session_fleet ~seed
    in
    let sweep_fresh shards =
      let f = fleet () in
      let c, ns = timed (fun () -> session_sweep ~seed ~shards f) in
      session_outcome f c ns
    in
    {
      run = (fun () -> sweep_fresh 2);
      check = (fun o -> same_oracle "1-shard vs 2-shard session sweep" (sweep_fresh 1).oracle o);
      single = (fun () -> (sweep_fresh 1).ops);
    }
  in
  { name = "session"; op = "record"; setup }

(* ---- server: verifier-as-a-service under a 10x forged flood ----------- *)

let server_devices = 2000
let server_rate = 0.1
let server_flood_sources = 20
let server_flood_factor = 10.0
let server_horizon_s = 20.0
let server_shards = 2
let server_sym_key = "K_attest_0123456789."
let server_image = String.init 1024 (fun i -> Char.chr (i * 7 land 0xff))

let server_traffic ~seed ~horizon =
  {
    Server.Load.default_traffic with
    tr_devices = server_devices;
    tr_rate = server_rate;
    tr_process = `Poisson;
    tr_horizon_s = horizon;
    tr_seed = Int64.of_int seed;
    tr_flood_sources = server_flood_sources;
    tr_flood_rate =
      server_flood_factor *. float_of_int server_devices *. server_rate
      /. float_of_int server_flood_sources;
  }

let server_verifier_config () =
  Verifier.Config.v ~sym_key:server_sym_key ~reference_image:server_image
    ~time:(Ra_net.Simtime.create ()) ()

(* The default per-device bucket (burst 4) rate-limits a device whose
   Poisson arrivals happen to bunch five or more reports within a few
   seconds: about one authentic report in 0.5-1 M (6 of seeds 0-80 over
   a 60 s horizon). A burst of 8 provisions the service for the devices'
   own traffic, so every authentic report gets its verdict and
   rejections come from the flood alone. The flood uses the shared
   unknown bucket, which keeps its default. *)
let server_device_burst = 8.0

let server_config () =
  let cfg = Server.default_config (server_verifier_config ()) in
  {
    cfg with
    Server.sc_admission = { cfg.Server.sc_admission with Admission.device_burst = server_device_burst };
  }

(* Source [i]'s arrival stream, seeded positionally as Server.Load.run
   seeds it: devices first, then the flood sources. *)
let source_arrivals (tr : Server.Load.traffic) i =
  let rate = if i < tr.tr_devices then tr.tr_rate else tr.tr_flood_rate in
  Ra_net.Arrival.create
    ~seed:(Ra_net.Impairment.derive_seed ~root:tr.tr_seed ~index:i)
    (Ra_net.Arrival.Poisson { rate })

(* Arrivals per source within the horizon, so the oracle knows how many
   requests — and how many authentic ones — each run must decide. *)
let arrival_counts (tr : Server.Load.traffic) =
  Array.init (tr.tr_devices + tr.tr_flood_sources) (fun i ->
      let a = source_arrivals tr i in
      let rec count n = if Ra_net.Arrival.next a < tr.tr_horizon_s then count (n + 1) else n in
      count 0)

let server_oracle (rp : Server.Load.report) =
  Json.Obj
    [
      ("requests", num rp.rp_requests);
      ("trusted", num rp.rp_trusted);
      ( "breakdown",
        Json.Obj (List.map (fun (r, n) -> (Verdict.Reason.label r, num n)) rp.rp_breakdown) );
      ("batches", num rp.rp_batches);
      ("avg_batch", Json.Num rp.rp_avg_batch);
      ("max_queue", num rp.rp_max_queue);
      ("p50_ms", Json.Num rp.rp_p50_ms);
      ("p99_ms", Json.Num rp.rp_p99_ms);
    ]

(* Set-up builds the service configuration and derives the traffic's
   per-source arrival counts the oracle checks against. *)
let server =
  let setup ~seed =
    let cfg = server_config () in
    let traffic = server_traffic ~seed ~horizon:server_horizon_s in
    let counts = arrival_counts traffic in
    let total = Array.fold_left ( + ) 0 counts in
    let authentic = Array.fold_left ( + ) 0 (Array.sub counts 0 server_devices) in
    let run_on engine =
      let (rp, _), ns = timed (fun () -> Server.Load.run ~engine cfg traffic) in
      {
        ns;
        ops = float_of_int rp.rp_requests;
        attempted = authentic;
        failed = authentic - rp.rp_trusted;
        oracle = server_oracle rp;
      }
    in
    let check o =
      match o.oracle with
      | Json.Obj fields when List.assoc_opt "requests" fields = Some (num total) -> Ok ()
      | _ -> Error (Printf.sprintf "server decided a request count other than the %d arrivals" total)
    in
    {
      run = (fun () -> run_on (`Shards server_shards));
      check;
      single = (fun () -> (run_on `Seq).ops);
    }
  in
  { name = "server"; op = "decision"; setup }

(* ---- isa: the interpreted SHA-1 anchor, round after round ------------- *)

let isa_ram = 4096
let isa_sym_key = "fleet-master-key-07!"

type isa_world = { device : Device.t; anchor : Isa_anchor.t; verifier : Verifier.t; image : string }

let isa_world ~seed =
  let device =
    Device.create ~ram_size:isa_ram
      ~rom_images:[ (Device.region_attest, Isa_anchor.rom_image ()) ]
      ~key:(Auth.prover_key_blob ~sym_key:isa_sym_key ~public:None)
      ()
  in
  Device.fill_ram_deterministic device ~seed:(Int64.of_int seed);
  let mpu = Device.mpu device in
  Ea_mpu.program mpu (Device.rule_protect_key device);
  Ea_mpu.program mpu (Device.rule_protect_counter device);
  Ea_mpu.program mpu
    {
      Ea_mpu.rule_name = "anchor_scratch";
      data_base = Device.anchor_scratch_addr device;
      data_size = Ra_isa.Sha1_asm.scratch_bytes;
      read_by = Ea_mpu.Code_in [ Device.region_attest ];
      write_by = Ea_mpu.Code_in [ Device.region_attest ];
    };
  Ea_mpu.lock mpu;
  let anchor =
    Isa_anchor.install device ~scheme:(Some Timing.Auth_hmac_sha1) ~policy:Freshness.Counter
  in
  let image = Isa_anchor.measure_memory anchor in
  let verifier =
    match
      Verifier.of_config
        (Verifier.Config.v ~scheme:Timing.Auth_hmac_sha1 ~freshness_kind:Verifier.Fk_counter
           ~sym_key:isa_sym_key ~time:(Ra_net.Simtime.create ()) ~reference_image:image ())
    with
    | Ok v -> v
    | Error m -> failwith m
  in
  { device; anchor; verifier; image }

let isa_round w =
  let req = Verifier.make_request w.verifier in
  match Isa_anchor.handle_request_r w.anchor req with
  | Ok resp -> Verifier.check_response_r w.verifier ~request:req resp
  | Error v -> v

(* One device per shard, rounds running side by side on two domains like
   the other workloads' shards: a single-domain run follows whichever
   core the process is on, and swung by a quarter between runs on a
   shared two-core host. Set-up is device boot, EA-MPU lockdown, anchor
   install and the interpreted measurement that provisions the verifier,
   once per shard. *)
let isa_shards = 2

let isa =
  let setup ~seed =
    let worlds = Array.init isa_shards (fun _ -> isa_world ~seed) in
    let verdicts = Array.make isa_shards Verdict.Trusted in
    let outcome ns shards =
      let cycles = Array.init shards (fun s -> Isa_anchor.last_mac_cycles worlds.(s).anchor) in
      let trusted = Array.sub verdicts 0 shards |> Array.to_list |> List.filter (( = ) Verdict.Trusted) in
      {
        ns;
        ops = Array.fold_left (fun acc c -> acc +. Int64.to_float c) 0.0 cycles /. 1e6;
        attempted = shards;
        failed = shards - List.length trusted;
        oracle =
          Json.Obj
            [
              ( "verdicts",
                Json.Arr (List.init shards (fun s -> Json.Str (Verdict.label verdicts.(s)))) );
              ( "last_mac_cycles",
                Json.Arr (List.init shards (fun s -> Json.Str (Int64.to_string cycles.(s)))) );
              ("attested_bytes", num (String.length worlds.(0).image));
            ];
      }
    in
    let run () =
      let (), ns =
        timed (fun () ->
            Shard.run ~shards:isa_shards (fun s -> verdicts.(s) <- isa_round worlds.(s)))
      in
      outcome ns isa_shards
    in
    (* the interpreted copy path must see exactly what a host read of the
       attested ranges sees, and identical devices must cost identical
       cycles *)
    let check _ =
      let w = worlds.(0) in
      let mem = Device.memory w.device in
      let host =
        String.concat ""
          (List.map
             (fun (base, len) -> Ra_mcu.Memory.read_bytes mem base len)
             (Device.attested_ranges w.device))
      in
      let cycles w = Isa_anchor.last_mac_cycles w.anchor in
      if host <> w.image then
        Error "interpreted measurement differs from the host read of attested RAM"
      else if not (Array.for_all (fun v -> cycles v = cycles w) worlds) then
        Error "identical isa devices measured different cycle counts"
      else Ok ()
    in
    let single () =
      verdicts.(0) <- isa_round worlds.(0);
      (outcome 0.0 1).ops
    in
    { run; check; single }
  in
  { name = "isa"; op = "simulated Mcycle"; setup }

let all = [ stream; session; server; isa ]
