(* The cost ladder: one workload per process, end-to-end metrics from an
   untraced run (--trace 0) or the per-layer ladder from a traced run
   (--trace 1). The last line of standard output is the result object;
   the lines before it are for people. Run it through perfbench/run.py,
   which builds it first:

     python3 perfbench/run.py --workload stream --seed 1 --seconds 10 --trace 0
     python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0 *)

module Json = Ra_obs.Json
module W = Workloads
module P = Probes

let num x = Json.Num x

(* ---- metric lists, checked against BENCHMARK.json --------------------- *)

let declared ~key =
  match Oracle.load "BENCHMARK.json" with
  | Error m -> Error ("BENCHMARK.json: " ^ m)
  | Ok j -> (
    match Json.member key j with
    | Some (Json.Arr items) ->
      Ok
        (List.filter_map
           (fun it ->
             match (Json.member "name" it, Json.member "unit" it) with
             | Some (Json.Str n), Some (Json.Str u) -> Some (n, u)
             | _ -> None)
           items)
    | _ -> Error ("BENCHMARK.json has no " ^ key))

(* The produced metrics must be exactly the declared ones, units and all;
   they are emitted in declaration order. *)
let conform ~key (ms : P.metric list) =
  match declared ~key with
  | Error m -> Error m
  | Ok decl ->
    let produced = List.map (fun m -> (m.P.name, m.P.unit)) ms in
    let missing = List.filter (fun d -> not (List.mem d produced)) decl in
    let extra = List.filter (fun p -> not (List.mem p decl)) produced in
    if missing = [] && extra = [] then
      Ok (List.map (fun (n, _) -> List.find (fun m -> m.P.name = n) ms) decl)
    else
      let show l = String.concat ", " (List.map (fun (n, u) -> n ^ " [" ^ u ^ "]") l) in
      Error (Printf.sprintf "metrics differ from BENCHMARK.json %s: missing {%s}, extra {%s}" key (show missing) (show extra))

(* ---- shared run pieces ------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let human fmt = Printf.printf (fmt ^^ "\n%!")

let error t fmt = Printf.ksprintf (fun s -> t.errors <- s :: t.errors) fmt

let count t (o : W.outcome) =
  t.attempted <- t.attempted + o.attempted;
  t.failed <- t.failed + o.failed

let run_unit inst =
  Gc.full_major ();
  inst.W.run ()

(* The first unit is held to the workload's self-consistency rule and,
   on the default seed, to the committed reference; every later unit
   must reproduce it. *)
let first_unit t inst ~reference ~workload ~seed =
  let o = run_unit inst in
  count t o;
  human "%s oracle %s" workload (Json.to_string o.oracle);
  (match inst.W.check o with Ok () -> () | Error m -> error t "%s" m);
  (match Oracle.check ~reference ~workload ~seed o.oracle with
  | Ok () -> ()
  | Error m -> error t "reference mismatch: %s" m);
  o

(* A full major collection before each set-up and each timed unit keeps
   earlier garbage out of both the timings and the peak RSS. *)
let setup (w : W.t) ~seed =
  Gc.full_major ();
  let inst, ns = W.timed (fun () -> w.setup ~seed) in
  (inst, ns /. 1e9)

(* ---- untraced run: end-to-end metrics ---------------------------------- *)

(* A shared host's speed drifts between fast and slow states that last
   from seconds to minutes, and the same code can take half again or
   twice as long in one as in the other. Every timed sample (a unit or a
   set-up) therefore sits between two runs of the benchmark's own
   calibration work (Calib), and is scaled by their mean time over the
   calibration's reference time: figures read as if the host ran at the
   reference speed throughout. Throughput is the median of the scaled
   unit rates. Set-up is repeated throughout the run — whenever set-up
   has used less than a tenth of the elapsed time — so its samples see
   the same host states as the units, and is reported as the median of
   the scaled set-up times. *)
let untraced (w : W.t) ~seed ~seconds ~reference t =
  let last = ref (Calib.measure ()) in
  let slowness () =
    let before = !last in
    last := Calib.measure ();
    (before +. !last) /. 2.0 /. Calib.reference_s
  in
  let rate (o : W.outcome) = o.ops /. (o.ns /. 1e9) in
  let inst, s0 = setup w ~seed in
  let setup_time = ref s0 and speeds = ref [ slowness () ] in
  let setups = ref [ s0 /. List.hd !speeds ] in
  let first = first_unit t inst ~reference ~workload:w.name ~seed in
  let raw = ref [ rate first ] in
  let rates = ref [ rate first *. slowness () ] in
  let t0 = P.now_s () in
  while P.now_s () -. t0 < float_of_int seconds do
    let o = run_unit inst in
    count t o;
    if Json.to_string o.oracle <> Json.to_string first.oracle then
      error t "unit %d differs from the first: %s" (List.length !rates)
        (String.concat "; " (Oracle.diff ~expected:first.oracle ~observed:o.oracle));
    let k = slowness () in
    speeds := k :: !speeds;
    raw := rate o :: !raw;
    rates := (rate o *. k) :: !rates;
    if !setup_time < 0.1 *. (P.now_s () -. t0) then begin
      let s = snd (setup w ~seed) in
      setup_time := !setup_time +. s;
      setups := (s /. slowness ()) :: !setups
    end
  done;
  let rss = Host.peak_rss_mb () in
  let ops_per_s = Stats.median !rates in
  let setup_s = Stats.median !setups in
  human "%s: %d units of %s work; %.6g ops/s at reference host speed (median, spread %.2f%%), %.6g as timed (median, spread %.2f%%), calibration %.3fx reference time%s"
    w.name (List.length !rates) w.op ops_per_s
    (100.0 *. Stats.spread !rates)
    (Stats.median !raw)
    (100.0 *. Stats.spread !raw)
    (Stats.median !speeds)
    (match Stats.tail (List.map (fun r -> 1.0 /. r) !rates) with
    | Some (p, v) -> Printf.sprintf ", p%g s/op at reference speed %.4g" p v
    | None -> ", too few units for a tail percentile");
  human "%s: set-up %.6f s at reference host speed (median of %d, spread %.2f%%)" w.name setup_s
    (List.length !setups) (100.0 *. Stats.spread !setups);
  [
    P.metric "ops_per_s" "1/s" ops_per_s;
    P.metric "setup_s" "s" setup_s;
    P.metric "peak_rss_mb" "MB" rss;
  ]

(* ---- traced run: the per-layer ladder ---------------------------------- *)

(* A gate that cannot apply on this host or run reads "skipped" with its
   reason, never "pass"; a figure shown without a gate reads "reported". *)
type status = Pass | Fail | Skipped | Reported
type check = { c_name : string; c_status : status; c_detail : string }

let status_label = function
  | Pass -> "pass"
  | Fail -> "fail"
  | Skipped -> "skipped"
  | Reported -> "reported"

let traced (w : W.t) ~seed ~seconds ~smoke ~reference t =
  let scale = float_of_int seconds /. 10.0 in
  let b x = x *. scale in
  let inst, _ = setup w ~seed in
  ignore (first_unit t inst ~reference ~workload:w.name ~seed);
  (* whole program: allocation and major GCs of one single-domain unit *)
  let minor0, promoted0, major0 = Gc.counters () in
  let gcs0 = (Gc.quick_stat ()).Gc.major_collections in
  let ops = inst.W.single () in
  let minor1, promoted1, major1 = Gc.counters () in
  let gcs1 = (Gc.quick_stat ()).Gc.major_collections in
  let alloc = minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0) in
  Spans.reset ();
  let spans f = Spans.with_tracing true f in
  let crypto = spans (fun () -> P.crypto ~budget:(b 0.15)) in
  let mcu = spans (fun () -> P.mcu ~budget:(b 0.2)) in
  let isa_ovh, isa_failed, isa = spans (fun () -> P.isa ~budget:(b 1.0) ~seed) in
  let build = spans (fun () -> P.build ~budget:(b 0.6)) in
  let fleet = spans (fun () -> P.fleet ~budget:(b 2.0) ~seed ~smoke) in
  let chaos = spans (fun () -> P.chaos ~seed) in
  let ss_ovh, ss_failed, ss = spans (fun () -> P.secure_session ~budget:(b 1.2)) in
  let server_ovh, server = spans (fun () -> P.server ~budget:(b 1.0) ~seed) in
  let aggs = Spans.aggregate () in
  let fleet_r, fleet_ms = fleet aggs in
  if isa_failed > 0 then error t "isa probe: %d rounds not trusted" isa_failed;
  if ss_failed > 0 then error t "secure-session probe: %d records not trusted" ss_failed;
  if fleet_r.f_failed > 0 then error t "stream re-drive: %d members not trusted" fleet_r.f_failed;
  let overhead =
    match w.name with
    | "stream" -> fleet_r.f_overhead_pct
    | "session" -> ss_ovh
    | "server" -> server_ovh
    | _ -> isa_ovh
  in
  let metrics =
    crypto aggs @ isa aggs @ mcu aggs @ build aggs @ fleet_ms @ chaos @ ss aggs @ server aggs
    @ [
        P.metric "prog.alloc_words_per_op" "words" (alloc /. ops);
        P.metric "prog.major_gcs" "count" (float_of_int (gcs1 - gcs0));
        P.metric "prog.tracing_overhead_pct" "%" overhead;
      ]
  in
  let gate name pass detail =
    if smoke then { c_name = name; c_status = Skipped; c_detail = "smoke run" }
    else { c_name = name; c_status = (if pass then Pass else Fail); c_detail = detail }
  in
  let checks =
    [
      gate "ladder.closes" fleet_r.f_closes
        (Printf.sprintf
           "traced stream re-drive vs untraced engine per member: %+.2f%%; allowed |gap| <= |tracing overhead %.2f%%| + spread %.2f%%"
           fleet_r.f_gap_pct fleet_r.f_overhead_pct fleet_r.f_gap_spread_pct);
      gate "ladder.self_times_sum"
        (Float.abs (fleet_r.f_self_sum_ratio -. 1.0) < 1e-6)
        (Printf.sprintf "layer self times / traced member time = %.6f" fleet_r.f_self_sum_ratio);
      (match fleet_r.f_parallel with
      | Ok e ->
        {
          c_name = "fleet.parallel_efficiency";
          c_status = Reported;
          c_detail = Printf.sprintf "%.3f (stream engine, 2 shards vs 1)" e;
        }
      | Error why -> { c_name = "fleet.parallel_efficiency"; c_status = Skipped; c_detail = why });
    ]
  in
  human "%s ladder (self time per op, share of parent):" w.name;
  List.iter
    (fun a ->
      human "  %-24s %-18s %12.1f ns self  %12.1f ns total  %s" a.Spans.a_name a.Spans.a_parent
        (a.Spans.a_self_ns /. float_of_int (max 1 a.Spans.a_ops))
        (a.Spans.a_total_ns /. float_of_int (max 1 a.Spans.a_ops))
        (match Spans.share_of_parent aggs a with Some p -> Printf.sprintf "%5.1f%%" p | None -> "  root"))
    aggs;
  List.iter (fun c -> human "check %s: %s (%s)" c.c_name (status_label c.c_status) c.c_detail) checks;
  (metrics, List.map (fun a -> Spans.agg_json aggs a) aggs, checks)

(* ---- output ------------------------------------------------------------ *)

let metrics_json ms =
  Json.Obj
    (List.map
       (fun m -> (m.P.name, Json.Obj [ ("value", num m.P.value); ("unit", Json.Str m.P.unit) ]))
       ms)

let check_json c =
  Json.Obj
    [
      ("name", Json.Str c.c_name);
      ("status", Json.Str (status_label c.c_status));
      ("detail", Json.Str c.c_detail);
    ]

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let reference_path = "perfbench/reference.json"
let out_dir = "perfbench/out"

let main ~workload ~seed ~seconds ~trace ~smoke ~revision =
  let w =
    match List.find_opt (fun w -> w.W.name = workload) W.all with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (have: %s)\n" workload
        (String.concat ", " (List.map (fun w -> w.W.name) W.all));
      exit 2
  in
  let header = Host.header ~workload ~seed ~seconds ~trace ~smoke ~revision in
  human "# %s" (Json.to_string header);
  let t = { attempted = 0; failed = 0; errors = [] } in
  let reference =
    match Oracle.load reference_path with
    | Ok r -> r
    | Error m ->
      Printf.eprintf "cannot read the reference %s: %s\n" reference_path m;
      exit 2
  in
  (match Oracle.paper_tables () with Ok () -> () | Error m -> error t "%s" m);
  let key = if trace then "per_layer" else "end_to_end" in
  let metrics, ladder, checks =
    if trace then traced w ~seed ~seconds ~smoke ~reference t
    else (untraced w ~seed ~seconds ~reference t, [], [])
  in
  let metrics =
    match conform ~key metrics with
    | Ok ms -> ms
    | Error m ->
      Printf.eprintf "%s\n" m;
      exit 2
  in
  List.iter (fun m -> human "%s %s = %.6g %s" w.name m.P.name m.P.value m.P.unit) metrics;
  List.iter (fun e -> human "ERROR %s" e) (List.rev t.errors);
  let correct = t.errors = [] in
  ensure_dir out_dir;
  let report =
    Json.Obj
      [
        ("header", header);
        ("correct", Json.Bool correct);
        ("errors", Json.Arr (List.rev_map (fun e -> Json.Str e) t.errors));
        ("metrics", metrics_json metrics);
        ("ladder", Json.Arr ladder);
        ("spans_written", num (float_of_int !Spans.kept));
        ("spans_not_written", num (float_of_int !Spans.dropped));
        ("checks", Json.Arr (List.map check_json checks));
      ]
  in
  let stem = Filename.concat out_dir (Printf.sprintf "%s-seed%d-trace%d" workload seed (Bool.to_int trace)) in
  Out_channel.with_open_bin (stem ^ ".json") (fun oc -> output_string oc (Json.to_string report ^ "\n"));
  if trace then Spans.write_jsonl (stem ^ ".spans.jsonl");
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", num (float_of_int t.attempted));
            ("failed", num (float_of_int t.failed));
            ("metrics", metrics_json metrics);
          ]));
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref Oracle.default_seed and seconds = ref 10 in
  let trace = ref 0 and smoke = ref false and revision = ref "unknown" in
  let selftest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " stream | session | server | isa");
      ("--seed", Arg.Set_int seed, " input seed (reference outputs pinned for seed 1)");
      ("--seconds", Arg.Set_int seconds, " measuring time of one run");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: traced per-layer ladder");
      ("--smoke", Arg.Set smoke, " short run; output marked not comparable");
      ("--revision", Arg.Set_string revision, " source revision recorded in the header");
      ("--selftest", Arg.Set selftest, " test the harness's own statistics and oracle");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ladder --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  if !selftest then Selftest.run ()
  else if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end
  else
    main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~smoke:!smoke
      ~revision:!revision
