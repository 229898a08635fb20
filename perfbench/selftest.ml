(* Tests of the harness itself: the order statistics (against values
   Python's statistics module gives), the tail-percentile rule, span
   self-time accounting, and the reference-mismatch failure path. *)

module Json = Ra_obs.Json

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9
let floats = List.map float_of_int

let stats () =
  expect "median odd" (close (Stats.median [ 3.0; 1.0; 2.0 ]) 2.0);
  expect "median even" (close (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]) 2.5);
  let q xs = Stats.quantiles ~n:4 xs in
  expect "quartiles 1..10" (List.for_all2 close (q (floats (List.init 10 succ))) [ 2.75; 5.5; 8.25 ]);
  expect "quartiles unsorted" (List.for_all2 close (q [ 5.0; 1.0; 4.0; 2.0; 3.0 ]) [ 1.5; 3.0; 4.5 ]);
  expect "quartiles two samples" (List.for_all2 close (q [ 1.0; 2.0 ]) [ 0.75; 1.5; 2.25 ]);
  expect "p90 is nearest rank" (close (Stats.percentile (Stats.sorted (floats (List.init 50 succ))) 90.0) 45.0);
  expect "p90 of few samples is the largest" (close (Stats.percentile (Stats.sorted [ 3.0; 1.0; 2.0 ]) 90.0) 3.0);
  expect "spread 1..10" (close (Stats.spread (floats (List.init 10 succ))) ((8.25 -. 2.75) /. 5.5));
  expect "spread constant" (close (Stats.spread [ 7.0; 7.0; 7.0 ]) 0.0);
  let tail_p n = Option.map fst (Stats.tail (floats (List.init n succ))) in
  expect "tail needs ten beyond: 19 samples" (tail_p 19 = None);
  expect "tail 20 samples -> p50" (tail_p 20 = Some 50.0);
  expect "tail 40 samples -> p75" (tail_p 40 = Some 75.0);
  expect "tail 99 samples -> p75" (tail_p 99 = Some 75.0);
  expect "tail 100 samples -> p90" (tail_p 100 = Some 90.0);
  expect "tail 1000 samples -> p99" (tail_p 1000 = Some 99.0);
  expect "tail 10000 samples -> p99.9" (tail_p 10000 = Some 99.9);
  (match Stats.tail (floats (List.init 100 succ)) with
  | Some (_, v) -> expect "tail value is nearest rank" (close v 90.0)
  | None -> expect "tail value present" false)

let spans () =
  Spans.reset ();
  Spans.with_tracing true (fun () ->
      Spans.with_span "outer" (fun () ->
          Spans.with_span "inner" (fun () -> ignore (Sys.opaque_identity (List.init 1000 Fun.id)));
          Spans.with_span ~ops:10 "inner" ignore));
  Spans.with_span "untraced" ignore;
  let aggs = Spans.aggregate () in
  let outer = Spans.find aggs "outer" and inner = Spans.find aggs "inner" in
  expect "untraced spans are not recorded" (not (List.exists (fun a -> a.Spans.a_name = "untraced") aggs));
  expect "inner counted" (inner.Spans.a_spans = 2 && inner.Spans.a_ops = 11);
  expect "inner's parent" (inner.Spans.a_parent = "outer");
  expect "self = total - children"
    (close outer.Spans.a_self_ns (outer.Spans.a_total_ns -. inner.Spans.a_total_ns));
  expect "self times sum to the root"
    (close (outer.Spans.a_self_ns +. inner.Spans.a_self_ns) outer.Spans.a_total_ns);
  expect "one trace id"
    (List.for_all (fun s -> s.Spans.trace = 1) !Spans.recorded);
  Spans.reset ()

let oracle () =
  let expected = Json.Obj [ ("fingerprint", Json.Str "ab"); ("healthy", Json.Num 4.0) ] in
  let reference = Json.Obj [ ("stream", expected) ] in
  let check ~seed observed = Oracle.check ~reference ~workload:"stream" ~seed observed in
  let seed = Oracle.default_seed in
  expect "matching oracle passes" (check ~seed expected = Ok ());
  (match check ~seed (Json.Obj [ ("fingerprint", Json.Str "cd"); ("healthy", Json.Num 4.0) ]) with
  | Error m -> expect "mismatch names the field" (String.length m > 11 && String.sub m 0 11 = "fingerprint")
  | Ok () -> expect "mismatched fingerprint fails" false);
  expect "missing field fails" (check ~seed (Json.Obj [ ("fingerprint", Json.Str "ab") ]) <> Ok ());
  expect "extra field fails"
    (check ~seed (Json.Obj [ ("fingerprint", Json.Str "ab"); ("healthy", Json.Num 4.0); ("x", Json.Null) ])
    <> Ok ());
  expect "other seeds defer to consistency checks" (check ~seed:(seed + 1) (Json.Obj []) = Ok ());
  expect "unknown workload fails"
    (Oracle.check ~reference ~workload:"isa" ~seed expected <> Ok ());
  expect "paper tables hold" (Oracle.paper_tables () = Ok ())

let run () =
  stats ();
  spans ();
  oracle ();
  if !failures > 0 then begin
    Printf.printf "%d harness self-test(s) failed\n" !failures;
    exit 1
  end
  else print_endline "harness self-tests passed"
