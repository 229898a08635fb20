(* The bounded observability store: the Recorder ring against a list
   model, a long-running session's trace staying at its capacity, and
   the per-domain span histogram handles. *)

open Ra_core
module Recorder = Ra_obs.Recorder
module Registry = Ra_obs.Registry
module Span = Ra_obs.Span

(* --- Recorder against a list model --- *)

type op = Push of int | Clear

let last k l =
  let n = List.length l in
  List.filteri (fun i _ -> i >= n - k) l

(* replay [ops] on a ring and on a list of the pushes since the last
   clear; the ring must hold the model's last [k] and count the rest *)
let agrees k ops =
  let r = Recorder.create ~capacity:k in
  let model = ref [] in
  let step op =
    (match op with
    | Push x ->
      Recorder.push r x;
      model := !model @ [ x ]
    | Clear ->
      Recorder.clear r;
      model := []);
    let pushes = List.length !model in
    Recorder.to_list r = last k !model
    && Recorder.length r = min k pushes
    && Recorder.evicted r = max 0 (pushes - k)
    && Recorder.latest r = (match List.rev !model with [] -> None | x :: _ -> Some x)
    && List.rev (Recorder.fold r ~init:[] (fun acc x -> x :: acc)) = Recorder.to_list r
    && (let seen = ref [] in
        Recorder.iter r (fun x -> seen := x :: !seen);
        List.rev !seen = Recorder.to_list r)
  in
  List.for_all step ops

let prop_recorder_model =
  let open QCheck.Gen in
  let op = frequency [ (12, map (fun x -> Push x) small_nat); (1, return Clear) ] in
  let gen = pair (int_range 1 40) (list_size (int_range 0 120) op) in
  QCheck.Test.make ~count:500 ~name:"recorder = last k of a list model"
    (QCheck.make gen ~print:(fun (k, ops) ->
         Printf.sprintf "k=%d [%s]" k
           (String.concat "; "
              (List.map (function Push x -> string_of_int x | Clear -> "clear") ops))))
    (fun (k, ops) -> agrees k ops)

(* capacity 1, and exactly k and k+1 pushes around the array's doubling
   steps (8, 16, ...) and the capacity itself *)
let test_recorder_boundaries () =
  List.iter
    (fun k ->
      List.iter
        (fun n ->
          let ops = List.init n (fun i -> Push i) in
          Alcotest.(check bool)
            (Printf.sprintf "k=%d, %d pushes" k n)
            true
            (agrees k ops && agrees k (ops @ [ Clear ] @ ops)))
        [ k - 1; k; k + 1; (2 * k) + 1 ])
    [ 1; 2; 7; 8; 9; 15; 16; 17; 33 ]

(* --- a long-running session stays bounded --- *)

let test_session_soak () =
  let s = Session.create ~ram_size:1024 () in
  Session.advance_time s ~seconds:1.0;
  let trace = Session.trace s in
  ignore (Session.attest_round s);
  let first = Ra_net.Trace.entries trace in
  let per_round = List.length first in
  (* Words reachable from the session's trace: its event ring, its span
     context and log, and the registry they report into. The process's
     live words keep growing with the channel's transcript, which keeps
     every frame for the eavesdropping adversary; the anchor's span
     context reaches the whole session through its callback, so its log
     is checked by length below. *)
  let obs_words () =
    Gc.compact ();
    Obj.reachable_words (Obj.repr trace)
  in
  let rounds = 20_000 in
  let at_half = ref 0 in
  for i = 2 to rounds do
    ignore (Session.attest_round s);
    if i = rounds / 2 then at_half := obs_words ()
  done;
  let at_end = obs_words () in
  let entries = Ra_net.Trace.entries trace in
  Alcotest.(check int) "entries = capacity" Ra_net.Trace.capacity (List.length entries);
  Alcotest.(check int) "evicted = total - capacity"
    ((rounds * per_round) - Ra_net.Trace.capacity)
    (Ra_net.Trace.evicted trace);
  Alcotest.(check (list string)) "newest round kept, oldest first"
    (List.map (fun e -> e.Ra_net.Trace.label) first)
    (List.filteri (fun i _ -> i >= Ra_net.Trace.capacity - per_round) entries
    |> List.map (fun e -> e.Ra_net.Trace.label));
  List.iter
    (fun (name, ctx) ->
      Alcotest.(check bool)
        (name ^ " span log within capacity")
        true
        (List.length (Span.finished ctx) <= Span.capacity))
    [
      ("trace", Ra_net.Trace.spans trace);
      ("anchor", Code_attest.spans (Session.anchor s));
    ];
  let drift = abs_float (float_of_int (at_end - !at_half)) /. float_of_int !at_half in
  if drift > 0.01 then
    Alcotest.failf "observability words at round %d: %d, at round %d: %d (%.2f%%)"
      (rounds / 2) !at_half rounds at_end (100.0 *. drift)

(* --- span histogram handles --- *)

let span_count registry name =
  List.fold_left
    (fun acc (n, labels, sample) ->
      match sample with
      | Registry.Histogram_sample { hs_count; _ }
        when n = "ra_span_ms" && labels = [ ("span", name) ] ->
        acc + hs_count
      | _ -> acc)
    0 (Registry.snapshot registry)

let tick () =
  let now = ref 0.0 in
  fun () ->
    now := !now +. 0.001;
    !now

let test_memo_survives_reset () =
  let registry = Registry.create () in
  let ctx = Span.create ~registry ~clock:(tick ()) () in
  Span.with_span ctx "memo.reset" ignore;
  Alcotest.(check int) "before reset" 1 (span_count registry "memo.reset");
  Registry.reset registry;
  Alcotest.(check int) "zeroed" 0 (span_count registry "memo.reset");
  Span.with_span ctx "memo.reset" ignore;
  Span.with_span ctx "memo.reset" ignore;
  Alcotest.(check int) "lands after reset" 2 (span_count registry "memo.reset")

let test_memo_per_registry () =
  let other = Registry.create () in
  let on_default = Span.create ~clock:(tick ()) () in
  let on_other = Span.create ~registry:other ~clock:(tick ()) () in
  let before = span_count Registry.default "memo.shared" in
  Span.with_span on_default "memo.shared" ignore;
  Span.with_span on_other "memo.shared" ignore;
  Span.with_span on_other "memo.shared" ignore;
  Span.with_span (Span.create ~registry:other ~clock:(tick ()) ()) "memo.shared" ignore;
  Alcotest.(check int) "default saw its own exit" 1
    (span_count Registry.default "memo.shared" - before);
  Alcotest.(check int) "second registry saw its three" 3 (span_count other "memo.shared");
  (* a family name is part of the key too *)
  let custom = Span.create ~registry:other ~histogram:"memo_custom_ms" ~clock:(tick ()) () in
  Span.with_span custom "memo.shared" ignore;
  Alcotest.(check int) "other family not folded in" 3 (span_count other "memo.shared")

let test_memo_two_domains () =
  let registry = Registry.create () in
  let per_shard = 500 in
  Shard.run ~shards:2 (fun _ ->
      let ctx = Span.create ~registry ~clock:(tick ()) () in
      for _ = 1 to per_shard do
        Span.with_span ctx "memo.domains" ignore
      done);
  Alcotest.(check int) "both shards in one series" (2 * per_shard)
    (span_count registry "memo.domains");
  Alcotest.(check int) "one series" 1 (Registry.series_count registry "ra_span_ms")

let tests =
  [
    QCheck_alcotest.to_alcotest prop_recorder_model;
    Alcotest.test_case "recorder growth boundaries" `Quick test_recorder_boundaries;
    Alcotest.test_case "session soak stays bounded" `Quick test_session_soak;
    Alcotest.test_case "span memo survives reset" `Quick test_memo_survives_reset;
    Alcotest.test_case "span memo per registry" `Quick test_memo_per_registry;
    Alcotest.test_case "span memo across domains" `Quick test_memo_two_domains;
  ]
