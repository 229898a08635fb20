open Ra_mcu

let test_active_consumption () =
  let e = Energy.create ~capacity_joules:1.0 ~active_nj_per_cycle:1.0 ~sleep_microwatt:0.0 () in
  Energy.consume_cycles e 1_000_000 (* 1e6 cycles x 1 nJ = 1 mJ *);
  Alcotest.(check (float 1e-9)) "1 mJ" 0.001 (Energy.consumed_joules e);
  Alcotest.(check bool) "not depleted" false (Energy.depleted e)

let test_sleep_consumption () =
  let e = Energy.create ~capacity_joules:1.0 ~active_nj_per_cycle:0.0 ~sleep_microwatt:2.0 () in
  Energy.consume_sleep e ~seconds:1000.0;
  Alcotest.(check (float 1e-9)) "2 mJ" 0.002 (Energy.consumed_joules e)

let test_depletion () =
  let e = Energy.create ~capacity_joules:0.001 ~active_nj_per_cycle:1.0 ~sleep_microwatt:0.0 () in
  Energy.consume_cycles e 2_000_000;
  Alcotest.(check bool) "depleted" true (Energy.depleted e);
  Alcotest.(check (float 1e-9)) "remaining floors at 0" 0.0 (Energy.remaining_joules e)

let test_lifetime_model () =
  let e = Energy.create ~capacity_joules:2340.0 ~active_nj_per_cycle:0.5 ~sleep_microwatt:2.0 () in
  let idle_life = Energy.lifetime_seconds e ~duty_cycles_per_second:0.0 in
  (* 2340 J / 2 µW = 1.17e9 s ≈ 37 years on sleep alone *)
  Alcotest.(check (float 1e3)) "idle lifetime" 1.17e9 idle_life;
  let busy_life = Energy.lifetime_seconds e ~duty_cycles_per_second:24e6 in
  Alcotest.(check bool) "full duty is much shorter" true (busy_life < idle_life /. 1000.0)

let test_radio_consumption () =
  let e = Energy.create ~capacity_joules:1.0 ~radio_uj_per_byte:2.0 () in
  Energy.consume_radio e ~bytes:500;
  Alcotest.(check (float 1e-9)) "1 mJ for 500 B" 0.001 (Energy.consumed_joules e);
  Alcotest.check_raises "negative size"
    (Invalid_argument "Energy.consume_radio: negative size") (fun () ->
      Energy.consume_radio e ~bytes:(-1))

let test_invalid_args () =
  Alcotest.check_raises "bad capacity" (Invalid_argument "Energy.create: capacity")
    (fun () -> ignore (Energy.create ~capacity_joules:0.0 ()));
  let e = Energy.create () in
  Alcotest.check_raises "negative sleep"
    (Invalid_argument "Energy.consume_sleep: negative time") (fun () ->
      Energy.consume_sleep e ~seconds:(-1.0))

let qcheck_lifetime_monotone =
  QCheck.Test.make ~name:"energy: more duty, shorter life" ~count:100
    QCheck.(pair (float_range 0.0 1e7) (float_range 0.0 1e7))
    (fun (a, b) ->
      let e = Energy.create () in
      let lo = min a b and hi = max a b in
      Energy.lifetime_seconds e ~duty_cycles_per_second:hi
      <= Energy.lifetime_seconds e ~duty_cycles_per_second:lo)

let tests =
  [
    Alcotest.test_case "active consumption" `Quick test_active_consumption;
    Alcotest.test_case "sleep consumption" `Quick test_sleep_consumption;
    Alcotest.test_case "depletion" `Quick test_depletion;
    Alcotest.test_case "lifetime model" `Quick test_lifetime_model;
    Alcotest.test_case "radio consumption" `Quick test_radio_consumption;
    Alcotest.test_case "invalid arguments" `Quick test_invalid_args;
    QCheck_alcotest.to_alcotest qcheck_lifetime_monotone;
  ]
