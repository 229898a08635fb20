open Ra_mcu

let rule ?(name = "r") ?(read = Ea_mpu.Anyone) ?(write = Ea_mpu.Nobody) base size =
  { Ea_mpu.rule_name = name; data_base = base; data_size = size; read_by = read; write_by = write }

let test_unenrolled_open () =
  let m = Ea_mpu.create ~capacity:4 in
  Alcotest.(check bool) "read anywhere" true (Ea_mpu.check m ~code:"x" ~addr:0 Ea_mpu.Read);
  Alcotest.(check bool) "write anywhere" true (Ea_mpu.check m ~code:"x" ~addr:0 Ea_mpu.Write)

let test_execution_awareness () =
  let m = Ea_mpu.create ~capacity:4 in
  Ea_mpu.program m (rule ~read:(Ea_mpu.Code_in [ "attest" ]) ~write:Ea_mpu.Nobody 100 16);
  Alcotest.(check bool) "attest reads" true
    (Ea_mpu.check m ~code:"attest" ~addr:100 Ea_mpu.Read);
  Alcotest.(check bool) "malware cannot read" false
    (Ea_mpu.check m ~code:"untrusted" ~addr:100 Ea_mpu.Read);
  Alcotest.(check bool) "nobody writes" false
    (Ea_mpu.check m ~code:"attest" ~addr:100 Ea_mpu.Write);
  Alcotest.(check bool) "outside the range all open" true
    (Ea_mpu.check m ~code:"untrusted" ~addr:116 Ea_mpu.Read)

let test_write_only_subject () =
  let m = Ea_mpu.create ~capacity:4 in
  Ea_mpu.program m (rule ~read:Ea_mpu.Anyone ~write:(Ea_mpu.Code_in [ "clock" ]) 0 8);
  Alcotest.(check bool) "anyone reads" true (Ea_mpu.check m ~code:"app" ~addr:3 Ea_mpu.Read);
  Alcotest.(check bool) "clock writes" true (Ea_mpu.check m ~code:"clock" ~addr:3 Ea_mpu.Write);
  Alcotest.(check bool) "app cannot write" false
    (Ea_mpu.check m ~code:"app" ~addr:3 Ea_mpu.Write)

let test_lockdown () =
  let m = Ea_mpu.create ~capacity:4 in
  Ea_mpu.program m (rule 0 8);
  Ea_mpu.lock m;
  Alcotest.(check bool) "locked" true (Ea_mpu.is_locked m);
  Alcotest.check_raises "program after lock" Ea_mpu.Locked (fun () ->
      Ea_mpu.program m (rule 16 8));
  Alcotest.check_raises "clear after lock" Ea_mpu.Locked (fun () -> Ea_mpu.clear m);
  Alcotest.(check int) "rules intact" 1 (Ea_mpu.rule_count m)

let test_capacity () =
  let m = Ea_mpu.create ~capacity:2 in
  Ea_mpu.program m (rule 0 8);
  Ea_mpu.program m (rule 16 8);
  Alcotest.check_raises "table full" Ea_mpu.Capacity_exceeded (fun () ->
      Ea_mpu.program m (rule 32 8))

let test_clear_before_lock () =
  (* the gap secure boot must close: malware clears rules pre-lockdown *)
  let m = Ea_mpu.create ~capacity:2 in
  Ea_mpu.program m (rule ~read:(Ea_mpu.Code_in [ "attest" ]) 0 8);
  Alcotest.(check bool) "protected" false (Ea_mpu.check m ~code:"mal" ~addr:0 Ea_mpu.Read);
  Ea_mpu.clear m;
  Alcotest.(check bool) "exposed after clear" true
    (Ea_mpu.check m ~code:"mal" ~addr:0 Ea_mpu.Read)

let test_overlapping_rules_grant_union () =
  let m = Ea_mpu.create ~capacity:4 in
  Ea_mpu.program m (rule ~name:"a" ~read:(Ea_mpu.Code_in [ "a" ]) 0 16);
  Ea_mpu.program m (rule ~name:"b" ~read:(Ea_mpu.Code_in [ "b" ]) 8 16);
  Alcotest.(check bool) "a in own range" true (Ea_mpu.check m ~code:"a" ~addr:4 Ea_mpu.Read);
  Alcotest.(check bool) "a in overlap" true (Ea_mpu.check m ~code:"a" ~addr:10 Ea_mpu.Read);
  Alcotest.(check bool) "b in overlap" true (Ea_mpu.check m ~code:"b" ~addr:10 Ea_mpu.Read);
  Alcotest.(check bool) "c denied" false (Ea_mpu.check m ~code:"c" ~addr:10 Ea_mpu.Read)

let test_check_range () =
  let m = Ea_mpu.create ~capacity:4 in
  Ea_mpu.program m (rule ~read:(Ea_mpu.Code_in [ "attest" ]) 100 16);
  Alcotest.(check bool) "range fully outside" true
    (Ea_mpu.check_range m ~code:"mal" ~addr:0 ~len:100 Ea_mpu.Read);
  Alcotest.(check bool) "range straddling denied" false
    (Ea_mpu.check_range m ~code:"mal" ~addr:90 ~len:20 Ea_mpu.Read);
  Alcotest.(check bool) "range straddling allowed for attest" true
    (Ea_mpu.check_range m ~code:"attest" ~addr:90 ~len:20 Ea_mpu.Read);
  Alcotest.(check bool) "range ending at boundary" true
    (Ea_mpu.check_range m ~code:"mal" ~addr:90 ~len:10 Ea_mpu.Read);
  Alcotest.(check bool) "range starting at limit" true
    (Ea_mpu.check_range m ~code:"mal" ~addr:116 ~len:10 Ea_mpu.Read);
  Alcotest.check_raises "bad length"
    (Invalid_argument "Ea_mpu.check_range: non-positive length") (fun () ->
      ignore (Ea_mpu.check_range m ~code:"mal" ~addr:0 ~len:0 Ea_mpu.Read))

let qcheck_range_equals_bytewise =
  (* the boundary-sampling optimization must agree with the byte-by-byte
     semantics *)
  let gen =
    QCheck.quad (QCheck.int_range 0 40) (QCheck.int_range 1 40) (QCheck.int_range 0 40)
      (QCheck.int_range 1 40)
  in
  QCheck.Test.make ~name:"ea_mpu: check_range = forall bytes" ~count:300 gen
    (fun (rule_base, rule_size, addr, len) ->
      let m = Ea_mpu.create ~capacity:2 in
      Ea_mpu.program m (rule ~read:(Ea_mpu.Code_in [ "a" ]) rule_base rule_size);
      let fast = Ea_mpu.check_range m ~code:"b" ~addr ~len Ea_mpu.Read in
      let slow =
        List.for_all
          (fun i -> Ea_mpu.check m ~code:"b" ~addr:(addr + i) Ea_mpu.Read)
          (List.init len (fun i -> i))
      in
      fast = slow)

(* ---- compiled table = list reference ---------------------------------

   Every context (each region name, "untrusted", a name no rule or region
   uses) x both modes x every rule boundary +-1 (and the ranges of each
   length ending there), through a table programmed rule by rule and
   queried after every program and clear (a stale table fails), then
   locked. *)

let lens = [ 1; 2; 4; 8; 64 ]

(* [probe] names the rules whose boundaries are probed: all of them at
   every stage, so an emptier table is also checked where later rules
   will close memory *)
let mismatches ~probe m contexts =
  let rules = Ea_mpu.rules m in
  let points =
    List.concat_map
      (fun r -> [ r.Ea_mpu.data_base; r.Ea_mpu.data_base + r.Ea_mpu.data_size ])
      probe
    |> List.concat_map (fun p -> [ p - 1; p; p + 1 ])
    |> List.sort_uniq compare
  in
  let bad = ref [] in
  List.iter
    (fun code ->
      List.iter
        (fun mode ->
          List.iter
            (fun p ->
              if Ea_mpu.check m ~code ~addr:p mode <> Ea_mpu_ref.check rules ~code ~addr:p mode
              then bad := Printf.sprintf "check %s @0x%x" code p :: !bad;
              List.iter
                (fun len ->
                  List.iter
                    (fun addr ->
                      if
                        Ea_mpu.check_range m ~code ~addr ~len mode
                        <> Ea_mpu_ref.check_range rules ~code ~addr ~len mode
                      then
                        bad := Printf.sprintf "check_range %s @0x%x+%d" code addr len :: !bad)
                    [ p; p - len + 1 ])
                lens)
            points)
        [ Ea_mpu.Read; Ea_mpu.Write ])
    contexts;
  List.rev !bad

let expect_reference ~probe ~what m contexts =
  match mismatches ~probe m contexts with
  | [] -> ()
  | first :: _ as all ->
    Alcotest.failf "%s: %d decisions differ from the reference, first %s" what
      (List.length all) first

let replay_against_reference ~what rules contexts =
  let expect = expect_reference ~probe:rules in
  let m = Ea_mpu.create ~capacity:(List.length rules) in
  expect ~what:(what ^ " (empty)") m contexts;
  List.iteri
    (fun i r ->
      Ea_mpu.program m r;
      expect ~what:(Printf.sprintf "%s (%d rules)" what (i + 1)) m contexts)
    rules;
  (* the cleared table must open again what the programmed one closed *)
  Ea_mpu.clear m;
  expect ~what:(what ^ " (cleared)") m contexts;
  List.iter (Ea_mpu.program m) rules;
  Ea_mpu.lock m;
  expect ~what:(what ^ " (locked)") m contexts;
  m

let test_compiled_equals_reference () =
  let key_blob = Ra_core.Auth.prover_key_blob ~sym_key:(String.make 20 'k') ~public:None in
  List.iter
    (fun spec ->
      let prover = Ra_core.Architecture.build ~ram_size:4096 ~key_blob spec in
      let device = prover.Ra_core.Architecture.device in
      let contexts =
        List.map (fun r -> r.Region.name) (Memory.regions (Device.memory device))
        @ [ "untrusted"; "no-such-region" ]
      in
      let what = spec.Ra_core.Architecture.spec_name in
      let rules = Ea_mpu.rules (Device.mpu device) in
      let m = replay_against_reference ~what rules contexts in
      (* the device's own table, compiled during its secure boot *)
      expect_reference ~probe:rules ~what:(what ^ " (device)") (Device.mpu device) contexts;
      Alcotest.(check int) (what ^ ": same rules") (List.length rules) (Ea_mpu.rule_count m))
    Ra_core.Architecture.all_specs

let test_overlapping_rules_equal_reference () =
  (* overlapping and nested ranges, shared boundaries, a zero-size rule,
     every kind of grant *)
  let rules =
    [
      rule ~name:"outer" ~read:(Ea_mpu.Code_in [ "a"; "b" ]) ~write:(Ea_mpu.Code_in [ "a" ]) 100 100;
      rule ~name:"inner" ~read:Ea_mpu.Nobody ~write:(Ea_mpu.Code_in [ "c" ]) 120 20;
      rule ~name:"open" ~read:Ea_mpu.Anyone ~write:Ea_mpu.Nobody 140 80;
      rule ~name:"empty" ~read:(Ea_mpu.Code_in [ "d" ]) 150 0;
      rule ~name:"tail" ~read:(Ea_mpu.Code_in [ "d" ]) ~write:(Ea_mpu.Code_in [ "b"; "d" ]) 200 8;
      rule ~name:"dup" ~read:(Ea_mpu.Code_in [ "a" ]) 100 100;
    ]
  in
  ignore
    (replay_against_reference ~what:"overlapping" rules
       [ "a"; "b"; "c"; "d"; "untrusted"; "no-such-region" ])

let test_copy_keeps_decisions () =
  let m = Ea_mpu.create ~capacity:2 in
  Ea_mpu.program m (rule ~read:(Ea_mpu.Code_in [ "attest" ]) 0 8);
  Ea_mpu.lock m;
  let c = Ea_mpu.copy m in
  Alcotest.(check bool) "copy locked" true (Ea_mpu.is_locked c);
  Alcotest.(check int) "copy capacity" 2 (Ea_mpu.capacity c);
  Alcotest.(check bool) "copy denies" false (Ea_mpu.check c ~code:"mal" ~addr:0 Ea_mpu.Read);
  Alcotest.(check bool) "copy grants" true (Ea_mpu.check c ~code:"attest" ~addr:0 Ea_mpu.Read);
  let u = Ea_mpu.create ~capacity:2 in
  let c = Ea_mpu.copy u in
  Ea_mpu.program c (rule 0 8);
  Alcotest.(check int) "original untouched" 0 (Ea_mpu.rule_count u);
  Alcotest.(check bool) "original still open" true
    (Ea_mpu.check u ~code:"mal" ~addr:0 Ea_mpu.Write)

let tests =
  [
    Alcotest.test_case "unenrolled memory open" `Quick test_unenrolled_open;
    Alcotest.test_case "execution awareness" `Quick test_execution_awareness;
    Alcotest.test_case "write-only subject" `Quick test_write_only_subject;
    Alcotest.test_case "lockdown" `Quick test_lockdown;
    Alcotest.test_case "capacity" `Quick test_capacity;
    Alcotest.test_case "clear before lock" `Quick test_clear_before_lock;
    Alcotest.test_case "overlapping rules" `Quick test_overlapping_rules_grant_union;
    Alcotest.test_case "check_range" `Quick test_check_range;
    QCheck_alcotest.to_alcotest qcheck_range_equals_bytewise;
    Alcotest.test_case "compiled = reference, every spec" `Quick
      test_compiled_equals_reference;
    Alcotest.test_case "compiled = reference, overlapping rules" `Quick
      test_overlapping_rules_equal_reference;
    Alcotest.test_case "copy keeps decisions" `Quick test_copy_keeps_decisions;
  ]
