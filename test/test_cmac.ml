(* AES-CMAC against the RFC 4493 test vectors. *)
open Ra_crypto

let hex = Hexutil.to_hex
let unhex = Hexutil.of_hex
let check = Alcotest.(check string)

let key () = Cmac.derive (Aes.expand (unhex "2b7e151628aed2a6abf7158809cf4f3c"))

(* RFC 4493 message material (the AES test vector plaintext) *)
let m64 =
  unhex
    ("6bc1bee22e409f96e93d7e117393172a" ^ "ae2d8a571e03ac9c9eb76fac45af8e51"
   ^ "30c81c46a35ce411e5fbc1191a0a52ef" ^ "f69f2445df4f9b17ad2b417be66c3710")

let test_rfc4493_vectors () =
  let k = key () in
  check "empty message" "bb1d6929e95937287fa37d129b756746" (hex (Cmac.mac k ""));
  check "16 bytes" "070a16b46b4d4144f79bdd9dd04a287c"
    (hex (Cmac.mac k (String.sub m64 0 16)));
  check "40 bytes" "dfa66747de9ae63030ca32611497c827"
    (hex (Cmac.mac k (String.sub m64 0 40)));
  check "64 bytes" "51f0bebf7e3b9d92fc49741779363cfe" (hex (Cmac.mac k m64))

let test_verify () =
  let k = key () in
  let tag = Cmac.mac k "hello" in
  Alcotest.(check bool) "accepts" true (Cmac.verify k ~msg:"hello" ~tag);
  Alcotest.(check bool) "rejects" false (Cmac.verify k ~msg:"hellO" ~tag)

(* RFC 4493 §2.4 over strings: split into blocks, xor the last with K1
   when complete or pad it with 10* and xor with K2, then CBC-encrypt. *)
let reference_mac aes msg =
  let dbl s =
    let v i = Char.code s.[i] in
    String.init 16 (fun i ->
        let next = if i = 15 then (if v 0 land 0x80 <> 0 then 0x87 else 0) else v (i + 1) lsr 7 in
        Char.chr (((v i lsl 1) land 0xff) lxor next))
  in
  let k1 = dbl (Aes.encrypt_block aes (String.make 16 '\x00')) in
  let k2 = dbl k1 in
  let n = max 1 ((String.length msg + 15) / 16) in
  let last = String.sub msg ((n - 1) * 16) (String.length msg - ((n - 1) * 16)) in
  let last =
    if String.length last = 16 then Hexutil.xor last k1
    else Hexutil.xor (last ^ "\x80" ^ String.make (15 - String.length last) '\x00') k2
  in
  let blocks = List.init (n - 1) (fun i -> String.sub msg (i * 16) 16) @ [ last ] in
  List.fold_left
    (fun st b -> Aes.encrypt_block aes (Hexutil.xor st b))
    (String.make 16 '\x00') blocks

let test_matches_reference () =
  (* every length 0..80: empty, exact multiples (K1) and padded tails (K2) *)
  let aes = Aes.expand (unhex "2b7e151628aed2a6abf7158809cf4f3c") in
  let k = Cmac.derive aes in
  for n = 0 to 80 do
    let m = String.init n (fun i -> Char.chr (((i * 37) + n) land 0xff)) in
    check (Printf.sprintf "length %d" n) (hex (reference_mac aes m)) (hex (Cmac.mac k m))
  done

let qcheck_matches_reference =
  QCheck.Test.make ~name:"cmac: equals the string reference, lengths 0..80" ~count:300
    QCheck.(pair (string_of_size Gen.(return 16)) (string_of_size Gen.(0 -- 80)))
    (fun (key, m) ->
      let aes = Aes.expand key in
      Cmac.mac (Cmac.derive aes) m = reference_mac aes m)

let qcheck_distinct_messages =
  QCheck.Test.make ~name:"cmac: distinct messages, distinct tags" ~count:200
    QCheck.(pair (string_of_size Gen.(0 -- 80)) (string_of_size Gen.(0 -- 80)))
    (fun (a, b) ->
      QCheck.assume (a <> b);
      let k = key () in
      Cmac.mac k a <> Cmac.mac k b)

let qcheck_boundary_lengths =
  QCheck.Test.make ~name:"cmac: stable across block boundaries" ~count:50
    QCheck.(int_range 0 70)
    (fun n ->
      let k = key () in
      let m = String.make n 'x' in
      String.length (Cmac.mac k m) = 16 && Cmac.verify k ~msg:m ~tag:(Cmac.mac k m))

let tests =
  [
    Alcotest.test_case "RFC 4493 vectors" `Quick test_rfc4493_vectors;
    Alcotest.test_case "verify" `Quick test_verify;
    Alcotest.test_case "matches reference, lengths 0..80" `Quick test_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_distinct_messages;
    QCheck_alcotest.to_alcotest qcheck_boundary_lengths;
  ]
