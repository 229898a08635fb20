open Ra_crypto

let unhex = Hexutil.of_hex
let hex = Hexutil.to_hex

let aes_cipher () = Block_mode.aes (Aes.expand (String.make 16 'k'))
let speck_cipher () = Block_mode.speck (Speck.expand (String.make 16 'k'))

let test_pkcs7 () =
  Alcotest.(check string) "pads to block" "ab\x02\x02" (Block_mode.pad_pkcs7 4 "ab");
  Alcotest.(check string)
    "full block when aligned" "abcd\x04\x04\x04\x04"
    (Block_mode.pad_pkcs7 4 "abcd");
  Alcotest.(check (option string)) "unpad" (Some "ab")
    (Block_mode.unpad_pkcs7 "ab\x02\x02");
  Alcotest.(check (option string)) "bad padding value" None
    (Block_mode.unpad_pkcs7 "ab\x02\x03");
  Alcotest.(check (option string)) "zero padding byte" None
    (Block_mode.unpad_pkcs7 "abc\x00");
  Alcotest.(check (option string)) "empty" None (Block_mode.unpad_pkcs7 "")

let test_cbc_nist_vector () =
  (* SP 800-38A F.2.1: first CBC block (padding only affects later blocks) *)
  let c = Block_mode.aes (Aes.expand (unhex "2b7e151628aed2a6abf7158809cf4f3c")) in
  let iv = unhex "000102030405060708090a0b0c0d0e0f" in
  let ct = Block_mode.cbc_encrypt c ~iv (unhex "6bc1bee22e409f96e93d7e117393172a") in
  Alcotest.(check string) "first ct block" "7649abac8119b246cee98e9b12e9197d"
    (hex (String.sub ct 0 16))

let test_cbc_roundtrip_basic () =
  let c = aes_cipher () in
  let iv = String.make 16 'i' in
  let pt = "the quick brown fox" in
  Alcotest.(check (option string)) "roundtrip" (Some pt)
    (Block_mode.cbc_decrypt c ~iv (Block_mode.cbc_encrypt c ~iv pt));
  Alcotest.(check (option string)) "wrong iv corrupts" None
    (* first-block corruption usually breaks padding; if padding survives
       the plaintext differs — accept either by checking inequality *)
    (match Block_mode.cbc_decrypt c ~iv:(String.make 16 'j')
             (Block_mode.cbc_encrypt c ~iv pt) with
     | Some p when p = pt -> Some p
     | Some _ | None -> None)

let test_cbc_rejects_bad_ct () =
  let c = aes_cipher () in
  let iv = String.make 16 'i' in
  Alcotest.(check (option string)) "empty ct" None (Block_mode.cbc_decrypt c ~iv "");
  Alcotest.(check (option string)) "ragged ct" None
    (Block_mode.cbc_decrypt c ~iv (String.make 17 'x'))

let test_cbc_mac_properties () =
  let c = aes_cipher () in
  let tag = Block_mode.cbc_mac c "message" in
  Alcotest.(check int) "tag is one block" 16 (String.length tag);
  Alcotest.(check bool) "verifies" true
    (Block_mode.cbc_mac_verify c ~msg:"message" ~tag);
  Alcotest.(check bool) "rejects change" false
    (Block_mode.cbc_mac_verify c ~msg:"messagE" ~tag);
  (* length prefix defeats the classic extension forgery where
     mac(m1) is reused as the IV-equivalent state for m1 || m2 *)
  Alcotest.(check bool) "length-distinct" true
    (Block_mode.cbc_mac c "aa" <> Block_mode.cbc_mac c "aa\x00")

let qcheck_cbc_roundtrip_aes =
  QCheck.Test.make ~name:"cbc(aes): decrypt . encrypt = id" ~count:100
    QCheck.(pair (string_of_size Gen.(return 16)) (string_of_size Gen.(0 -- 200)))
    (fun (iv, pt) ->
      let c = aes_cipher () in
      Block_mode.cbc_decrypt c ~iv (Block_mode.cbc_encrypt c ~iv pt) = Some pt)

let qcheck_cbc_roundtrip_speck =
  QCheck.Test.make ~name:"cbc(speck): decrypt . encrypt = id" ~count:100
    QCheck.(pair (string_of_size Gen.(return 8)) (string_of_size Gen.(0 -- 100)))
    (fun (iv, pt) ->
      let c = speck_cipher () in
      Block_mode.cbc_decrypt c ~iv (Block_mode.cbc_encrypt c ~iv pt) = Some pt)

let qcheck_cbc_mac_msg_sensitivity =
  QCheck.Test.make ~name:"cbc-mac: distinct messages, distinct tags" ~count:100
    QCheck.(pair (string_of_size Gen.(0 -- 60)) (string_of_size Gen.(0 -- 60)))
    (fun (m1, m2) ->
      QCheck.assume (m1 <> m2);
      let c = speck_cipher () in
      Block_mode.cbc_mac c m1 <> Block_mode.cbc_mac c m2)

let test_ctr_basics () =
  let c = aes_cipher () in
  let nonce = String.make 8 'n' in
  let pt = "stream me, any length at all" in
  let ct = Block_mode.ctr_crypt c ~nonce pt in
  Alcotest.(check int) "length-preserving" (String.length pt) (String.length ct);
  Alcotest.(check bool) "ciphertext differs" true (ct <> pt);
  Alcotest.(check string) "crypt is an involution" pt
    (Block_mode.ctr_crypt c ~nonce ct);
  Alcotest.(check string) "empty input" "" (Block_mode.ctr_crypt c ~nonce "");
  Alcotest.(check bool) "nonce matters" true
    (Block_mode.ctr_crypt c ~nonce:(String.make 8 'm') pt <> ct);
  Alcotest.check_raises "wrong nonce length"
    (Invalid_argument "Block_mode.ctr_crypt: nonce")
    (fun () -> ignore (Block_mode.ctr_crypt c ~nonce:"short" pt))

let test_ctr_keystream_position_dependent () =
  (* the keystream is positional: the same plaintext block encrypts
     differently in block 0 and block 1, unlike ECB *)
  let c = aes_cipher () in
  let nonce = String.make 8 'n' in
  let ct = Block_mode.ctr_crypt c ~nonce (String.make 32 'a') in
  Alcotest.(check bool) "block 0 <> block 1" true
    (String.sub ct 0 16 <> String.sub ct 16 16)

let test_ctr_layout () =
  (* keystream block i is encrypt_block (nonce ‖ be64 i), truncated to n *)
  let key = Aes.expand (String.make 16 'k') in
  let c = Block_mode.aes key in
  let nonce = "\x00\x01\x02\x03\xfc\xfd\xfe\xff" in
  let be64 i =
    let b = Bytes.create 8 in
    Bytes.set_int64_be b 0 (Int64.of_int i);
    Bytes.to_string b
  in
  List.iter
    (fun n ->
      let blocks = (n + 15) / 16 in
      let stream =
        String.concat "" (List.init blocks (fun i -> Aes.encrypt_block key (nonce ^ be64 i)))
      in
      Alcotest.(check string) (Printf.sprintf "n = %d" n) (hex (String.sub stream 0 n))
        (hex (Block_mode.ctr_crypt c ~nonce (String.make n '\000'))))
    [ 0; 1; 15; 16; 17; 64; 90 ]

let qcheck_ctr_involution =
  QCheck.Test.make ~name:"ctr: crypt . crypt = id, any length" ~count:100
    QCheck.(pair (string_of_size Gen.(return 8)) (string_of_size Gen.(0 -- 200)))
    (fun (nonce, pt) ->
      let c = aes_cipher () in
      Block_mode.ctr_crypt c ~nonce (Block_mode.ctr_crypt c ~nonce pt) = pt)

let qcheck_ctr_speck_involution =
  QCheck.Test.make ~name:"ctr(speck): crypt . crypt = id" ~count:100
    QCheck.(string_of_size Gen.(0 -- 100))
    (fun pt ->
      let c = speck_cipher () in
      let nonce = "" (* speck block is 8: nonce is block_size - 8 = 0 bytes *) in
      Block_mode.ctr_crypt c ~nonce (Block_mode.ctr_crypt c ~nonce pt) = pt)

let tests =
  [
    Alcotest.test_case "pkcs7" `Quick test_pkcs7;
    Alcotest.test_case "cbc NIST vector" `Quick test_cbc_nist_vector;
    Alcotest.test_case "cbc roundtrip" `Quick test_cbc_roundtrip_basic;
    Alcotest.test_case "cbc rejects bad ct" `Quick test_cbc_rejects_bad_ct;
    Alcotest.test_case "cbc-mac" `Quick test_cbc_mac_properties;
    QCheck_alcotest.to_alcotest qcheck_cbc_roundtrip_aes;
    QCheck_alcotest.to_alcotest qcheck_cbc_roundtrip_speck;
    QCheck_alcotest.to_alcotest qcheck_cbc_mac_msg_sensitivity;
    Alcotest.test_case "ctr basics" `Quick test_ctr_basics;
    Alcotest.test_case "ctr keystream positional" `Quick
      test_ctr_keystream_position_dependent;
    Alcotest.test_case "ctr counter layout" `Quick test_ctr_layout;
    QCheck_alcotest.to_alcotest qcheck_ctr_involution;
    QCheck_alcotest.to_alcotest qcheck_ctr_speck_involution;
  ]
