type cipher = {
  block_size : int;
  encrypt : string -> string;
  decrypt : string -> string;
}

let aes k =
  {
    block_size = Aes.block_size;
    encrypt = Aes.encrypt_block k;
    decrypt = Aes.decrypt_block k;
  }

let speck k =
  {
    block_size = Speck.block_size;
    encrypt = Speck.encrypt_block k;
    decrypt = Speck.decrypt_block k;
  }

let simon k =
  {
    block_size = Simon.block_size;
    encrypt = Simon.encrypt_block k;
    decrypt = Simon.decrypt_block k;
  }

let pad_pkcs7 block_size s =
  let pad = block_size - (String.length s mod block_size) in
  s ^ String.make pad (Char.chr pad)

let unpad_pkcs7 s =
  let n = String.length s in
  if n = 0 then None
  else
    let pad = Char.code s.[n - 1] in
    if pad = 0 || pad > n then None
    else
      let ok = ref true in
      for i = n - pad to n - 1 do
        if Char.code s.[i] <> pad then ok := false
      done;
      if !ok then Some (String.sub s 0 (n - pad)) else None

let cbc_encrypt c ~iv pt =
  if String.length iv <> c.block_size then invalid_arg "Block_mode.cbc_encrypt: iv";
  let padded = pad_pkcs7 c.block_size pt in
  let blocks = Hexutil.chunks c.block_size padded in
  let buf = Buffer.create (String.length padded) in
  let _last =
    List.fold_left
      (fun prev block ->
        let ct = c.encrypt (Hexutil.xor prev block) in
        Buffer.add_string buf ct;
        ct)
      iv blocks
  in
  Buffer.contents buf

let cbc_decrypt c ~iv ct =
  if String.length iv <> c.block_size then invalid_arg "Block_mode.cbc_decrypt: iv";
  if String.length ct = 0 || String.length ct mod c.block_size <> 0 then None
  else begin
    let blocks = Hexutil.chunks c.block_size ct in
    let buf = Buffer.create (String.length ct) in
    let _last =
      List.fold_left
        (fun prev block ->
          Buffer.add_string buf (Hexutil.xor prev (c.decrypt block));
          block)
        iv blocks
    in
    unpad_pkcs7 (Buffer.contents buf)
  end

let ctr_crypt c ~nonce s =
  let bs = c.block_size in
  let nlen = bs - 8 in
  if nlen < 0 then invalid_arg "Block_mode.ctr_crypt: block size < 8";
  if String.length nonce <> nlen then invalid_arg "Block_mode.ctr_crypt: nonce";
  let n = String.length s in
  let out = Bytes.create n in
  (* one counter block, nonce ‖ u64_be b, rewritten in place per block *)
  let counter = Bytes.create bs in
  Bytes.blit_string nonce 0 counter 0 nlen;
  let off = ref 0 and b = ref 0 in
  while !off < n do
    Bytes.set_int64_be counter nlen (Int64.of_int !b);
    (* [encrypt] only reads its argument, so the counter can be lent as a
       string and rewritten once the keystream block is back *)
    let keystream = c.encrypt (Bytes.unsafe_to_string counter) in
    for i = 0 to min bs (n - !off) - 1 do
      let j = !off + i in
      Bytes.unsafe_set out j
        (Char.unsafe_chr (Char.code s.[j] lxor Char.code keystream.[i]))
    done;
    off := !off + bs;
    incr b
  done;
  Bytes.unsafe_to_string out

let encode_length block_size n =
  (* big-endian length in one block *)
  String.init block_size (fun i ->
      let shift = 8 * (block_size - 1 - i) in
      if shift >= 63 then '\x00' else Char.chr ((n lsr shift) land 0xff))

let cbc_mac c msg =
  let prefixed = encode_length c.block_size (String.length msg) ^ msg in
  let padded = pad_pkcs7 c.block_size prefixed in
  let blocks = Hexutil.chunks c.block_size padded in
  List.fold_left
    (fun prev block -> c.encrypt (Hexutil.xor prev block))
    (String.make c.block_size '\x00')
    blocks

let cbc_mac_verify c ~msg ~tag = Hexutil.equal_ct (cbc_mac c msg) tag
