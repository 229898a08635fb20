type key = { aes : Aes.key; k1 : string; k2 : string }

let block = 16

(* doubling in GF(2^128) with the x^128 + x^7 + x^2 + x + 1 polynomial *)
let dbl s =
  let out = Bytes.create block in
  let carry = ref 0 in
  for i = block - 1 downto 0 do
    let v = (Char.code s.[i] lsl 1) lor !carry in
    Bytes.set out i (Char.chr (v land 0xff));
    carry := (v lsr 8) land 1
  done;
  if Char.code s.[0] land 0x80 <> 0 then
    Bytes.set out (block - 1)
      (Char.chr (Char.code (Bytes.get out (block - 1)) lxor 0x87));
  Bytes.to_string out

let derive aes =
  let l = Aes.encrypt_block aes (String.make block '\x00') in
  let k1 = dbl l in
  { aes; k1; k2 = dbl k1 }

let xor_word st i msg off =
  Bytes.set_int64_ne st i (Int64.logxor (Bytes.get_int64_ne st i) (String.get_int64_ne msg off))

(* One 16-byte chaining state, encrypted in place: every block but the
   last is xored in and encrypted; the last is xored with K1 when it is
   complete, else padded with 10* and xored with K2. *)
let mac key msg =
  let len = String.length msg in
  let st = Bytes.make block '\x00' in
  (* offset of the last block, complete or not; 0 for the empty message *)
  let last = if len = 0 then 0 else (len - 1) / block * block in
  for b = 0 to (last / block) - 1 do
    xor_word st 0 msg (b * block);
    xor_word st 8 msg ((b * block) + 8);
    Aes.encrypt_bytes key.aes st 0
  done;
  let rest = len - last in
  let sub = if rest = block then key.k1 else key.k2 in
  for i = 0 to block - 1 do
    let m = if i < rest then Char.code msg.[last + i] else if i = rest then 0x80 else 0 in
    Bytes.set st i (Char.chr (Char.code (Bytes.get st i) lxor m lxor Char.code sub.[i]))
  done;
  Aes.encrypt_bytes key.aes st 0;
  Bytes.unsafe_to_string st

let verify key ~msg ~tag = Hexutil.equal_ct (mac key msg) tag
