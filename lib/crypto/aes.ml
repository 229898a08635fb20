(* AES-128 with a T-table encrypt kernel (the 32-bit software design of
   FIPS 197 §5.2.1 / Daemen-Rijmen "The Design of Rijndael" §4.2).

   - The key schedule is one flat array of 44 big-endian column words.
   - [te0]..[te3] fold SubBytes and MixColumns into one 256-entry table
     each; they are computed at module initialisation from [sbox]. [te1],
     [te2] and [te3] are [te0] rotated right by 8, 16 and 24 bits, so
     ShiftRows is only a choice of which state word feeds each table.
   - The state lives in four native ints, one column word each, and a
     block is encrypted in place in a [Bytes.t]; [encrypt_block] wraps
     that primitive. The final round has no MixColumns and goes through
     [sbox].
   - Decryption keeps the byte-oriented inverse cipher (InvShiftRows,
     InvSubBytes, xtime-based InvMixColumns) over the same schedule.

   Neither kernel is constant-time: both index tables by secret bytes.
   This is the simulator's host code, not the modeled MCU, whose costs
   come from [Ra_mcu.Timing]. *)

let block_size = 16
let key_size = 16
let rounds = 10

let sbox =
  [| 0x63; 0x7c; 0x77; 0x7b; 0xf2; 0x6b; 0x6f; 0xc5; 0x30; 0x01; 0x67; 0x2b;
     0xfe; 0xd7; 0xab; 0x76; 0xca; 0x82; 0xc9; 0x7d; 0xfa; 0x59; 0x47; 0xf0;
     0xad; 0xd4; 0xa2; 0xaf; 0x9c; 0xa4; 0x72; 0xc0; 0xb7; 0xfd; 0x93; 0x26;
     0x36; 0x3f; 0xf7; 0xcc; 0x34; 0xa5; 0xe5; 0xf1; 0x71; 0xd8; 0x31; 0x15;
     0x04; 0xc7; 0x23; 0xc3; 0x18; 0x96; 0x05; 0x9a; 0x07; 0x12; 0x80; 0xe2;
     0xeb; 0x27; 0xb2; 0x75; 0x09; 0x83; 0x2c; 0x1a; 0x1b; 0x6e; 0x5a; 0xa0;
     0x52; 0x3b; 0xd6; 0xb3; 0x29; 0xe3; 0x2f; 0x84; 0x53; 0xd1; 0x00; 0xed;
     0x20; 0xfc; 0xb1; 0x5b; 0x6a; 0xcb; 0xbe; 0x39; 0x4a; 0x4c; 0x58; 0xcf;
     0xd0; 0xef; 0xaa; 0xfb; 0x43; 0x4d; 0x33; 0x85; 0x45; 0xf9; 0x02; 0x7f;
     0x50; 0x3c; 0x9f; 0xa8; 0x51; 0xa3; 0x40; 0x8f; 0x92; 0x9d; 0x38; 0xf5;
     0xbc; 0xb6; 0xda; 0x21; 0x10; 0xff; 0xf3; 0xd2; 0xcd; 0x0c; 0x13; 0xec;
     0x5f; 0x97; 0x44; 0x17; 0xc4; 0xa7; 0x7e; 0x3d; 0x64; 0x5d; 0x19; 0x73;
     0x60; 0x81; 0x4f; 0xdc; 0x22; 0x2a; 0x90; 0x88; 0x46; 0xee; 0xb8; 0x14;
     0xde; 0x5e; 0x0b; 0xdb; 0xe0; 0x32; 0x3a; 0x0a; 0x49; 0x06; 0x24; 0x5c;
     0xc2; 0xd3; 0xac; 0x62; 0x91; 0x95; 0xe4; 0x79; 0xe7; 0xc8; 0x37; 0x6d;
     0x8d; 0xd5; 0x4e; 0xa9; 0x6c; 0x56; 0xf4; 0xea; 0x65; 0x7a; 0xae; 0x08;
     0xba; 0x78; 0x25; 0x2e; 0x1c; 0xa6; 0xb4; 0xc6; 0xe8; 0xdd; 0x74; 0x1f;
     0x4b; 0xbd; 0x8b; 0x8a; 0x70; 0x3e; 0xb5; 0x66; 0x48; 0x03; 0xf6; 0x0e;
     0x61; 0x35; 0x57; 0xb9; 0x86; 0xc1; 0x1d; 0x9e; 0xe1; 0xf8; 0x98; 0x11;
     0x69; 0xd9; 0x8e; 0x94; 0x9b; 0x1e; 0x87; 0xe9; 0xce; 0x55; 0x28; 0xdf;
     0x8c; 0xa1; 0x89; 0x0d; 0xbf; 0xe6; 0x42; 0x68; 0x41; 0x99; 0x2d; 0x0f;
     0xb0; 0x54; 0xbb; 0x16 |]

let inv_sbox =
  let t = Array.make 256 0 in
  Array.iteri (fun i v -> t.(v) <- i) sbox;
  t

type key = int array
(* 44 words; round key r is words 4r..4r+3, word c is column c with row 0
   in its most significant byte. *)

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

let sub_word w =
  (sbox.(w lsr 24) lsl 24)
  lor (sbox.((w lsr 16) land 0xff) lsl 16)
  lor (sbox.((w lsr 8) land 0xff) lsl 8)
  lor sbox.(w land 0xff)

let load b off = Int32.to_int (Bytes.get_int32_be b off) land 0xffffffff

let expand k =
  if String.length k <> key_size then invalid_arg "Aes.expand: need 16 bytes";
  let w = Array.make (4 * (rounds + 1)) 0 in
  for i = 0 to 3 do
    w.(i) <- load (Bytes.unsafe_of_string k) (4 * i)
  done;
  for i = 4 to (4 * (rounds + 1)) - 1 do
    let temp = w.(i - 1) in
    let temp =
      if i mod 4 = 0 then
        (* rotword, subword, rcon *)
        let rot = ((temp lsl 8) lor (temp lsr 24)) land 0xffffffff in
        sub_word rot lxor (rcon.((i / 4) - 1) lsl 24)
      else temp
    in
    w.(i) <- w.(i - 4) lxor temp
  done;
  w

let xtime b =
  let b2 = b lsl 1 in
  if b land 0x80 <> 0 then (b2 lxor 0x1b) land 0xff else b2 land 0xff

(* te0.(x) is the MixColumns column (2s, s, s, 3s) of s = sbox.(x), row 0
   in the most significant byte. *)
let te0 =
  Array.map
    (fun s ->
      let s2 = xtime s in
      (s2 lsl 24) lor (s lsl 16) lor (s lsl 8) lor (s2 lxor s))
    sbox

let rotate_right n t = Array.map (fun w -> ((w lsr n) lor (w lsl (32 - n))) land 0xffffffff) t
let te1 = rotate_right 8 te0
let te2 = rotate_right 16 te0
let te3 = rotate_right 24 te0

(* All indices below are masked to a byte or bounded by the 44-word
   schedule, so the table reads skip the bounds check. *)
external ( .!() ) : int array -> int -> int = "%array_unsafe_get"

(* Final round of one output column: SubBytes and ShiftRows, no MixColumns. *)
let last_round a b c d rk =
  (sbox.!(a lsr 24) lsl 24)
  lor (sbox.!((b lsr 16) land 0xff) lsl 16)
  lor (sbox.!((c lsr 8) land 0xff) lsl 8)
  lor sbox.!(d land 0xff)
  lxor rk

let encrypt_bytes k b off =
  if off < 0 || off > Bytes.length b - block_size then invalid_arg "Aes.encrypt_bytes";
  let s0 = ref (load b off lxor k.!(0)) and s1 = ref (load b (off + 4) lxor k.!(1))
  and s2 = ref (load b (off + 8) lxor k.!(2)) and s3 = ref (load b (off + 12) lxor k.!(3)) in
  for r = 1 to rounds - 1 do
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 and i = 4 * r in
    s0 :=
      te0.!(a0 lsr 24) lxor te1.!((a1 lsr 16) land 0xff)
      lxor te2.!((a2 lsr 8) land 0xff) lxor te3.!(a3 land 0xff) lxor k.!(i);
    s1 :=
      te0.!(a1 lsr 24) lxor te1.!((a2 lsr 16) land 0xff)
      lxor te2.!((a3 lsr 8) land 0xff) lxor te3.!(a0 land 0xff) lxor k.!(i + 1);
    s2 :=
      te0.!(a2 lsr 24) lxor te1.!((a3 lsr 16) land 0xff)
      lxor te2.!((a0 lsr 8) land 0xff) lxor te3.!(a1 land 0xff) lxor k.!(i + 2);
    s3 :=
      te0.!(a3 lsr 24) lxor te1.!((a0 lsr 16) land 0xff)
      lxor te2.!((a1 lsr 8) land 0xff) lxor te3.!(a2 land 0xff) lxor k.!(i + 3)
  done;
  let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 and i = 4 * rounds in
  Bytes.set_int32_be b off (Int32.of_int (last_round a0 a1 a2 a3 k.!(i)));
  Bytes.set_int32_be b (off + 4) (Int32.of_int (last_round a1 a2 a3 a0 k.!(i + 1)));
  Bytes.set_int32_be b (off + 8) (Int32.of_int (last_round a2 a3 a0 a1 k.!(i + 2)));
  Bytes.set_int32_be b (off + 12) (Int32.of_int (last_round a3 a0 a1 a2 k.!(i + 3)))

let encrypt_block k pt =
  if String.length pt <> block_size then invalid_arg "Aes.encrypt_block";
  let b = Bytes.of_string pt in
  encrypt_bytes k b 0;
  Bytes.unsafe_to_string b

(* Inverse cipher, byte-oriented. State layout: state.(4*col + row). *)

let gmul a b =
  (* GF(2^8) multiply via shift-and-add; [a] is data, [b] a small constant. *)
  let acc = ref 0 in
  let a = ref a and b = ref b in
  while !b <> 0 do
    if !b land 1 <> 0 then acc := !acc lxor !a;
    a := xtime !a;
    b := !b lsr 1
  done;
  !acc

let add_round_key state k r =
  for i = 0 to 15 do
    let w = k.((4 * r) + (i / 4)) in
    state.(i) <- state.(i) lxor ((w lsr (24 - (8 * (i mod 4)))) land 0xff)
  done

let inv_shift_rows state =
  let s r c = state.((4 * c) + r) in
  let out = Array.make 16 0 in
  for c = 0 to 3 do
    for r = 0 to 3 do
      out.((4 * c) + r) <- s r ((c - r + 4) mod 4)
    done
  done;
  Array.blit out 0 state 0 16

let inv_mix_columns state =
  for c = 0 to 3 do
    let a0 = state.(4 * c) and a1 = state.((4 * c) + 1)
    and a2 = state.((4 * c) + 2) and a3 = state.((4 * c) + 3) in
    state.(4 * c) <- gmul a0 14 lxor gmul a1 11 lxor gmul a2 13 lxor gmul a3 9;
    state.((4 * c) + 1) <- gmul a0 9 lxor gmul a1 14 lxor gmul a2 11 lxor gmul a3 13;
    state.((4 * c) + 2) <- gmul a0 13 lxor gmul a1 9 lxor gmul a2 14 lxor gmul a3 11;
    state.((4 * c) + 3) <- gmul a0 11 lxor gmul a1 13 lxor gmul a2 9 lxor gmul a3 14
  done

let inv_sub_bytes state =
  for i = 0 to 15 do
    state.(i) <- inv_sbox.(state.(i))
  done

let decrypt_block k ct =
  if String.length ct <> block_size then invalid_arg "Aes.decrypt_block";
  let st = Array.init 16 (fun i -> Char.code ct.[i]) in
  add_round_key st k rounds;
  for r = rounds - 1 downto 1 do
    inv_shift_rows st;
    inv_sub_bytes st;
    add_round_key st k r;
    inv_mix_columns st
  done;
  inv_shift_rows st;
  inv_sub_bytes st;
  add_round_key st k 0;
  String.init 16 (fun i -> Char.chr st.(i))
