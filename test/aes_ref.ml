(* Byte-oriented reference AES-128 encryption: the oracle for the
   library's T-table kernel. It shares nothing with [Ra_crypto.Aes]: the
   S-box is derived here from its definition (inverse in GF(2^8), then
   the FIPS 197 §5.1.1 affine map), and the rounds are the textbook
   SubBytes / ShiftRows / xtime-MixColumns / AddRoundKey over a 4x4 byte
   state. *)

let xtime b =
  let b2 = b lsl 1 in
  if b land 0x80 <> 0 then (b2 lxor 0x1b) land 0xff else b2 land 0xff

let gmul a b =
  let acc = ref 0 and a = ref a and b = ref b in
  while !b <> 0 do
    if !b land 1 <> 0 then acc := !acc lxor !a;
    a := xtime !a;
    b := !b lsr 1
  done;
  !acc

let sbox =
  let rotl8 x n = ((x lsl n) lor (x lsr (8 - n))) land 0xff in
  Array.init 256 (fun x ->
      (* x^254 is the multiplicative inverse, with 0 mapped to 0 *)
      let inv = ref 1 in
      for _ = 1 to 254 do
        inv := gmul !inv x
      done;
      let b = if x = 0 then 0 else !inv in
      b lxor rotl8 b 1 lxor rotl8 b 2 lxor rotl8 b 3 lxor rotl8 b 4 lxor 0x63)

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

(* Round key r as 16 bytes in column order. *)
let expand k =
  let w = Array.init 44 (fun _ -> [||]) in
  for i = 0 to 3 do
    w.(i) <- Array.init 4 (fun j -> Char.code k.[(4 * i) + j])
  done;
  for i = 4 to 43 do
    let t = Array.copy w.(i - 1) in
    if i mod 4 = 0 then begin
      let t0 = t.(0) in
      t.(0) <- sbox.(t.(1)) lxor rcon.((i / 4) - 1);
      t.(1) <- sbox.(t.(2));
      t.(2) <- sbox.(t.(3));
      t.(3) <- sbox.(t0)
    end;
    w.(i) <- Array.init 4 (fun j -> w.(i - 4).(j) lxor t.(j))
  done;
  Array.init 11 (fun r -> Array.init 16 (fun i -> w.((4 * r) + (i / 4)).(i mod 4)))

(* State layout: state.(4*col + row). *)

let add_round_key st rk = Array.iteri (fun i k -> st.(i) <- st.(i) lxor k) rk
let sub_bytes st = Array.iteri (fun i v -> st.(i) <- sbox.(v)) st

let shift_rows st =
  let out = Array.init 16 (fun i -> st.((4 * (((i / 4) + (i mod 4)) mod 4)) + (i mod 4))) in
  Array.blit out 0 st 0 16

let mix_columns st =
  for c = 0 to 3 do
    let a0 = st.(4 * c) and a1 = st.((4 * c) + 1)
    and a2 = st.((4 * c) + 2) and a3 = st.((4 * c) + 3) in
    st.(4 * c) <- gmul a0 2 lxor gmul a1 3 lxor a2 lxor a3;
    st.((4 * c) + 1) <- a0 lxor gmul a1 2 lxor gmul a2 3 lxor a3;
    st.((4 * c) + 2) <- a0 lxor a1 lxor gmul a2 2 lxor gmul a3 3;
    st.((4 * c) + 3) <- gmul a0 3 lxor a1 lxor a2 lxor gmul a3 2
  done

let encrypt_block key pt =
  let rk = expand key in
  let st = Array.init 16 (fun i -> Char.code pt.[i]) in
  add_round_key st rk.(0);
  for r = 1 to 9 do
    sub_bytes st;
    shift_rows st;
    mix_columns st;
    add_round_key st rk.(r)
  done;
  sub_bytes st;
  shift_rows st;
  add_round_key st rk.(10);
  String.init 16 (fun i -> Char.chr st.(i))
