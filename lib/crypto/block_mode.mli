(** Generic block-cipher modes: CBC encryption (with PKCS#7 padding) and
    CBC-MAC. §3.1 of the paper notes a prover MAC is "usually implemented
    as either a CBC-based function based on a block cipher (such as AES)
    or a keyed hash function"; this module provides the former for both
    AES-128 and Speck 64/128. *)

type cipher = {
  block_size : int;
  encrypt : string -> string; (* one block *)
  decrypt : string -> string; (* one block *)
}
(** A block cipher with its key already expanded. [encrypt] must not
    keep its argument: {!ctr_crypt} lends it one counter block and
    rewrites that block after each call. *)

val aes : Aes.key -> cipher
val speck : Speck.key -> cipher
val simon : Simon.key -> cipher

val pad_pkcs7 : int -> string -> string
(** Pad to a multiple of the block size; always adds at least one byte. *)

val unpad_pkcs7 : string -> string option
(** [None] if the padding is malformed. *)

val cbc_encrypt : cipher -> iv:string -> string -> string
(** PKCS#7-padded CBC encryption.
    @raise Invalid_argument if [iv] is not one block. *)

val cbc_decrypt : cipher -> iv:string -> string -> string option
(** Inverse of {!cbc_encrypt}; [None] on bad length or padding.

    Note the asymmetry with {!ctr_crypt}: CBC decryption can {e fail}
    (bad length, bad padding) and callers can tell those failures apart
    from a MAC mismatch — a padding-oracle-shaped signal. Authenticated
    framing must verify the MAC first and never branch on padding; the
    secure-session record layer therefore uses encrypt-then-MAC over
    CTR, where decryption is total. CBC stays for the paper tables. *)

val ctr_crypt : cipher -> nonce:string -> string -> string
(** Counter-mode keystream XOR: block [i] of the keystream is
    [encrypt (nonce ^ u64_be i)]. Encryption and decryption are the same
    operation, total on any input length — there is no padding to leak.
    [nonce] must be [block_size - 8] bytes and must never repeat under
    one key (the record layer uses the record sequence number).
    @raise Invalid_argument if [nonce] has the wrong length. *)

val cbc_mac : cipher -> string -> string
(** Length-prepended CBC-MAC (zero IV): prefixing the message length makes
    plain CBC-MAC secure for variable-length messages. Tag is one block. *)

val cbc_mac_verify : cipher -> msg:string -> tag:string -> bool
(** Constant-time tag check. *)
