(* HMAC-DRBG with SHA-256: state is (K, V); update/generate follow
   SP 800-90A §10.1.2 (no prediction resistance, no explicit reseed
   counter enforcement — our seeds are test/simulation inputs).

   K changes only inside [update]; every HMAC between two K-changes reuses
   the same key, so the state carries the precomputed {!Hmac.key_ctx} and
   the generate loop never re-absorbs the pads. *)

type t = { mutable k : string; mutable v : string; mutable kc : Hmac.key_ctx }

let hash = Hmac.sha256

let set_key t k =
  t.k <- k;
  t.kc <- Hmac.key hash ~key:k

let update t provided =
  set_key t (Hmac.mac_parts t.kc [ t.v; "\x00"; provided ]);
  t.v <- Hmac.mac_with t.kc t.v;
  if String.length provided > 0 then begin
    set_key t (Hmac.mac_parts t.kc [ t.v; "\x01"; provided ]);
    t.v <- Hmac.mac_with t.kc t.v
  end

let create ?(personalization = "") ~seed () =
  let k0 = String.make hash.Hmac.digest_size '\x00' in
  let t =
    { k = k0; v = String.make hash.Hmac.digest_size '\x01'; kc = Hmac.key hash ~key:k0 }
  in
  update t (seed ^ personalization);
  t

let copy t = { t with v = t.v }

let reseed t entropy = update t entropy

let generate t n =
  let buf = Buffer.create n in
  while Buffer.length buf < n do
    t.v <- Hmac.mac_with t.kc t.v;
    Buffer.add_string buf t.v
  done;
  update t "";
  Buffer.sub buf 0 n
