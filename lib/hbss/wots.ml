open Dsig_hashes
module P = Params.Wots

(* Key material is kept as flat strings, not one string per chain
   value: signers hold hundreds of keys, and a cached key is then one
   allocation and about 40% of the memory. *)
type material =
  | Cached of string  (** every chain value: chain i at depth j at bytes [(i*d + j)*n, +n) *)
  | Uncached of { secrets : string; publics : string }
      (** chain i's secret, and its end, at bytes [i*n, +n) *)

type keypair = {
  p : P.t;
  hash : Hash.algo;
  public_seed : string;
  material : material;
  pk_digest : string;
  mutable used : bool;
}

let nonce_bytes = 16

(* Mask r_j (j in 1..d-1) for the chaining function, derived from the
   public seed so that verification is stateless. *)
let mask ~n public_seed j =
  Blake3.keyed ~key:public_seed ~length:n ("wots-mask" ^ Dsig_util.Bytesutil.u32_le (Int32.of_int j))

(* All d-1 masks of a key, derived once per call; index j holds r_j
   (index 0 is unused). *)
let masks ~n ~d public_seed = Array.init d (fun j -> if j = 0 then "" else mask ~n public_seed j)

(* Advance the chain value in [cur] from depth [from] to depth [upto]
   in place, c_j = H(c_{j-1} xor r_j); [tmp] is scratch of the same
   length. *)
let advance ~hash ~masks ~from ~upto cur tmp =
  for j = from + 1 to upto do
    let r = masks.(j) in
    for i = 0 to Bytes.length tmp - 1 do
      Bytes.set tmp i (Char.unsafe_chr (Char.code (Bytes.get cur i) lxor Char.code r.[i]))
    done;
    Hash.digest_into hash tmp cur
  done

(* BLAKE3(public_seed || element_0 || ... || element_{l-1}), the
   elements given as one l*n-byte string. *)
let compute_pk_digest public_seed elements = Blake3.digest (public_seed ^ elements)

let generate ?(hash = Hash.Haraka) ?(cache_chains = true) (p : P.t) ~seed =
  if String.length seed <> 32 then invalid_arg "Wots.generate: need a 32-byte seed";
  let n = p.P.n and d = p.P.d in
  let public_seed = Blake3.derive_key ~context:"dsig wots public seed" seed in
  (* All l secrets in one XOF call (§4.4). *)
  let secrets = Blake3.derive_key ~context:"dsig wots secrets" ~length:(p.P.l * n) seed in
  let masks = masks ~n ~d public_seed in
  let chains = Bytes.create (p.P.l * d * n) and publics = Bytes.create (p.P.l * n) in
  let cur = Bytes.create n and tmp = Bytes.create n in
  for i = 0 to p.P.l - 1 do
    Bytes.blit_string secrets (i * n) cur 0 n;
    Bytes.blit cur 0 chains (i * d * n) n;
    for j = 1 to d - 1 do
      advance ~hash ~masks ~from:(j - 1) ~upto:j cur tmp;
      Bytes.blit cur 0 chains (((i * d) + j) * n) n
    done;
    Bytes.blit cur 0 publics (i * n) n
  done;
  let publics = Bytes.unsafe_to_string publics in
  {
    p;
    hash;
    public_seed;
    material =
      (if cache_chains then Cached (Bytes.unsafe_to_string chains) else Uncached { secrets; publics });
    pk_digest = compute_pk_digest public_seed publics;
    used = false;
  }

let params kp = kp.p
let public_seed kp = kp.public_seed
let public_elements kp =
  let n = kp.p.P.n and d = kp.p.P.d in
  match kp.material with
  | Cached chains -> Array.init kp.p.P.l (fun i -> String.sub chains (((i * d) + d - 1) * n) n)
  | Uncached { publics; _ } -> Array.init kp.p.P.l (fun i -> String.sub publics (i * n) n)
let public_key_digest kp = kp.pk_digest

(* The paper salts the message digest with "the W-OTS+ public key and a
   random nonce" (§4.3). The verifier, however, must compute this digest
   *before* recovering the public key from the signature, so the salt
   has to travel with the signature: we use the per-key public seed,
   which provides the same multi-target protection (it is unique per key
   pair and bound to the public key through the chain masks). *)
(* Digest length: 128 bits of security, rounded up so that l1 digits of
   width log2(d) bits are always available (l1 * width can exceed 128 by
   a few bits when log2(d) does not divide 128, e.g. d = 8). *)
let digest_length (p : P.t) =
  let width = Params.log2_exact p.P.d in
  max 16 (((p.P.l1 * width) + 7) / 8)

let message_digest (p : P.t) ~public_seed ~nonce msg =
  Blake3.digest ~length:(digest_length p) (public_seed ^ nonce ^ msg)

(* Base-d digits of the salted digest plus checksum digits. *)
let all_digits (p : P.t) digest =
  let width = Params.log2_exact p.P.d in
  let msg_digits = Bits.digits digest ~width ~count:p.P.l1 in
  let checksum = Array.fold_left (fun acc m -> acc + (p.P.d - 1 - m)) 0 msg_digits in
  let cs_digits =
    Array.init p.P.l2 (fun i -> (checksum lsr (width * (p.P.l2 - 1 - i))) land (p.P.d - 1))
  in
  Array.append msg_digits cs_digits

type signature = { nonce : string; elements : string array }

let sign ?(allow_reuse = false) kp ~nonce msg =
  if kp.used && not allow_reuse then invalid_arg "Wots.sign: one-time key already used";
  kp.used <- true;
  if String.length nonce <> nonce_bytes then invalid_arg "Wots.sign: nonce must be 16 bytes";
  let digest = message_digest kp.p ~public_seed:kp.public_seed ~nonce msg in
  let digits = all_digits kp.p digest in
  let n = kp.p.P.n in
  let elements =
    match kp.material with
    | Cached chains ->
        Array.init kp.p.P.l (fun i -> String.sub chains (((i * kp.p.P.d) + digits.(i)) * n) n)
    | Uncached { secrets; _ } ->
        let masks = masks ~n ~d:kp.p.P.d kp.public_seed in
        let tmp = Bytes.create n in
        Array.init kp.p.P.l (fun i ->
            let cur = Bytes.of_string (String.sub secrets (i * n) n) in
            advance ~hash:kp.hash ~masks ~from:0 ~upto:digits.(i) cur tmp;
            Bytes.unsafe_to_string cur)
  in
  { nonce; elements }

(* Complete the chains of [signature] for [msg]: the l chain ends as
   one l*n-byte string. *)
let recover_ends ~hash (p : P.t) ~public_seed signature msg =
  let n = p.P.n in
  if Array.length signature.elements <> p.P.l then
    invalid_arg "Wots.recover: wrong element count";
  if Array.exists (fun e -> String.length e <> n) signature.elements then
    invalid_arg "Wots.recover: wrong element length";
  let digest = message_digest p ~public_seed ~nonce:signature.nonce msg in
  let digits = all_digits p digest in
  let masks = masks ~n ~d:p.P.d public_seed in
  let ends = Bytes.create (p.P.l * n) in
  let cur = Bytes.create n and tmp = Bytes.create n in
  Array.iteri
    (fun i e ->
      Bytes.blit_string e 0 cur 0 n;
      advance ~hash ~masks ~from:digits.(i) ~upto:(p.P.d - 1) cur tmp;
      Bytes.blit cur 0 ends (i * n) n)
    signature.elements;
  Bytes.unsafe_to_string ends

let recover_public_elements ?(hash = Hash.Haraka) (p : P.t) ~public_seed signature msg =
  let ends = recover_ends ~hash p ~public_seed signature msg in
  Array.init p.P.l (fun i -> String.sub ends (i * p.P.n) p.P.n)

let recover_public_key_digest ?(hash = Hash.Haraka) (p : P.t) ~public_seed signature msg =
  compute_pk_digest public_seed (recover_ends ~hash p ~public_seed signature msg)

let verify ?hash (p : P.t) ~public_seed ~pk_digest signature msg =
  Array.length signature.elements = p.P.l
  && String.length signature.nonce = nonce_bytes
  && Array.for_all (fun e -> String.length e = p.P.n) signature.elements
  && Dsig_util.Bytesutil.equal_ct pk_digest
       (recover_public_key_digest ?hash p ~public_seed signature msg)

let signature_wire_bytes (p : P.t) = nonce_bytes + (p.P.l * p.P.n)
