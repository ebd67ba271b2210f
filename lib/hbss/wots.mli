(** W-OTS+ one-time signatures (Hülsing, AFRICACRYPT 2013), DSig's
    recommended HBSS (§5.4: d = 4 with Haraka).

    Secrets are expanded from a 32-byte seed with BLAKE3 (§4.4 "speeding
    up key pair generation"); chaining uses mask vectors derived from a
    public seed, [c_{i+1} = H(c_i xor r_{i+1})]; the message is cut into
    base-d digits plus a base-d checksum. Signing with the chain cache
    enabled is pure string copying, as in the paper (§5.2).

    A W-OTS+ signature lets the verifier {e recover} the public key by
    completing the chains, so DSig signatures need not embed it
    (Figure 5): the recovered key is authenticated through its digest in
    the EdDSA-signed Merkle batch. *)

type keypair

val generate :
  ?hash:Dsig_hashes.Hash.algo ->
  ?cache_chains:bool ->
  Params.Wots.t ->
  seed:string ->
  keypair
(** [generate params ~seed] derives a key pair deterministically from a
    32-byte seed. [cache_chains] (default [true]) precomputes all chain
    values so [sign] does no hashing. [hash] defaults to [Haraka]. *)

val params : keypair -> Params.Wots.t
val public_seed : keypair -> string
val public_elements : keypair -> string array
val public_key_digest : keypair -> string
(** BLAKE3(public_seed || elements): the Merkle-batch leaf (§4.4). *)

val message_digest : Params.Wots.t -> public_seed:string -> nonce:string -> string -> string
(** The 16-byte digest actually signed: BLAKE3 of the message salted
    with the key pair's public seed and a nonce. (The paper salts with
    the public key itself (§4.3); the verifier must be able to compute
    the digest before recovering the key, so we salt with the per-key
    public seed, which gives the same multi-target protection.) *)

type signature = { nonce : string; elements : string array }

val sign : ?allow_reuse:bool -> keypair -> nonce:string -> string -> signature
(** [sign kp ~nonce msg]. One-time: a second call raises
    [Invalid_argument] unless [allow_reuse] (tests only). *)

val recover_public_elements :
  ?hash:Dsig_hashes.Hash.algo ->
  Params.Wots.t ->
  public_seed:string ->
  signature ->
  string ->
  string array
(** Complete the chains for message [msg]; if the signature is genuine
    the result equals the signer's public elements. The d−1 chain masks
    are derived once per call and each chain advances in place.
    @raise Invalid_argument on a wrong element count or length. *)

val recover_public_key_digest :
  ?hash:Dsig_hashes.Hash.algo ->
  Params.Wots.t ->
  public_seed:string ->
  signature ->
  string ->
  string

val verify :
  ?hash:Dsig_hashes.Hash.algo ->
  Params.Wots.t ->
  public_seed:string ->
  pk_digest:string ->
  signature ->
  string ->
  bool
(** Recover-and-compare against the expected public-key digest. *)

val signature_wire_bytes : Params.Wots.t -> int
(** nonce (16) + l*n elements. *)
