(** Haraka-style short-input hash (Kölbl, Lauridsen, Mendel, Rechberger,
    "Haraka v2", ToSC 2016).

    Structure per the paper: 5 rounds, each applying two AES rounds to
    every 128-bit lane followed by a cross-lane word mix; a feed-forward
    XOR of the input; truncation to 256 bits. DSig uses it as the W-OTS+
    chain/keygen hash because its cost is a handful of AES rounds (§4.3).

    {b Substitution note (see DESIGN.md §1):} the official round
    constants are digits of π and the official MIX is expressed as SSSE3
    unpack instructions; neither is available to us offline in verified
    form. We derive round constants as [SHA-256("haraka-rc" || i)] and
    use an explicit unpacklo/unpackhi word shuffle. Outputs are therefore
    {e not interoperable} with the reference implementation, but the
    construction (AES-round permutation + feed-forward) and its security
    argument and cost profile are unchanged.

    The lanes are carried as 32-bit words in native ints: the round
    constants are parsed to words once, at module initialisation, and
    the permutation keeps every lane word in a local, so hashing
    allocates nothing beyond its output. *)

val haraka256 : string -> string
(** [haraka256 x] maps a 32-byte input to a 32-byte output.
    @raise Invalid_argument on wrong input size. *)

val haraka256_into : Bytes.t -> Bytes.t -> unit
(** [haraka256_into src dst] hashes the 32-byte block made of [src]
    (at most 32 bytes), zero padding and, when [src] is shorter than 32
    bytes, its length in the last byte — the length-tagged padding of
    {!Hash.digest} — and writes the first [Bytes.length dst] (at most 32)
    output bytes into [dst]. [src] and [dst] may be the same buffer.
    Allocates nothing; [haraka256 x] is this on [x] with a 32-byte
    output.
    @raise Invalid_argument if [src] or [dst] is longer than 32 bytes. *)

val haraka512 : string -> string
(** [haraka512 x] maps a 64-byte input to a 32-byte output. *)

val round_constants : string array
(** The 40 derived 16-byte round constants (exposed for tests). *)
