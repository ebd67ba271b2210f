(** Uniform interface over the three hash functions the paper evaluates
    (SHA-256, BLAKE3, Haraka — §5.3, Figure 6), with arbitrary input and
    output lengths so the HBSS layer can swap them freely.

    Haraka is a fixed-width permutation-based hash (32- or 64-byte
    inputs), so [digest] wraps it in length-tagged padding and, for long
    inputs, a Merkle–Damgård-style fold; this mirrors how SPHINCS+ uses
    Haraka for its fixed-size tweakable hashing. *)

type algo = Sha256 | Blake3 | Haraka

val all : algo list
val to_string : algo -> string
val of_string : string -> algo
(** @raise Invalid_argument on unknown name. *)

val digest : algo -> ?length:int -> string -> string
(** [digest algo ?length msg] (default [length] 32). Output longer than
    the native digest is produced in counter mode; shorter output is a
    truncation. *)

val digest_into : algo -> Bytes.t -> Bytes.t -> unit
(** [digest_into algo src dst] writes [digest algo ~length:(Bytes.length
    dst)] of the contents of [src] into [dst]; [src] and [dst] may be the
    same buffer. For Haraka with input and output of at most 32 bytes
    (hash-chain steps) it allocates nothing. *)

val digest2 : algo -> ?length:int -> string -> string -> string
(** [digest2 algo a b] hashes the concatenation; a convenience that lets
    Haraka use its 64-byte permutation directly for two 32-byte inputs
    (the Merkle-node fast path). *)
