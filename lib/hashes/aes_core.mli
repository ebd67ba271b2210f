(** AES round function building blocks, used by {!Haraka}.

    The S-box and MixColumns tables are generated from first principles
    (multiplicative inverse in GF(2^8) modulo x^8+x^4+x^3+x+1, followed
    by the affine transform), not transcribed, and are spot-checked in
    the test suite against published S-box entries. Only the unkeyed
    round function is exposed — Haraka needs nothing else. *)

val sbox : int array
(** The 256-entry AES S-box. *)

val gf_mul : int -> int -> int
(** Multiplication in GF(2^8) mod 0x11b. *)

type state = int array
(** Four 32-bit column words; word [c] holds rows 0..3 of column [c] in
    its bytes from most to least significant. *)

val state_of_string : string -> int -> state
(** [state_of_string s off] loads 16 bytes at offset [off]; byte
    [off + 4*c + r] becomes row [r] of column [c] (FIPS 197 layout). *)

val string_of_state : state -> string

val column : int -> int -> int -> int -> int
(** [column a b c d] is one output column of SubBytes, ShiftRows and
    MixColumns, before the round-key XOR, computed with fused T-tables:
    row 0 is taken from column word [a], row 1 from [b], row 2 from [c]
    and row 3 from [d], each as the byte at that row of a 32-bit
    column word (higher bits are ignored). Column [c] of a
    round over state [s] is
    [column s.(c) s.((c+1) mod 4) s.((c+2) mod 4) s.((c+3) mod 4)]; the
    caller keeps the four words in locals, so a round allocates
    nothing. *)

val round_naive : state -> rc:string -> state
(** Reference implementation applying the four steps separately; used by
    the test suite to validate [column]. *)
