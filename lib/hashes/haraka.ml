let round_constants =
  Array.init 40 (fun i ->
      String.sub (Sha256.digest (Printf.sprintf "haraka-rc%02d" i)) 0 16)

(* The constants as 160 column words, parsed once: word [4i + c] is
   column [c] of constant [i] in Aes_core's big-endian column layout. *)
let rc_words =
  Array.init 160 (fun w ->
      Int32.to_int (String.get_int32_be round_constants.(w / 4) (4 * (w mod 4))) land 0xffffffff)

(* Column of one AES round keyed with constant word [k]. *)
let[@inline] col a b c d k = Aes_core.column a b c d lxor Array.unsafe_get rc_words k

(* Byte [k] of the [size]-byte block holding [src], zero padding and,
   when [src] is short, its length in the last byte. *)
let padded_byte src size k =
  let len = Bytes.length src in
  if k < len then Char.code (Bytes.get src k) else if k = size - 1 then len else 0

(* Big-endian 32-bit word [i] of that block. *)
let load src size i =
  let k = 4 * i in
  (padded_byte src size k lsl 24)
  lor (padded_byte src size (k + 1) lsl 16)
  lor (padded_byte src size (k + 2) lsl 8)
  lor padded_byte src size (k + 3)

(* Write word [w] big-endian at byte [off] of [dst], dropping the bytes
   that fall past its end. *)
let store dst off w =
  for k = off to min (off + 3) (Bytes.length dst - 1) do
    Bytes.set dst k (Char.unsafe_chr ((w lsr (24 - (8 * (k - off)))) land 0xff))
  done

(* The eight lane words live in locals for the whole permutation; each
   AES round is four [col]s, and the unpacklo/unpackhi word mix
   (_mm_unpacklo_epi32/_mm_unpackhi_epi32 in our big-endian word
   convention: lo interleaves the first two words of each lane, hi the
   last two) is a reassignment. *)
let haraka256_into src dst =
  if Bytes.length src > 32 || Bytes.length dst > 32 then
    invalid_arg "Haraka.haraka256_into: input and output must be at most 32 bytes";
  let i0 = load src 32 0 and i1 = load src 32 1 and i2 = load src 32 2 and i3 = load src 32 3 in
  let i4 = load src 32 4 and i5 = load src 32 5 and i6 = load src 32 6 and i7 = load src 32 7 in
  let s0 = ref i0 and s1 = ref i1 and s2 = ref i2 and s3 = ref i3 in
  let s4 = ref i4 and s5 = ref i5 and s6 = ref i6 and s7 = ref i7 in
  for r = 0 to 4 do
    (* round r uses constants 4r .. 4r+3 *)
    let k = 16 * r in
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    let b0 = col a0 a1 a2 a3 k and b1 = col a1 a2 a3 a0 (k + 1)
    and b2 = col a2 a3 a0 a1 (k + 2) and b3 = col a3 a0 a1 a2 (k + 3) in
    let a0 = col b0 b1 b2 b3 (k + 4) and a1 = col b1 b2 b3 b0 (k + 5)
    and a2 = col b2 b3 b0 b1 (k + 6) and a3 = col b3 b0 b1 b2 (k + 7) in
    let c0 = !s4 and c1 = !s5 and c2 = !s6 and c3 = !s7 in
    let d0 = col c0 c1 c2 c3 (k + 8) and d1 = col c1 c2 c3 c0 (k + 9)
    and d2 = col c2 c3 c0 c1 (k + 10) and d3 = col c3 c0 c1 c2 (k + 11) in
    let c0 = col d0 d1 d2 d3 (k + 12) and c1 = col d1 d2 d3 d0 (k + 13)
    and c2 = col d2 d3 d0 d1 (k + 14) and c3 = col d3 d0 d1 d2 (k + 15) in
    s0 := a0; s1 := c0; s2 := a1; s3 := c1;
    s4 := a2; s5 := c2; s6 := a3; s7 := c3
  done;
  (* feed-forward *)
  store dst 0 (!s0 lxor i0);
  store dst 4 (!s1 lxor i1);
  store dst 8 (!s2 lxor i2);
  store dst 12 (!s3 lxor i3);
  store dst 16 (!s4 lxor i4);
  store dst 20 (!s5 lxor i5);
  store dst 24 (!s6 lxor i6);
  store dst 28 (!s7 lxor i7)

let haraka256 x =
  if String.length x <> 32 then invalid_arg "Haraka.haraka256: input must be 32 bytes";
  let out = Bytes.create 32 in
  haraka256_into (Bytes.unsafe_of_string x) out;
  Bytes.unsafe_to_string out

let haraka512 x =
  if String.length x <> 64 then invalid_arg "Haraka.haraka512: input must be 64 bytes";
  let src = Bytes.unsafe_of_string x in
  let i0 = load src 64 0 and i1 = load src 64 1 and i2 = load src 64 2 and i3 = load src 64 3 in
  let i4 = load src 64 4 and i5 = load src 64 5 and i6 = load src 64 6 and i7 = load src 64 7 in
  let i8 = load src 64 8 and i9 = load src 64 9 and i10 = load src 64 10 and i11 = load src 64 11 in
  let i12 = load src 64 12 and i13 = load src 64 13 and i14 = load src 64 14 and i15 = load src 64 15 in
  let s0 = ref i0 and s1 = ref i1 and s2 = ref i2 and s3 = ref i3 in
  let s4 = ref i4 and s5 = ref i5 and s6 = ref i6 and s7 = ref i7 in
  let s8 = ref i8 and s9 = ref i9 and s10 = ref i10 and s11 = ref i11 in
  let s12 = ref i12 and s13 = ref i13 and s14 = ref i14 and s15 = ref i15 in
  for r = 0 to 4 do
    (* round r uses constants 8r .. 8r+7, two per lane *)
    let k = 32 * r in
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    let b0 = col a0 a1 a2 a3 k and b1 = col a1 a2 a3 a0 (k + 1)
    and b2 = col a2 a3 a0 a1 (k + 2) and b3 = col a3 a0 a1 a2 (k + 3) in
    let x0 = col b0 b1 b2 b3 (k + 4) and x1 = col b1 b2 b3 b0 (k + 5)
    and x2 = col b2 b3 b0 b1 (k + 6) and x3 = col b3 b0 b1 b2 (k + 7) in
    let a0 = !s4 and a1 = !s5 and a2 = !s6 and a3 = !s7 in
    let b0 = col a0 a1 a2 a3 (k + 8) and b1 = col a1 a2 a3 a0 (k + 9)
    and b2 = col a2 a3 a0 a1 (k + 10) and b3 = col a3 a0 a1 a2 (k + 11) in
    let y0 = col b0 b1 b2 b3 (k + 12) and y1 = col b1 b2 b3 b0 (k + 13)
    and y2 = col b2 b3 b0 b1 (k + 14) and y3 = col b3 b0 b1 b2 (k + 15) in
    let a0 = !s8 and a1 = !s9 and a2 = !s10 and a3 = !s11 in
    let b0 = col a0 a1 a2 a3 (k + 16) and b1 = col a1 a2 a3 a0 (k + 17)
    and b2 = col a2 a3 a0 a1 (k + 18) and b3 = col a3 a0 a1 a2 (k + 19) in
    let z0 = col b0 b1 b2 b3 (k + 20) and z1 = col b1 b2 b3 b0 (k + 21)
    and z2 = col b2 b3 b0 b1 (k + 22) and z3 = col b3 b0 b1 b2 (k + 23) in
    let a0 = !s12 and a1 = !s13 and a2 = !s14 and a3 = !s15 in
    let b0 = col a0 a1 a2 a3 (k + 24) and b1 = col a1 a2 a3 a0 (k + 25)
    and b2 = col a2 a3 a0 a1 (k + 26) and b3 = col a3 a0 a1 a2 (k + 27) in
    let w0 = col b0 b1 b2 b3 (k + 28) and w1 = col b1 b2 b3 b0 (k + 29)
    and w2 = col b2 b3 b0 b1 (k + 30) and w3 = col b3 b0 b1 b2 (k + 31) in
    (* MIX4: with t = unpacklo/u = unpackhi of lanes (0,1) and (2,3),
       the lanes become hi(u0,u1), lo(u0,u1), hi(t0,t1), lo(t0,t1). *)
    s0 := x3; s1 := z3; s2 := y3; s3 := w3;
    s4 := x2; s5 := z2; s6 := y2; s7 := w2;
    s8 := x1; s9 := z1; s10 := y1; s11 := w1;
    s12 := x0; s13 := z0; s14 := y0; s15 := w0
  done;
  (* feed-forward, then keep bytes 8..15 of lanes 0 and 1 and bytes
     0..7 of lanes 2 and 3 *)
  let out = Bytes.create 32 in
  store out 0 (!s2 lxor i2);
  store out 4 (!s3 lxor i3);
  store out 8 (!s6 lxor i6);
  store out 12 (!s7 lxor i7);
  store out 16 (!s8 lxor i8);
  store out 20 (!s9 lxor i9);
  store out 24 (!s12 lxor i12);
  store out 28 (!s13 lxor i13);
  Bytes.unsafe_to_string out

(* haraka512 consumes 8 constants per round over 5 rounds (all 40);
   haraka256 consumes 4 per round (RC[4r .. 4r+3]), overlapping the 512
   schedule — harmless for a reconstruction that is already documented
   as non-interoperable. *)
