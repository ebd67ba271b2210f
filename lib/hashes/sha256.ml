let digest_size = 32
let mask32 = 0xffffffff
let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

type ctx = {
  h : int array; (* 8 words *)
  w : int array; (* 64-word message schedule, scratch of this context *)
  buf : Buffer.t; (* < 64 bytes pending *)
  mutable total : int; (* bytes fed so far *)
  mutable finalized : bool;
}

let init () =
  {
    h = Array.copy Sha2_constants.h256;
    w = Array.make 64 0;
    buf = Buffer.create 64;
    total = 0;
    finalized = false;
  }

let compress h w block off =
  let k = Sha2_constants.k256 in
  for t = 0 to 15 do
    let base = off + (4 * t) in
    w.(t) <-
      (Char.code block.[base] lsl 24)
      lor (Char.code block.[base + 1] lsl 16)
      lor (Char.code block.[base + 2] lsl 8)
      lor Char.code block.[base + 3]
  done;
  for t = 16 to 63 do
    let s0 = rotr w.(t - 15) 7 lxor rotr w.(t - 15) 18 lxor (w.(t - 15) lsr 3) in
    let s1 = rotr w.(t - 2) 17 lxor rotr w.(t - 2) 19 lxor (w.(t - 2) lsr 10) in
    w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask32
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let t1 = (!hh + s1 + ch + k.(t) + w.(t)) land mask32 in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    let t2 = (s0 + maj) land mask32 in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask32;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + t2) land mask32
  done;
  h.(0) <- (h.(0) + !a) land mask32;
  h.(1) <- (h.(1) + !b) land mask32;
  h.(2) <- (h.(2) + !c) land mask32;
  h.(3) <- (h.(3) + !d) land mask32;
  h.(4) <- (h.(4) + !e) land mask32;
  h.(5) <- (h.(5) + !f) land mask32;
  h.(6) <- (h.(6) + !g) land mask32;
  h.(7) <- (h.(7) + !hh) land mask32

let feed ctx s =
  if ctx.finalized then invalid_arg "Sha256.feed: finalized context";
  ctx.total <- ctx.total + String.length s;
  Buffer.add_string ctx.buf s;
  let data = Buffer.contents ctx.buf in
  let n = String.length data in
  let blocks = n / 64 in
  for i = 0 to blocks - 1 do
    compress ctx.h ctx.w data (i * 64)
  done;
  Buffer.clear ctx.buf;
  Buffer.add_substring ctx.buf data (blocks * 64) (n - (blocks * 64))

let finalize ctx =
  if ctx.finalized then invalid_arg "Sha256.finalize: already finalized";
  ctx.finalized <- true;
  let bit_len = Int64.of_int (8 * ctx.total) in
  let pending = Buffer.length ctx.buf in
  let pad_len =
    let r = (pending + 1 + 8) mod 64 in
    if r = 0 then 1 else 1 + (64 - r)
  in
  let pad = Bytes.make (pad_len + 8) '\x00' in
  Bytes.set pad 0 '\x80';
  for i = 0 to 7 do
    Bytes.set pad (pad_len + i)
      (Char.chr (Int64.to_int (Int64.shift_right_logical bit_len (8 * (7 - i))) land 0xff))
  done;
  ctx.finalized <- false;
  feed ctx (Bytes.unsafe_to_string pad);
  ctx.finalized <- true;
  assert (Buffer.length ctx.buf = 0);
  String.init 32 (fun i -> Char.chr ((ctx.h.(i / 4) lsr (8 * (3 - (i mod 4)))) land 0xff))

let digest msg =
  let ctx = init () in
  feed ctx msg;
  finalize ctx

let hex msg = Dsig_util.Bytesutil.to_hex (digest msg)
