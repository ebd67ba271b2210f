let digest_size = 32
let mask32 = 0xffffffff
let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

(* Domain flags (spec table 3). *)
let chunk_start = 1
let chunk_end = 2
let parent = 4
let root = 8
let keyed_hash = 16
let derive_key_context = 32
let derive_key_material = 64

let iv = Sha2_constants.h256 (* BLAKE3 IV = SHA-256 IV *)
let msg_permutation = [| 2; 6; 3; 10; 7; 0; 4; 13; 1; 11; 12; 5; 9; 14; 15; 8 |]

(* Round r reads message word [schedule.(16r + i)] where the
   specification permutes the block by [msg_permutation] between rounds,
   so the block is never copied or moved. *)
let schedule =
  let s = Array.make (7 * 16) 0 in
  for i = 0 to 15 do
    s.(i) <- i
  done;
  for r = 1 to 6 do
    for i = 0 to 15 do
      s.((16 * r) + i) <- s.((16 * (r - 1)) + msg_permutation.(i))
    done
  done;
  s

(* [v] is always a 16-word state and [m] a 16-word block, and [g] is
   inlined at constant indices, so the accesses need no bounds checks. *)
let[@inline] get (v : int array) i = Array.unsafe_get v i
let[@inline] set (v : int array) i x = Array.unsafe_set v i x

let[@inline] g v a b c d mx my =
  set v a ((get v a + get v b + mx) land mask32);
  set v d (rotr (get v d lxor get v a) 16);
  set v c ((get v c + get v d) land mask32);
  set v b (rotr (get v b lxor get v c) 12);
  set v a ((get v a + get v b + my) land mask32);
  set v d (rotr (get v d lxor get v a) 8);
  set v c ((get v c + get v d) land mask32);
  set v b (rotr (get v b lxor get v c) 7)

(* Word [i] of round [r]'s message order ([o] = 16r). *)
let[@inline] msg_word m o i = get m (get schedule (o + i))

let round v m r =
  let o = 16 * r in
  (* columns *)
  g v 0 4 8 12 (msg_word m o 0) (msg_word m o 1);
  g v 1 5 9 13 (msg_word m o 2) (msg_word m o 3);
  g v 2 6 10 14 (msg_word m o 4) (msg_word m o 5);
  g v 3 7 11 15 (msg_word m o 6) (msg_word m o 7);
  (* diagonals *)
  g v 0 5 10 15 (msg_word m o 8) (msg_word m o 9);
  g v 1 6 11 12 (msg_word m o 10) (msg_word m o 11);
  g v 2 7 8 13 (msg_word m o 12) (msg_word m o 13);
  g v 3 4 9 14 (msg_word m o 14) (msg_word m o 15)

(* Compress message block [m] (16 words, left unchanged) under chaining
   value [cv], leaving the full 16-word output in [v]. Allocates
   nothing: [v] is the caller's scratch state, reused across calls. *)
let compress v ~cv ~m ~counter ~block_len ~flags =
  Array.blit cv 0 v 0 8;
  Array.blit iv 0 v 8 4;
  v.(12) <- counter land mask32;
  v.(13) <- (counter lsr 32) land mask32;
  v.(14) <- block_len;
  v.(15) <- flags;
  for r = 0 to 6 do
    round v m r
  done;
  for i = 0 to 7 do
    v.(i) <- v.(i) lxor v.(i + 8);
    v.(i + 8) <- v.(i + 8) lxor cv.(i)
  done

(* Load the [len] (at most 64) bytes of [s] at [off] into [m] as
   little-endian words, zero-padded. *)
let load_block m s off len =
  for i = 0 to 15 do
    let w = ref 0 in
    for j = 3 downto 0 do
      let k = (4 * i) + j in
      w := (!w lsl 8) lor if k < len then Char.code s.[off + k] else 0
    done;
    m.(i) <- !w
  done

(* An "output node": the final compression input of a chunk or parent,
   kept uncompressed so the ROOT flag and output counter can be applied
   when it turns out to be the root (spec §2.6). *)
type output = { cv : int array; m : int array; counter : int; block_len : int; flags : int }

let chaining_value v (o : output) =
  compress v ~cv:o.cv ~m:o.m ~counter:o.counter ~block_len:o.block_len ~flags:o.flags;
  Array.sub v 0 8

let root_output_bytes v (o : output) length =
  let out = Bytes.create length in
  let pos = ref 0 and t = ref 0 in
  while !pos < length do
    compress v ~cv:o.cv ~m:o.m ~counter:!t ~block_len:o.block_len ~flags:(o.flags lor root);
    let take = min 64 (length - !pos) in
    for i = 0 to take - 1 do
      Bytes.set out (!pos + i) (Char.unsafe_chr ((v.(i / 4) lsr (8 * (i mod 4))) land 0xff))
    done;
    pos := !pos + take;
    incr t
  done;
  Bytes.unsafe_to_string out

(* Compress a whole 1024-byte-max chunk down to its output node. *)
let chunk_output v ~key_words ~flags ~chunk_counter input off len =
  let nblocks = max 1 ((len + 63) / 64) in
  let cv = Array.copy key_words and m = Array.make 16 0 in
  for b = 0 to nblocks - 2 do
    load_block m input (off + (64 * b)) 64;
    compress v ~cv ~m ~counter:chunk_counter ~block_len:64
      ~flags:(flags lor if b = 0 then chunk_start else 0);
    Array.blit v 0 cv 0 8
  done;
  let last = nblocks - 1 in
  let block_len = len - (64 * last) in
  load_block m input (off + (64 * last)) block_len;
  {
    cv;
    m;
    counter = chunk_counter;
    block_len;
    flags = flags lor (if last = 0 then chunk_start else 0) lor chunk_end;
  }

let parent_output ~key_words ~flags left_cv right_cv =
  let m = Array.make 16 0 in
  Array.blit left_cv 0 m 0 8;
  Array.blit right_cv 0 m 8 8;
  { cv = key_words; m; counter = 0; block_len = 64; flags = flags lor parent }

(* Largest power of two strictly less than n (n >= 2). *)
let left_chunks n =
  let rec go p = if 2 * p >= n then p else go (2 * p) in
  go 1

let rec subtree_output v ~key_words ~flags input off len ~chunk_counter =
  if len <= 1024 then chunk_output v ~key_words ~flags ~chunk_counter input off len
  else begin
    let chunks = (len + 1023) / 1024 in
    let left = left_chunks chunks * 1024 in
    let l = subtree_output v ~key_words ~flags input off left ~chunk_counter in
    let r =
      subtree_output v ~key_words ~flags input (off + left) (len - left)
        ~chunk_counter:(chunk_counter + (left / 1024))
    in
    parent_output ~key_words ~flags (chaining_value v l) (chaining_value v r)
  end

(* One 16-word state per call: every compression of the hash reuses it,
   and concurrent calls on other domains have their own. *)
let hash_internal ~key_words ~flags ~length input =
  let v = Array.make 16 0 in
  let o = subtree_output v ~key_words ~flags input 0 (String.length input) ~chunk_counter:0 in
  root_output_bytes v o length

let key_words_of_string key =
  if String.length key <> 32 then invalid_arg "Blake3: key must be 32 bytes";
  Array.init 8 (fun i -> Int32.to_int (Dsig_util.Bytesutil.get_u32_le key (4 * i)) land mask32)

let digest ?(length = 32) msg = hash_internal ~key_words:iv ~flags:0 ~length msg

let keyed ~key ?(length = 32) msg =
  hash_internal ~key_words:(key_words_of_string key) ~flags:keyed_hash ~length msg

let derive_key ~context ?(length = 32) material =
  let context_key =
    hash_internal ~key_words:iv ~flags:derive_key_context ~length:32 context
  in
  hash_internal ~key_words:(key_words_of_string context_key) ~flags:derive_key_material ~length
    material

let hex msg = Dsig_util.Bytesutil.to_hex (digest msg)

(* --- incremental hashing (spec §5.1.2 reference structure) --- *)

module Incremental = struct
  type chunk_state = {
    cv : int array;
    chunk_counter : int;
    block : Bytes.t; (* 64-byte block buffer *)
    mutable block_len : int;
    mutable blocks_compressed : int;
  }

  type t = {
    key_words : int array;
    base_flags : int;
    v : int array; (* compression state *)
    m : int array; (* message block *)
    mutable chunk : chunk_state;
    mutable cv_stack : int array list; (* subtree CVs, deepest first *)
    mutable total_chunks : int;
    mutable finalized : bool;
  }

  let fresh_chunk key_words counter =
    {
      cv = Array.copy key_words;
      chunk_counter = counter;
      block = Bytes.make 64 '\x00';
      block_len = 0;
      blocks_compressed = 0;
    }

  let create ?key () =
    let key_words, base_flags =
      match key with None -> (iv, 0) | Some k -> (key_words_of_string k, keyed_hash)
    in
    {
      key_words;
      base_flags;
      v = Array.make 16 0;
      m = Array.make 16 0;
      chunk = fresh_chunk key_words 0;
      cv_stack = [];
      total_chunks = 0;
      finalized = false;
    }

  let chunk_start_flag c = if c.blocks_compressed = 0 then chunk_start else 0

  (* compress the buffered (full) block as a non-final block *)
  let compress_block t =
    let c = t.chunk in
    load_block t.m (Bytes.unsafe_to_string c.block) 0 64;
    compress t.v ~cv:c.cv ~m:t.m ~counter:c.chunk_counter ~block_len:64
      ~flags:(t.base_flags lor chunk_start_flag c);
    Array.blit t.v 0 c.cv 0 8;
    c.blocks_compressed <- c.blocks_compressed + 1;
    c.block_len <- 0

  (* the pending chunk's output node (with CHUNK_END) *)
  let chunk_node t =
    let c = t.chunk in
    let m = Array.make 16 0 in
    load_block m (Bytes.unsafe_to_string c.block) 0 c.block_len;
    {
      cv = c.cv;
      m;
      counter = c.chunk_counter;
      block_len = c.block_len;
      flags = t.base_flags lor chunk_start_flag c lor chunk_end;
    }

  let parent_cv t left right =
    chaining_value t.v (parent_output ~key_words:t.key_words ~flags:t.base_flags left right)

  (* merge a completed chunk's CV into the stack: one merge per trailing
     zero bit of the completed-chunk count *)
  let add_chunk_cv t cv =
    t.total_chunks <- t.total_chunks + 1;
    let new_cv = ref cv in
    let n = ref t.total_chunks in
    while !n land 1 = 0 do
      (match t.cv_stack with
      | top :: rest ->
          new_cv := parent_cv t top !new_cv;
          t.cv_stack <- rest
      | [] -> assert false);
      n := !n lsr 1
    done;
    t.cv_stack <- !new_cv :: t.cv_stack

  let feed t s =
    if t.finalized then invalid_arg "Blake3.Incremental.feed: finalized";
    let len = String.length s in
    let pos = ref 0 in
    while !pos < len do
      let c = t.chunk in
      (* chunk full (16 blocks compressed would be 1024 bytes): roll over
         only when more input exists, so the final chunk stays pending *)
      if c.blocks_compressed = 15 && c.block_len = 64 then begin
        add_chunk_cv t (chaining_value t.v (chunk_node t));
        t.chunk <- fresh_chunk t.key_words (c.chunk_counter + 1)
      end
      else begin
        if c.block_len = 64 then compress_block t;
        let take = min (64 - t.chunk.block_len) (len - !pos) in
        Bytes.blit_string s !pos t.chunk.block t.chunk.block_len take;
        t.chunk.block_len <- t.chunk.block_len + take;
        pos := !pos + take
      end
    done

  let finalize ?(length = 32) t =
    if t.finalized then invalid_arg "Blake3.Incremental.finalize: already finalized";
    t.finalized <- true;
    let o =
      List.fold_left
        (fun o left ->
          parent_output ~key_words:t.key_words ~flags:t.base_flags left (chaining_value t.v o))
        (chunk_node t) t.cv_stack
    in
    root_output_bytes t.v o length
end
