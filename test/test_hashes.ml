open Dsig_hashes

let check_hex = Alcotest.(check string)

(* FIPS 180-4 known-answer tests; these validate the computed constants
   end to end. *)
let test_sha256_vectors () =
  check_hex "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex "");
  check_hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex "abc");
  check_hex "two-block"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha256_incremental () =
  let msg = String.init 1000 (fun i -> Char.chr (i mod 251)) in
  let one_shot = Sha256.digest msg in
  (* feed in ragged pieces *)
  List.iter
    (fun sizes ->
      let ctx = Sha256.init () in
      let off = ref 0 in
      List.iter
        (fun n ->
          let take = min n (String.length msg - !off) in
          Sha256.feed ctx (String.sub msg !off take);
          off := !off + take)
        sizes;
      Sha256.feed ctx (String.sub msg !off (String.length msg - !off));
      Alcotest.(check string) "incremental = one-shot" one_shot (Sha256.finalize ctx))
    [ [ 1000 ]; [ 1; 999 ]; [ 63; 64; 65; 100 ]; [ 500; 500 ]; List.init 100 (fun _ -> 10) ]

let test_sha2_constants () =
  (* Spot-check the computed constant tables against published values
     (FIPS 180-4 §4.2.2/§4.2.3): first and last round constants and the
     first initial hash value. *)
  Alcotest.(check int) "K256[0]" 0x428a2f98 Sha2_constants.k256.(0);
  Alcotest.(check int) "K256[1]" 0x71374491 Sha2_constants.k256.(1);
  Alcotest.(check int) "K256[63]" 0xc67178f2 Sha2_constants.k256.(63);
  Alcotest.(check int) "H256[0]" 0x6a09e667 Sha2_constants.h256.(0);
  Alcotest.(check int) "H256[7]" 0x5be0cd19 Sha2_constants.h256.(7);
  Alcotest.(check int64) "K512[0]" 0x428a2f98d728ae22L Sha2_constants.k512.(0);
  Alcotest.(check int64) "H512[0]" 0x6a09e667f3bcc908L Sha2_constants.h512.(0)

let test_sha512_vectors () =
  check_hex "abc"
    "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
    (Sha512.hex "abc");
  check_hex "empty"
    "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
    (Sha512.hex "")

let test_blake3_empty_prefix () =
  (* The first 11 bytes of BLAKE3("") are externally validated (official
     test vectors, recalled offline); a single compression produces the
     whole 32-byte output, so agreement on 88 bits implies the
     compression function and its inputs are correct. The full value is
     pinned as a golden regression vector. *)
  let d = Blake3.hex "" in
  check_hex "empty prefix (external)" "af1349b9f5f9a1a6a0404d" (String.sub d 0 22);
  check_hex "empty full (golden)"
    "af1349b9f5f9a1a6a0404dea36dcc9499bcb25c9adc112b7cc9a93cae41f3262" d

let test_blake3_structure () =
  (* XOF prefix property: a longer output extends a shorter one. *)
  let msg = "dsig reproduction" in
  let short = Blake3.digest ~length:32 msg in
  let long = Blake3.digest ~length:131 msg in
  check_hex "xof prefix" short (String.sub long 0 32);
  Alcotest.(check int) "xof length" 131 (String.length long);
  (* multi-chunk inputs exercise the tree *)
  let big = String.init 5000 (fun i -> Char.chr (i mod 256)) in
  Alcotest.(check int) "big ok" 32 (String.length (Blake3.digest big));
  (* chunk-boundary sensitivity *)
  let a = Blake3.digest (String.make 1024 'x') in
  let b = Blake3.digest (String.make 1025 'x') in
  Alcotest.(check bool) "boundary differs" false (a = b)

let test_blake3_modes () =
  let key = String.make 32 'k' in
  let plain = Blake3.digest "msg" in
  let keyed = Blake3.keyed ~key "msg" in
  let derived = Blake3.derive_key ~context:"dsig test" "msg" in
  Alcotest.(check bool) "keyed differs" false (plain = keyed);
  Alcotest.(check bool) "derive differs" false (plain = derived);
  Alcotest.(check bool) "derive/keyed differ" false (keyed = derived);
  Alcotest.check_raises "bad key size" (Invalid_argument "Blake3: key must be 32 bytes")
    (fun () -> ignore (Blake3.keyed ~key:"short" "msg"))

let test_aes_sbox () =
  (* Published S-box spot values (FIPS 197 figure 7). *)
  Alcotest.(check int) "S(0x00)" 0x63 Aes_core.sbox.(0x00);
  Alcotest.(check int) "S(0x01)" 0x7c Aes_core.sbox.(0x01);
  Alcotest.(check int) "S(0x53)" 0xed Aes_core.sbox.(0x53);
  Alcotest.(check int) "S(0xff)" 0x16 Aes_core.sbox.(0xff);
  (* S-box is a permutation *)
  let seen = Array.make 256 false in
  Array.iter (fun v -> seen.(v) <- true) Aes_core.sbox;
  Alcotest.(check bool) "permutation" true (Array.for_all Fun.id seen)

let test_gf_mul () =
  (* Example from FIPS 197 §4.2: {57} x {83} = {c1} *)
  Alcotest.(check int) "57*83" 0xc1 (Aes_core.gf_mul 0x57 0x83);
  Alcotest.(check int) "57*13" 0xfe (Aes_core.gf_mul 0x57 0x13)

let test_haraka_shapes () =
  let x32 = String.init 32 Char.chr and x64 = String.init 64 Char.chr in
  Alcotest.(check int) "h256 out" 32 (String.length (Haraka.haraka256 x32));
  Alcotest.(check int) "h512 out" 32 (String.length (Haraka.haraka512 x64));
  Alcotest.(check bool) "h256 deterministic" true
    (Haraka.haraka256 x32 = Haraka.haraka256 x32);
  Alcotest.check_raises "h256 size" (Invalid_argument "Haraka.haraka256: input must be 32 bytes")
    (fun () -> ignore (Haraka.haraka256 "short"));
  Alcotest.(check int) "40 round constants" 40 (Array.length Haraka.round_constants)

let test_blake3_incremental () =
  (* incremental = one-shot across chunk/block boundaries and feeding
     patterns, plain and keyed *)
  let sizes = [ 0; 1; 63; 64; 65; 1023; 1024; 1025; 2048; 3000; 5000 ] in
  List.iter
    (fun n ->
      let msg = String.init n (fun i -> Char.chr ((i * 7) mod 251)) in
      let one_shot = Blake3.digest ~length:47 msg in
      List.iter
        (fun piece ->
          let inc = Blake3.Incremental.create () in
          let off = ref 0 in
          while !off < n do
            let take = min piece (n - !off) in
            Blake3.Incremental.feed inc (String.sub msg !off take);
            off := !off + take
          done;
          Alcotest.(check string)
            (Printf.sprintf "n=%d piece=%d" n piece)
            one_shot
            (Blake3.Incremental.finalize ~length:47 inc))
        [ 1; 13; 64; 1000; 4096 ])
    sizes;
  (* keyed mode *)
  let key = String.init 32 Char.chr in
  let msg = String.make 3333 'k' in
  let inc = Blake3.Incremental.create ~key () in
  Blake3.Incremental.feed inc (String.sub msg 0 100);
  Blake3.Incremental.feed inc (String.sub msg 100 3233);
  Alcotest.(check string) "keyed incremental" (Blake3.keyed ~key msg)
    (Blake3.Incremental.finalize inc);
  (* double finalize rejected *)
  let inc = Blake3.Incremental.create () in
  ignore (Blake3.Incremental.finalize inc);
  Alcotest.check_raises "double finalize"
    (Invalid_argument "Blake3.Incremental.finalize: already finalized") (fun () ->
      ignore (Blake3.Incremental.finalize inc))

(* --- reference Haraka from the naive AES round --- *)

(* One AES round from the fused-table [Aes_core.column], keyed with
   [rc], for comparison with [Aes_core.round_naive]. *)
let column_round (st : Aes_core.state) ~rc : Aes_core.state =
  let k = Aes_core.state_of_string rc 0 in
  Array.init 4 (fun c ->
      Aes_core.column st.(c) st.((c + 1) mod 4) st.((c + 2) mod 4) st.((c + 3) mod 4) lxor k.(c))

(* Haraka composed from arrays: two naive AES rounds per lane and an
   explicit unpacklo/unpackhi mix on 32-bit words, the structure the
   library implements on int lanes. *)
let unpacklo (a : Aes_core.state) (b : Aes_core.state) = [| a.(0); b.(0); a.(1); b.(1) |]
let unpackhi (a : Aes_core.state) (b : Aes_core.state) = [| a.(2); b.(2); a.(3); b.(3) |]

let aes2_naive st rc0 rc1 = Aes_core.round_naive (Aes_core.round_naive st ~rc:rc0) ~rc:rc1

let feed_forward (s : Aes_core.state) x off =
  let orig = Aes_core.state_of_string x off in
  Aes_core.string_of_state (Array.mapi (fun i w -> w lxor orig.(i)) s)

let reference_haraka256 x =
  let rc i = Haraka.round_constants.(i) in
  let s0 = ref (Aes_core.state_of_string x 0) and s1 = ref (Aes_core.state_of_string x 16) in
  for r = 0 to 4 do
    let a = aes2_naive !s0 (rc (4 * r)) (rc ((4 * r) + 1)) in
    let b = aes2_naive !s1 (rc ((4 * r) + 2)) (rc ((4 * r) + 3)) in
    s0 := unpacklo a b;
    s1 := unpackhi a b
  done;
  feed_forward !s0 x 0 ^ feed_forward !s1 x 16

let reference_haraka512 x =
  let rc i = Haraka.round_constants.(i) in
  let s = Array.init 4 (fun lane -> Aes_core.state_of_string x (16 * lane)) in
  for r = 0 to 4 do
    for lane = 0 to 3 do
      s.(lane) <- aes2_naive s.(lane) (rc ((8 * r) + (2 * lane))) (rc ((8 * r) + (2 * lane) + 1))
    done;
    let t0 = unpacklo s.(0) s.(1) and u0 = unpackhi s.(0) s.(1) in
    let t1 = unpacklo s.(2) s.(3) and u1 = unpackhi s.(2) s.(3) in
    s.(0) <- unpackhi u0 u1;
    s.(1) <- unpacklo u0 u1;
    s.(2) <- unpackhi t0 t1;
    s.(3) <- unpacklo t0 t1
  done;
  let b lane = feed_forward s.(lane) x (16 * lane) in
  String.sub (b 0) 8 8 ^ String.sub (b 1) 8 8 ^ String.sub (b 2) 0 8 ^ String.sub (b 3) 0 8

(* --- known-answer vectors, recorded from the array-based
   implementation that preceded the int-lane Haraka and the in-place
   BLAKE3 compression; inputs are bytes i mod 251 --- *)

let pattern n = String.init n (fun i -> Char.chr (i mod 251))
let hex = Dsig_util.Bytesutil.to_hex

let test_haraka_vectors () =
  check_hex "haraka256 pattern" "e9fc24c6d5decd57a4104f0ce26535be9445335ea7e46c1b6748071459320355" (hex (Haraka.haraka256 (pattern 32)));
  check_hex "haraka256 ff" "70fd4ffbf12a4c3976a4146c949a1c806d3a857f4bac88b8400a28afdc4f8c4f" (hex (Haraka.haraka256 (String.make 32 '\xff')));
  check_hex "haraka512 pattern" "0e2da5301da8142b230e92a0439b7818a2227b1c4edbe81780d8d51e82978b7c" (hex (Haraka.haraka512 (pattern 64)));
  check_hex "haraka512 ff" "89ba43440867451a251ebe37311e3377217e20b5b006d05443c0b5cb5803e16c" (hex (Haraka.haraka512 (String.make 64 '\xff')));
  (* the padded short-input path, 18- and 16-byte outputs *)
  List.iter
    (fun (n, want) ->
      check_hex (Printf.sprintf "digest haraka %d B, 18 B out" n) want
        (hex (Hash.digest Hash.Haraka ~length:18 (pattern n)));
      check_hex (Printf.sprintf "digest haraka %d B, 16 B out" n) (String.sub want 0 32)
        (hex (Hash.digest Hash.Haraka ~length:16 (pattern n))))
    [
    (0, "a9d564ea17d541051aca04a7c42899e02a3e");
    (1, "3a69f7ee7ddc7776a9a98aed11c9b8a27bc2");
    (18, "5bef9d2d83865e34e469703a76e693ba7a2d");
    (31, "e9fc24c6d5decd57a4104f0ce26535be9445");
    ]

(* (input length, digest, keyed, derive_key), each a 131-byte XOF
   output; the 18-byte output must be its prefix. *)
let blake3_vectors =
  [
    (0, "af1349b9f5f9a1a6a0404dea36dcc9499bcb25c9adc112b7cc9a93cae41f3262e00f03e7b69af26b7faaf09fcd333050338ddfe085b8cc869ca98b206c08243a26f5487789e8f660afe6c99ef9e0c52b92e7393024a80459cf91f476f9ffdbda7001c22e159b402631f277ca96f2defdf1078282314e763699a31c5363165421cce14d",
     "638a2cb6fa37bc325457ec45c8a4204c92b6b3071b02742da2b710a2169a1b7add43f055e515c7ae6b186cf91a5724c9bf6bd5fec035f68763ee54ef3c9b4317982bae5d9481b065174bc040d62feabd8bf64d37dc02d22cfc2b815a90be3ea499f7512426e6a6b3688f10b746c1bcf2cdc385bc8776f5ac8df6b30e9ee72c51e28d13",
     "2dae787ce04551f5e948aec14f5c751f73015237edced2d127c9f28f72ebfc20b35c0013881177f033066e2fd0fc3ad3056c429defb0c3e8a12e62272de9176b8bc985a3a25b8df53d5477d111fd4339121474df43e134b9c109106f0b95f201b8f048a56e928bbe497395e5fcbaefaf82594076db05de904e6ae38f386e4adb736521");
    (18, "66a671e4fb354b7fa37d12b506d557f9170c8247494df4591b6a38c4c1ed8cd2d6c48eb1ed1cdbb6e8291b8bd3ae9e73890ed251a07260f8c3f4330e30873140542d77436e4730fd2c2a91da2c11acca7c7932db090022d89b5a598b09f2037b8073ec1818a930bb85e2613a8d081ff9566634c2caa5fec683e824015b261207f78341",
     "981d37ceec5ea4c5e43bcf0e897f99e9e0b44c18544692d8d680a5ea98910ba172dbb7559854df530cd725087d6136f37e6132b4a46aa07fbbe7c32471ca9d3b78a52196cde8bb25900aff8e6e1f9543aa4d586c861f117a86ff02c9024eefd615c2094bddaeb5b0db671b7bde9e5478d9b855e960dedc07b2c1ddbce69adf9ce7398b",
     "021d0a96f5ee66a77f28ce733489546628f8fbe720f3d51906894bf3a762d2d9198e36d15e239df2ff8778d6ba17b5c5d3e18dfbb9d07a4425871be32ac6a8515f5cc1b9296f04c069512ef43c9d056067f9eb2b88c520a97c0568dfbc0a74d07136052031d3c498639e6ee0e03966fd5dd498b300a4fb7672798751c3bccfe8477d96");
    (64, "4eed7141ea4a5cd4b788606bd23f46e212af9cacebacdc7d1f4c6dc7f2511b98fc9cc56cb831ffe33ea8e7e1d1df09b26efd2767670066aa82d023b1dfe8ab1b2b7fbb5b97592d46ffe3e05a6a9b592e2949c74160e4674301bc3f97e04903f8c6cf95b863174c33228924cdef7ae47559b10b294acd660666c4538833582b43f82d74",
     "49aabe49da93d10fd4d7c6e688fda6dbe56999ea05303568fa730ec334a0baf6b8348df27ef7b58d98e720ebe3d46d1c36c5d9618d5f930501a261190819db55b0fd85f297ee756405a3eddf0c00e247606d9e044a6c6a31b9e1ae67a9562f165a6969bcf4f677c493b3fd52f634799495786ced408dfdeb2ae94f6bdc771cc00a8ec4",
     "642409cdd10d6bbcfa990931c7f277b21a0c5f4948503b2dac49defec253a72770b923dfa17843c1633ed3ea64557fc6fc4f7d3eb312fecc4099979bd492c335c40f9b51ca7ea09575c50cca27422c3b47cf712ca8c6824586425301b83ba999ecd957627e8d2827a5426161ee96f98904564f910e793226832a4b63d6c3215712b471");
    (65, "de1e5fa0be70df6d2be8fffd0e99ceaa8eb6e8c93a63f2d8d1c30ecb6b263dee0e16e0a4749d6811dd1d6d1265c29729b1b75a9ac346cf93f0e1d7296dfcfd4313b3a227faaaaf7757cc95b4e87a49be3b8a270a12020233509b1c3632b3485eef309d0abc4a4a696c9decc6e90454b53b000f456a3f10079072baaf7a981653221f2c",
     "374389956c0fb71796cdb06acca5c1d04240de56ca98362d30e81f28b9f4227db5412074851ace61dfd7c058b008499b10f31b5622a7d894e3c9fd5524a6583ab7c580496eb771b66ea6d70123ad6fc8cfd8eb527744017fff0badb5cff0ff61cba68f33be6f589ce4f9158a712b7fac585cce792417d7f30cae21e5a3a32180e64a38",
     "df7636e18f7ba403ad9b8fc962f2fd6e1ffd98e6fd2223e440f5a9eb479c8afbde45440eabc5cf42a43c3d18733d38664b3fc454e6efa0a7bbee00c79768f68e412a2a7b59a50aaf746f55c7e93e1ff9f4fd7131b320b812be456c26ce329c57eee3c40fe04509f1ce959d64899a1fd88364c6352a1d6b2a9aea20609ca14b0e749d85");
    (1024, "42214739f095a406f3fc83deb889744ac00df831c10daa55189b5d121c855af71cf8107265ecdaf8505b95d8fcec83a98a6a96ea5109d2c179c47a387ffbb404756f6eeae7883b446b70ebb144527c2075ab8ab204c0086bb22b7c93d465efc57f8d917f0b385c6df265e77003b85102967486ed57db5c5ca170ba441427ed9afa684e",
     "dc2d85965207789c7e51c1ef55cb82b6fd12a9c8b01f533e6516415de1a90ad924d939039f9be44b3fe551b46fec26d99e0a1df76dd44d32b69306a63c73234b9db0753773d594ba1bc424cb6e30ffed78d0cbf5509650353969482d6bd34fe2986ecc940d01a59ec0541ee6c1d104a4bcc6c98d2e7d63fac78e8414f2689240498535",
     "490176dfd690451bb94ee68786fe3b8436560cc3a06d079ab4a0be59c2254840b1d52b9b539041c8956777986a557009041b20cc3afce2f355a47d833fdb5faa94a728a71db4cf0e5901ef370a518d82f5a9cabdafddaa54f27833132a5834bafa99e036a41c7505f201bb301e7da931e3e4ebdec66745ee82eaf2d031569d48d8d7b6");
    (1025, "d00278ae47eb27b34faecf67b4fe263f82d5412916c1ffd97c8cb7fb814b8444f4c4a22b4b399155358a994e52bf255de60035742ec71bd08ac275a1b51cc6bfe332b0ef84b409108cda080e6269ed4b3e2c3f7d722aa4cdc98d16deb554e5627be8f955c98e1d5f9565a9194cad0c4285f93700062d9595adb992ae68ff12800ab67a",
     "19f659503dc609526cfe1153f03ac01e5c5c7cff5a8784e66a94cc2ad66ea83439127383028d9e50ddf1c3cfa7ef9c40609c5d371966a55f245321485460c20ee2c428001cf4cd6fbf1a8926047c55a64bf9ba3a30123a2f5b32e12fa50c65450a70c278a44fb7d2cc24422a6fe000bf8bf2ffbe6870f0f742f40c5feb4968f26c7479",
     "981eba7d0b2c8ae1ad1b22d9da4db5288a9468da3742e0a8fead2b1d74a1014c1e4c2b0c3f9ff47bed2fefef83966c37b55a73475f16371726db2dd66a8bc7bce60e1435f68e849114826a60ccf627a353d2d756fe8ac652b2c3ec9b2cb373103e2d8ce71d274f691dcc9dcb90e149c3a20acbdab0dbd86286e778b929cef92757dd9b");
    (2049, "5f4d72f40d7a5f82b15ca2b2e44b1de3c2ef86c426c95c1af0b687952256303096de31d71d74103403822a2e0bc1eb193e7aecc9643a76b7bbc0c9f9c52e8783aae98764ca468962b5c2ec92f0c74eb5448d519713e09413719431c802f948dd5d90425a4ecdadece9eb178d80f26efccae630734dff63340285adec2aed3b51073ad3",
     "7156e499243ba6b1c1372f0ad76ce649fb2828b5bfe77bde3112c5c5140e0fea7eb38e9691cdaf78cb5e45e5b39d44c40d5157315213768397e7013cc0314d6a3e54828711056fbd38d8ff7c9262612bc80b0c73565d5051fbcb17f8a320c545662fbb054c2f408e79602bce8847607cc5cce4a89539b4022f16625a6c7e220280bda5",
     "8d76f082497b0bfc694366f7f709bcb46ce938a225a6da1a08514eaf9b494cf83774e2e9d6f62eb39cf1db11c1e1831c40a4848720c80a7f83568a57e1cb068b398c27bd7cf711b79ca84ce0391ec1797c2a21553bbf1b3a042bcf077c5accb455101ae2afa8d073dd2afc302fc6133f61a008bc497fe480052ae3d61d4c22c3c866a1");
  ]

let test_blake3_vectors () =
  let key = String.init 32 (fun i -> Char.chr ((7 * i) + 3)) in
  let context = "dsig kat context" in
  List.iter
    (fun (n, plain, keyed, derived) ->
      let msg = pattern n in
      List.iter
        (fun (mode, want, f) ->
          List.iter
            (fun length ->
              check_hex (Printf.sprintf "%s %d B, %d B out" mode n length)
                (String.sub want 0 (2 * length))
                (hex (f ~length msg)))
            [ 18; 131 ])
        [
          ("digest", plain, fun ~length m -> Blake3.digest ~length m);
          ("keyed", keyed, fun ~length m -> Blake3.keyed ~key ~length m);
          ("derive_key", derived, fun ~length m -> Blake3.derive_key ~context ~length m);
        ])
    blake3_vectors

let qcheck_tests =
  let open QCheck in
  let string_n n = string_of_size (Gen.return n) in
  [
    Test.make ~name:"T-table round = naive round" ~count:200
      (pair (string_n 16) (string_n 16))
      (fun (input, rc) ->
        let st = Aes_core.state_of_string input 0 in
        column_round st ~rc = Aes_core.round_naive st ~rc);
    Test.make ~name:"haraka256 = naive-round reference" ~count:200 (string_n 32) (fun x ->
        Haraka.haraka256 x = reference_haraka256 x);
    Test.make ~name:"haraka512 = naive-round reference" ~count:200 (string_n 64) (fun x ->
        Haraka.haraka512 x = reference_haraka512 x);
    Test.make ~name:"haraka short input = padded reference" ~count:200
      (pair (string_of_size Gen.(0 -- 31)) (int_range 1 32))
      (fun (x, length) ->
        let padded = x ^ String.make (31 - String.length x) '\x00' ^ String.make 1 (Char.chr (String.length x)) in
        Hash.digest Hash.Haraka ~length x = String.sub (reference_haraka256 padded) 0 length);
    Test.make ~name:"gf_mul distributes" ~count:300 (triple (int_bound 255) (int_bound 255) (int_bound 255))
      (fun (a, b, c) ->
        Aes_core.gf_mul a (b lxor c) = Aes_core.gf_mul a b lxor Aes_core.gf_mul a c);
    Test.make ~name:"state string roundtrip" ~count:200 (string_n 16) (fun s ->
        Aes_core.string_of_state (Aes_core.state_of_string s 0) = s);
    Test.make ~name:"haraka256 avalanche" ~count:100 (pair (string_n 32) (int_bound 255))
      (fun (s, bitpos) ->
        let flipped =
          String.mapi
            (fun i c ->
              if i = bitpos / 8 then Char.chr (Char.code c lxor (1 lsl (bitpos mod 8))) else c)
            s
        in
        Haraka.haraka256 s <> Haraka.haraka256 flipped);
    Test.make ~name:"sha256 incremental = one-shot" ~count:50
      (pair (string_of_size Gen.(0 -- 300)) (string_of_size Gen.(0 -- 300)))
      (fun (a, b) ->
        let ctx = Sha256.init () in
        Sha256.feed ctx a;
        Sha256.feed ctx b;
        Sha256.finalize ctx = Sha256.digest (a ^ b));
    Test.make ~name:"blake3 incremental random splits" ~count:60
      (pair (string_of_size Gen.(0 -- 4000)) (list_of_size (Gen.int_range 1 8) (int_range 1 999)))
      (fun (msg, cuts) ->
        let inc = Blake3.Incremental.create () in
        let off = ref 0 in
        List.iter
          (fun c ->
            let take = min c (String.length msg - !off) in
            if take > 0 then begin
              Blake3.Incremental.feed inc (String.sub msg !off take);
              off := !off + take
            end)
          cuts;
        Blake3.Incremental.feed inc (String.sub msg !off (String.length msg - !off));
        Blake3.Incremental.finalize inc = Blake3.digest msg);
    Test.make ~name:"blake3 xof prefix property" ~count:50
      (pair (string_of_size Gen.(0 -- 2000)) (pair (int_range 1 64) (int_range 1 64)))
      (fun (s, (l1, l2)) ->
        let lo = min l1 l2 and hi = max l1 l2 in
        String.sub (Blake3.digest ~length:hi s) 0 lo = Blake3.digest ~length:lo s);
    Test.make ~name:"hash algos injective-ish on small inputs" ~count:100
      (pair (string_of_size Gen.(0 -- 40)) (string_of_size Gen.(0 -- 40)))
      (fun (a, b) ->
        QCheck.assume (a <> b);
        List.for_all (fun algo -> Hash.digest algo a <> Hash.digest algo b) Hash.all);
    Test.make ~name:"hash output length honored" ~count:60
      (pair (string_of_size Gen.(0 -- 100)) (int_range 1 100))
      (fun (s, n) ->
        List.for_all (fun algo -> String.length (Hash.digest algo ~length:n s) = n) Hash.all);
    Test.make ~name:"hash truncation consistent" ~count:60 (string_of_size Gen.(0 -- 100))
      (fun s ->
        List.for_all
          (fun algo ->
            Hash.digest algo ~length:18 s = String.sub (Hash.digest algo ~length:32 s) 0 18)
          Hash.all);
  ]

let suites =
  [
    ( "hashes",
      [
        Alcotest.test_case "sha256 vectors" `Quick test_sha256_vectors;
        Alcotest.test_case "sha256 incremental" `Quick test_sha256_incremental;
        Alcotest.test_case "sha2 constants" `Quick test_sha2_constants;
        Alcotest.test_case "sha512 vectors" `Quick test_sha512_vectors;
        Alcotest.test_case "blake3 empty prefix" `Quick test_blake3_empty_prefix;
        Alcotest.test_case "blake3 structure" `Quick test_blake3_structure;
        Alcotest.test_case "blake3 modes" `Quick test_blake3_modes;
        Alcotest.test_case "blake3 incremental" `Quick test_blake3_incremental;
        Alcotest.test_case "aes sbox" `Quick test_aes_sbox;
        Alcotest.test_case "gf_mul" `Quick test_gf_mul;
        Alcotest.test_case "haraka shapes" `Quick test_haraka_shapes;
        Alcotest.test_case "haraka vectors" `Quick test_haraka_vectors;
        Alcotest.test_case "blake3 vectors" `Quick test_blake3_vectors;
      ]
      @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests );
  ]
