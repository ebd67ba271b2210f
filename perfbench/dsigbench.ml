(* The DSig benchmark. One process, one loopback TCP connection: the
   main thread is the client signer, the background plane and the
   verifier; Tcpnet's receiver thread moves frames from the socket to an
   inbox the main thread drains. Three workloads (see README.md):

   - hinted:   Config.default, 8-byte messages, every announcement
               delivered before its signatures arrive (fast path);
   - unhinted: the same, but announcements never reach the verifier and
               its EdDSA cache is off (slow path, paper §8.2);
   - catchup:  signers with 16-key batches, and each round a fresh
               verifier is sent a burst of their announcements
               (batch-verified with deliver_many) and signatures over
               messages of 64 B to 8 KiB.

   Untraced runs (--trace 0) print the end-to-end metrics. Traced runs
   (--trace 1) time the calls into each module and print the per-layer
   metrics. *)

open Dsig
module Eddsa = Dsig_ed25519.Eddsa
module Merkle = Dsig_merkle.Merkle
module Wots = Dsig_hbss.Wots
module Hash = Dsig_hashes.Hash
module Rng = Dsig_util.Rng
module Tcpnet = Dsig_tcpnet.Tcpnet
open Meter

(* ---------------------------------------------------------------- *)
(* Checks                                                           *)

let failures = ref []

let check what ok = if not ok then failures := what :: !failures

(* ---------------------------------------------------------------- *)
(* Transport: the one loopback connection                           *)

module Inbox = struct
  type t = { q : (float * Tcpnet.message) Queue.t; mu : Mutex.t; cv : Condition.t }

  let create () = { q = Queue.create (); mu = Mutex.create (); cv = Condition.create () }

  (* runs on the receiver thread *)
  let push t m =
    let at = now_us () in
    Mutex.lock t.mu;
    Queue.add (at, m) t.q;
    Condition.signal t.cv;
    Mutex.unlock t.mu

  let pop t =
    Mutex.lock t.mu;
    while Queue.is_empty t.q do
      Condition.wait t.cv t.mu
    done;
    let x = Queue.pop t.q in
    Mutex.unlock t.mu;
    x
end

type net = {
  server : Tcpnet.server;
  client : Tcpnet.client;
  inbox : Inbox.t;
  mutable frames : int;  (** counted while tracing *)
  mutable bytes : int;
}

let open_net () =
  let inbox = Inbox.create () in
  let server = Tcpnet.listen ~port:0 ~on_message:(Inbox.push inbox) () in
  let client = Tcpnet.connect ~port:(Tcpnet.port server) () in
  { server; client; inbox; frames = 0; bytes = 0 }

let close_net net =
  Tcpnet.close net.client;
  Tcpnet.stop net.server

(* Send one frame; returns the time the send started. *)
let send net ~req m =
  let t0 = now_us () in
  Tcpnet.send net.client m;
  if !Spans.on then begin
    Spans.record ~req "tcpnet.send" t0 (now_us ());
    net.frames <- net.frames + 1;
    net.bytes <- net.bytes + 4 + String.length (Tcpnet.encode_message m)
  end;
  t0

(* Wait for the next frame; [sent] is its send start. *)
let recv net ~req ~sent =
  let at, m = Inbox.pop net.inbox in
  Spans.record ~req "tcpnet.one_way" sent at;
  m

(* ---------------------------------------------------------------- *)
(* Values the benchmark computes apart from the program             *)

let log2 x =
  let rec go x k = if x <= 1 then k else go (x / 2) (k + 1) in
  go x 0

(* W-OTS+ over a 128-bit digest in base d: l1 message digits and l2
   checksum digits, enough to write the largest checksum l1 (d - 1). *)
let wots_digits ~d =
  let l1 = (128 + log2 d - 1) / log2 d in
  let rec digits x k = if x = 0 then k else digits (x / d) (k + 1) in
  (l1, digits (l1 * (d - 1)) 0)

(* Signature size from the paper's Fig. 4 layout: magic/version/scheme/
   hash 4, signer id 8, batch id 8, public seed 32, nonce 16, l chain
   elements of n bytes, the batch Merkle proof (4-byte index and one
   32-byte sibling per level) and the 64-byte EdDSA root signature. *)
let layout_sig_bytes ~d ~n ~batch =
  let l1, l2 = wots_digits ~d in
  4 + 8 + 8 + 32 + 16 + ((l1 + l2) * n) + 4 + (32 * log2 batch) + 64

(* Offset of the W-OTS+ elements in that layout. *)
let elements_offset = 4 + 8 + 8 + 32 + 16

(* Chain steps a verifier hashes to complete every chain from the
   signed digits to the top: d - 1 - digit summed over the l1 message
   digits (the checksum) and the l2 checksum digits. *)
let chain_steps ~d digest =
  let w = log2 d in
  let l1, l2 = wots_digits ~d in
  let bit k = (Char.code digest.[k / 8] lsr (7 - (k mod 8))) land 1 in
  let digit i =
    let v = ref 0 in
    for j = 0 to w - 1 do
      v := (!v lsl 1) lor bit ((i * w) + j)
    done;
    !v
  in
  let checksum = ref 0 in
  for i = 0 to l1 - 1 do
    checksum := !checksum + (d - 1 - digit i)
  done;
  let steps = ref !checksum in
  let c = ref !checksum in
  for _ = 1 to l2 do
    steps := !steps + (d - 1 - (!c mod d));
    c := !c / d
  done;
  !steps

let flip_bit s bit =
  let b = Bytes.of_string s in
  let i = bit / 8 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
  Bytes.to_string b

(* ---------------------------------------------------------------- *)
(* Per-run accumulators                                             *)

(* A timing series and, for each sample, the host factor it is scaled
   by. *)
type series = { v : Samples.t; f : Samples.t }

let series () = { v = Samples.create (); f = Samples.create () }

let scaled s =
  let out = Samples.create () in
  for i = 0 to Samples.count s.v - 1 do
    Samples.add out (s.v.Samples.data.(i) /. s.f.Samples.data.(i))
  done;
  out

(* A run's measurements. Its time is cut into segments at [boundary]
   calls: the host is probed at both ends of a segment and every timing
   taken in it is divided by the mean of the two factors. Probe time is
   not round time. *)
type acc = {
  sign : series;
  verify : series;
  e2e : series;
  round_ms : Samples.t;  (** host-scaled *)
  mutable attempted : int;
  mutable accepted : int;
  mutable busy_us : float;  (** round time *)
  mutable scaled_busy_us : float;
  mutable sig_len : int;
  mutable factor : float;  (** probed at the start of the current segment *)
  mutable seg_start : float;
}

let new_acc () =
  {
    sign = series ();
    verify = series ();
    e2e = series ();
    round_ms = Samples.create ();
    attempted = 0;
    accepted = 0;
    busy_us = 0.0;
    scaled_busy_us = 0.0;
    sig_len = 0;
    factor = 1.0;
    seg_start = 0.0;
  }

let host_factor () = host_probe () /. host_ref_us

(* Signatures per segment on hinted and unhinted: short enough that a
   change of host state mid-round shows, long enough that probing costs
   little. *)
let segment_sigs = 16

let start_segment acc =
  acc.factor <- host_factor ();
  acc.seg_start <- now_us ()

(* Leave the time since the last boundary (input generation) out. *)
let resume acc = acc.seg_start <- now_us ()

(* End the current segment and start the next; returns the segment's
   host factor. *)
let boundary acc =
  let t = now_us () in
  let f = host_factor () in
  let m = (acc.factor +. f) /. 2.0 in
  List.iter
    (fun s ->
      while Samples.count s.f < Samples.count s.v do
        Samples.add s.f m
      done)
    [ acc.sign; acc.verify; acc.e2e ];
  acc.busy_us <- acc.busy_us +. (t -. acc.seg_start);
  acc.scaled_busy_us <- acc.scaled_busy_us +. ((t -. acc.seg_start) /. m);
  Hashtbl.replace Spans.factors !Spans.segment m;
  incr Spans.segment;
  acc.factor <- f;
  acc.seg_start <- now_us ();
  m

(* Counters the traced run reports besides span medians. *)
let gc_sign = Samples.create ()
let gc_verify = Samples.create ()
let gc_key = Samples.create ()
let steps_per_verify = Samples.create ()

let minor_words () = if !Spans.on then Gc.minor_words () else 0.0

(* ---------------------------------------------------------------- *)
(* Replays: the inner layers of calls whose internals the program   *)
(* hides, re-run on the same inputs through the lower modules'      *)
(* public functions. Only the traced run replays, after the call.   *)

let wots_params (cfg : Config.t) =
  match cfg.Config.hbss with Config.Wots p -> p | _ -> invalid_arg "W-OTS+ configurations only"

let replay_verify ~parent ~req ~slow (cfg : Config.t) pk msg sg =
  let timed name f = fst (Spans.timed ~parent ~req ~kind:Replay name f) in
  match timed "core.wire_decode" (fun () -> Wire.decode cfg sg) with
  | Error e -> check ("replayed Wire.decode: " ^ e) false
  | Ok w -> (
      match w.Wire.body with
      | Wire.Wots_body s ->
          let p = wots_params cfg in
          let public_seed = w.Wire.public_seed in
          let digest =
            timed "hashes.msg_digest" (fun () ->
                Wots.message_digest p ~public_seed ~nonce:s.Wots.nonce msg)
          in
          Samples.add steps_per_verify (float_of_int (chain_steps ~d:p.Dsig_hbss.Params.Wots.d digest));
          let leaf =
            timed "hbss.wots_recover" (fun () ->
                Wots.recover_public_key_digest ~hash:cfg.Config.hash p ~public_seed s msg)
          in
          (* one chain step per element, on the signature's own chain
             values *)
          let n = p.Dsig_hbss.Params.Wots.n in
          ignore
            (Spans.timed ~parent ~req ~kind:Replay ~units:(Array.length s.Wots.elements)
               "hashes.chain_step" (fun () ->
                 Array.iter (fun e -> ignore (Hash.digest cfg.Config.hash ~length:n e)) s.Wots.elements));
          let root = timed "merkle.compute_root" (fun () -> Merkle.compute_root ~leaf w.Wire.batch_proof) in
          if slow then begin
            let root_msg =
              Batch.root_message ~signer_id:w.Wire.signer_id ~batch_id:w.Wire.batch_id ~root
            in
            check "replayed slow-path Eddsa.verify accepts"
              (timed "ed25519.verify" (fun () -> Eddsa.verify pk root_msg w.Wire.root_sig))
          end
      | _ -> check "W-OTS+ body expected" false)

let announcement_root ~parent (ann : Batch.announcement) =
  let tree, _ =
    Spans.timed ~parent ~kind:Replay "merkle.build" (fun () -> Merkle.build ann.Batch.ann_leaves)
  in
  Batch.root_message ~signer_id:ann.Batch.signer_id ~batch_id:ann.Batch.ann_batch_id
    ~root:(Merkle.root tree)

let replay_deliver ~parent pk (ann : Batch.announcement) =
  let enc = Batch.encode_announcement ann in
  ignore (Spans.timed ~parent ~kind:Replay "core.announce_decode" (fun () -> Batch.decode_announcement enc));
  let msg = announcement_root ~parent ann in
  check "replayed Eddsa.verify accepts the announcement"
    (fst (Spans.timed ~parent ~kind:Replay "ed25519.verify" (fun () -> Eddsa.verify pk msg ann.Batch.root_sig)))

let replay_deliver_many ~parent rng pki (anns : Batch.announcement list) =
  let triples =
    List.map
      (fun (ann : Batch.announcement) ->
        let enc = Batch.encode_announcement ann in
        ignore
          (Spans.timed ~parent ~kind:Replay "core.announce_decode" (fun () -> Batch.decode_announcement enc));
        let msg = announcement_root ~parent ann in
        let pk = Option.get (Pki.allowed pki ~id:ann.Batch.signer_id ~batch:ann.Batch.ann_batch_id) in
        (pk, msg, ann.Batch.root_sig))
      anns
  in
  check "replayed Eddsa.verify_batch accepts"
    (fst
       (Spans.timed ~parent ~kind:Replay ~units:(List.length triples) "ed25519.verify_batch" (fun () ->
            Eddsa.verify_batch rng triples)))

(* Background refill: W-OTS+ key generation (a sample of keys, from the
   benchmark's own seeds), the batch tree and the root signature, which
   EdDSA makes deterministic — so the replay must reproduce the
   announced one. *)
let keygen_sample = 8

let replay_background ~parent rng (cfg : Config.t) sk (ann : Batch.announcement) =
  let p = wots_params cfg in
  for _ = 1 to min keygen_sample cfg.Config.batch_size do
    let seed = Rng.bytes rng 32 in
    ignore
      (Spans.timed ~parent ~kind:Replay "hbss.wots_keygen" (fun () ->
           Wots.generate ~hash:cfg.Config.hash ~cache_chains:cfg.Config.cache_chains p ~seed))
  done;
  let msg = announcement_root ~parent ann in
  check "replayed Eddsa.sign reproduces the announced root signature"
    (fst (Spans.timed ~parent ~kind:Replay "ed25519.sign" (fun () -> Eddsa.sign sk msg))
    = ann.Batch.root_sig)

(* ---------------------------------------------------------------- *)
(* Instrumented calls into the program                              *)

let call_sign ~req signer msg =
  let g0 = minor_words () in
  let t0 = now_us () in
  let sg = Signer.sign signer msg in
  let t1 = now_us () in
  if !Spans.on then begin
    Samples.add gc_sign (Gc.minor_words () -. g0);
    Spans.record ~req "core.sign" t0 t1
  end;
  (sg, t0, t1)

(* Returns the verdict, the verdict time and the span id. *)
let call_verify ~req verifier ~msg sg =
  let g0 = minor_words () in
  let id = Spans.fresh_id () in
  let t0 = now_us () in
  let ok = Verifier.verify verifier ~msg sg in
  let t1 = now_us () in
  if !Spans.on then begin
    Samples.add gc_verify (Gc.minor_words () -. g0);
    Spans.record ~req ~id "core.verify" t0 t1
  end;
  (ok, t0, t1, id)

(* One background step; [Some span_id] when it refilled a batch. *)
let call_background (cfg : Config.t) signer =
  let g0 = minor_words () in
  let id = Spans.fresh_id () in
  let t0 = now_us () in
  let did = Signer.background_step signer in
  let t1 = now_us () in
  if did && !Spans.on then begin
    Samples.add gc_key ((Gc.minor_words () -. g0) /. float_of_int cfg.Config.batch_size);
    Spans.record ~id ~units:1 "core.background_step" t0 t1
  end;
  if did then Some id else None

(* ---------------------------------------------------------------- *)
(* Workload definitions                                             *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  spans_file : string option;
}

(* Every run attempts whole rounds, at least [min_rounds] of them, so
   the 99th percentiles always have ten samples beyond them. *)
let min_rounds = 8

let tamper_samples = 8

type workload = {
  cfg : Config.t;
  setup : unit -> unit -> bool;
      (** start a fresh set-up; the function returned does one step of
          it per call and returns [false] once the workload is ready *)
  round : acc -> int -> unit;  (** run round [k] *)
  setup_reps : int;
  tamper : unit -> unit;  (** after the timed phase *)
  probes : unit -> unit;  (** traced runs only *)
  path_counts : unit -> int * int;  (** fast, slow verifies since setup *)
  expected_paths : acc -> int * int;
  sync_refills : unit -> int;
  announce_bytes : unit -> int;
  e2e_blocking : string list;  (** layers a signature's e2e time passes through *)
}

let bind_signer pki rng id =
  let sk, pk = Eddsa.generate rng in
  Pki.bind pki ~id ~epoch:0 pk;
  sk

(* Tamper checks: a one-bit flip in the message and in the W-OTS+
   elements (and, where the root signature is read, in that signature)
   must be rejected. Positions are seeded. *)
let tamper_check rng (cfg : Config.t) verify pairs ~root_sig =
  let p = wots_params cfg in
  let l1, l2 = wots_digits ~d:p.Dsig_hbss.Params.Wots.d in
  let element_bits = 8 * (l1 + l2) * p.Dsig_hbss.Params.Wots.n in
  Array.iter
    (fun (msg, sg) ->
      let n = String.length sg in
      check "message bit flip rejected"
        (not (verify (flip_bit msg (Rng.int rng (8 * String.length msg))) sg));
      check "W-OTS+ element bit flip rejected"
        (not (verify msg (flip_bit sg ((8 * elements_offset) + Rng.int rng element_bits))));
      if root_sig then
        check "root signature bit flip rejected"
          (not (verify msg (flip_bit sg ((8 * (n - 64)) + Rng.int rng (8 * 64))))))
    pairs

(* hinted / unhinted: one signer, one verifier, one batch of
   signatures per round, the background plane between signatures. *)
let single ~hinted ~seed ~net =
  let cfg = if hinted then Config.default else Config.make ~eddsa_verify_cache:false (Config.wots ~d:4) in
  let batch = cfg.Config.batch_size in
  let msg_rng = Rng.create (Int64.of_int seed) in
  let replay_rng = Rng.create (Int64.of_int (seed + 7_919)) in
  let tamper_rng = Rng.create (Int64.of_int (seed + 104_729)) in
  let outbox = Queue.create () in
  let all_anns = ref [] in
  let state = ref None in
  let last_round = Array.make batch ("", "") in
  let p = wots_params cfg in
  let expected_len = layout_sig_bytes ~d:p.Dsig_hbss.Params.Wots.d ~n:p.Dsig_hbss.Params.Wots.n ~batch in
  (* announcements the background plane produced: delivered before any
     of their signatures on hinted, dropped on unhinted *)
  let place sk pki verifier ~bg_span =
    Queue.iter
      (fun (ann : Batch.announcement) ->
        all_anns := ann :: !all_anns;
        (match bg_span with Some parent when !Spans.on -> replay_background ~parent replay_rng cfg sk ann | _ -> ());
        if hinted then begin
          let sent = send net ~req:0 (Tcpnet.Announcement ann) in
          match recv net ~req:0 ~sent with
          | Tcpnet.Announcement a ->
              let ok, id = Spans.timed "core.deliver" (fun () -> Verifier.deliver verifier a) in
              check "announcement admitted" ok;
              if !Spans.on then
                replay_deliver ~parent:id
                  (Option.get (Pki.allowed pki ~id:a.Batch.signer_id ~batch:a.Batch.ann_batch_id))
                  a
          | _ -> check "announcement frame expected" false
        end)
      outbox;
    Queue.clear outbox
  in
  let setup () =
    let rng = Rng.create (Int64.of_int (seed + 1)) in
    let pki = Pki.create () in
    let sk = bind_signer pki rng 1 in
    let signer =
      Signer.create cfg ~id:1 ~eddsa:sk ~rng:(Rng.split rng)
        ~send:(fun ~dest:_ ann -> Queue.add ann outbox)
        ~verifiers:[ 2 ] ()
    in
    let verifier = Verifier.create cfg ~id:2 ~pki () in
    state := Some (sk, pki, signer, verifier);
    (* one refill per step, until the queue is at S *)
    fun () ->
      Signer.background_step signer
      && begin
           place sk pki verifier ~bg_span:None;
           true
         end
  in
  let get () = Option.get !state in
  let round acc k =
    let sk, pki, signer, verifier = get () in
    let msgs = Array.init batch (fun _ -> Rng.bytes msg_rng 8) in
    resume acc;
    let scaled0 = acc.scaled_busy_us in
    for i = 0 to batch - 1 do
      let req = (k * batch) + i + 1 in
      let sg, t0, t1 = call_sign ~req signer msgs.(i) in
      let sent = send net ~req (Tcpnet.Signed { msg = msgs.(i); signature = sg }) in
      match recv net ~req ~sent with
      | Tcpnet.Signed { msg; signature } ->
          let ok, t2, t3, vid = call_verify ~req verifier ~msg signature in
          Samples.add acc.sign.v (t1 -. t0);
          Samples.add acc.verify.v (t3 -. t2);
          Samples.add acc.e2e.v (t3 -. t0);
          acc.attempted <- acc.attempted + 1;
          if ok then acc.accepted <- acc.accepted + 1;
          check "honest signature accepted" ok;
          check "signature size matches the Fig. 4 layout" (String.length signature = expected_len);
          acc.sig_len <- String.length signature;
          last_round.(i) <- (msg, signature);
          if !Spans.on then begin
            let pk = Option.get (Pki.allowed pki ~id:1 ~batch:0L) in
            replay_verify ~parent:vid ~req ~slow:(not hinted) cfg pk msg signature
          end;
          (* the background plane runs between signatures *)
          let bg = call_background cfg signer in
          if bg <> None then place sk pki verifier ~bg_span:bg;
          if (i + 1) mod segment_sigs = 0 then ignore (boundary acc)
      | _ -> check "signed frame expected" false
    done;
    Samples.add acc.round_ms ((acc.scaled_busy_us -. scaled0) /. 1e3)
  in
  let tamper () =
    let _, _, _, verifier = get () in
    let pairs = Array.init tamper_samples (fun _ -> last_round.(Rng.int tamper_rng batch)) in
    tamper_check tamper_rng cfg (fun m s -> Verifier.verify verifier ~msg:m s) pairs ~root_sig:(not hinted)
  in
  (* layers this workload does not use, timed on its own
     announcements *)
  let probes () =
    let _, pki, _, _ = get () in
    let anns = List.filteri (fun i _ -> i < 16) !all_anns in
    let scratch () = Verifier.create cfg ~id:3 ~pki () in
    if not hinted then begin
      let v = scratch () in
      List.iter
        (fun (ann : Batch.announcement) ->
          let ok, id = Spans.timed ~kind:Probe "core.deliver" (fun () -> Verifier.deliver v ann) in
          check "probe: announcement admitted" ok;
          replay_deliver ~parent:id
            (Option.get (Pki.allowed pki ~id:ann.Batch.signer_id ~batch:ann.Batch.ann_batch_id))
            ann)
        anns
    end;
    let rec chunks = function
      | [] -> []
      | l ->
          let c = List.filteri (fun i _ -> i < 8) l in
          c :: chunks (List.filteri (fun i _ -> i >= 8) l)
    in
    List.iter
      (fun c ->
        let v = scratch () in
        let n, id =
          Spans.timed ~kind:Probe ~units:(List.length c) "core.deliver_many" (fun () ->
              Verifier.deliver_many v c)
        in
        check "probe: deliver_many admits every announcement" (n = List.length c);
        replay_deliver_many ~parent:id replay_rng pki c)
      (chunks anns)
  in
  let path_counts () =
    let _, _, _, v = get () in
    let s = Verifier.stats v in
    (s.Verifier.fast, s.Verifier.slow)
  in
  {
    cfg;
    setup;
    round;
    setup_reps = 3;
    tamper;
    probes;
    path_counts;
    expected_paths = (fun acc -> if hinted then (acc.attempted, 0) else (0, acc.attempted));
    sync_refills =
      (fun () ->
        let _, _, s, _ = get () in
        (Signer.stats s).Signer.sync_refills);
    announce_bytes =
      (fun () ->
        match !all_anns with
        | a :: _ -> String.length (Batch.encode_announcement a)
        | [] -> 0);
    e2e_blocking = [ "core.sign"; "tcpnet.one_way"; "core.verify" ];
  }

(* catchup: 8 signers with 16-key batches. Each round every
   signer signs one batch; a fresh verifier is sent the burst (all
   announcements, then all signatures) and catches up with
   deliver_many and fast-path verifies; then the signers refill. *)
let catchup ~seed ~net =
  let signers_n = 8 in
  let cfg = Config.make ~batch_size:16 ~queue_threshold:16 (Config.wots ~d:4) in
  let batch = cfg.Config.batch_size in
  let per_round = signers_n * batch in
  let msg_rng = Rng.create (Int64.of_int seed) in
  let replay_rng = Rng.create (Int64.of_int (seed + 7_919)) in
  let tamper_rng = Rng.create (Int64.of_int (seed + 104_729)) in
  let outbox = Queue.create () in
  let p = wots_params cfg in
  let expected_len = layout_sig_bytes ~d:p.Dsig_hbss.Params.Wots.d ~n:p.Dsig_hbss.Params.Wots.n ~batch in
  let state = ref None in
  let pending = ref [||] in
  let last_round = Array.make per_round ("", "") in
  let last_verifier = ref None in
  let fast = ref 0 and slow = ref 0 in
  let all_anns = ref [] in
  let take_outbox () =
    let a = Array.of_seq (Queue.to_seq outbox) in
    Queue.clear outbox;
    all_anns := Array.to_list a @ !all_anns;
    a
  in
  let setup () =
    let rng = Rng.create (Int64.of_int (seed + 1)) in
    let pki = Pki.create () in
    let signers = ref [] in
    fast := 0;
    slow := 0;
    (* one signer per step: keys bound, batch generated *)
    fun () ->
      let id = List.length !signers + 1 in
      if id > signers_n then begin
        pending := take_outbox ();
        check "one announcement per signer" (Array.length !pending = signers_n);
        state := Some (pki, Array.of_list (List.rev !signers));
        false
      end
      else begin
        let sk = bind_signer pki rng id in
        let s =
          Signer.create cfg ~id ~eddsa:sk ~rng:(Rng.split rng)
            ~send:(fun ~dest:_ ann -> Queue.add ann outbox)
            ~verifiers:[ 100 ] ()
        in
        Signer.background_fill s;
        signers := (sk, s) :: !signers;
        true
      end
  in
  let sizes = [| 64; 128; 256; 512; 1024; 2048; 4096; 8192 |] in
  let round acc k =
    let pki, signers = Option.get !state in
    let msgs =
      Array.init per_round (fun _ ->
          let lo = sizes.(Rng.int msg_rng (Array.length sizes - 1)) in
          Rng.bytes msg_rng (lo + Rng.int msg_rng (lo + 1)))
    in
    resume acc;
    let base = k * per_round in
    let sigs =
      Array.mapi
        (fun j msg ->
          let sg, t0, t1 = call_sign ~req:(base + j + 1) (snd signers.(j / batch)) msg in
          Samples.add acc.sign.v (t1 -. t0);
          sg)
        msgs
    in
    ignore (boundary acc);
    let verifier = Verifier.create cfg ~id:100 ~pki () in
    let tb = now_us () in
    let ann_sent = Array.map (fun ann -> send net ~req:0 (Tcpnet.Announcement ann)) !pending in
    let sig_sent =
      Array.mapi
        (fun j sg -> send net ~req:(base + j + 1) (Tcpnet.Signed { msg = msgs.(j); signature = sg }))
        sigs
    in
    let anns =
      Array.to_list
        (Array.map
           (fun sent ->
             match recv net ~req:0 ~sent with
             | Tcpnet.Announcement a -> a
             | _ ->
                 check "announcement frame expected" false;
                 raise Exit)
           ann_sent)
    in
    let admitted, dm_id =
      Spans.timed ~units:(List.length anns) "core.deliver_many" (fun () -> Verifier.deliver_many verifier anns)
    in
    check "deliver_many admits exactly the announcements sent" (admitted = Array.length !pending);
    (* replays wait until the burst is through, so they stay out of its
       latencies *)
    let replays = Queue.create () in
    if !Spans.on then Queue.add (fun () -> replay_deliver_many ~parent:dm_id replay_rng pki anns) replays;
    let last = ref tb in
    Array.iteri
      (fun j sent ->
        let req = base + j + 1 in
        match recv net ~req ~sent with
        | Tcpnet.Signed { msg; signature } ->
            let ok, t2, t3, vid = call_verify ~req verifier ~msg signature in
            Samples.add acc.verify.v (t3 -. t2);
            Samples.add acc.e2e.v (t3 -. sent);
            last := t3;
            acc.attempted <- acc.attempted + 1;
            if ok then acc.accepted <- acc.accepted + 1;
            check "honest signature accepted" ok;
            check "signature size matches the Fig. 4 layout" (String.length signature = expected_len);
            acc.sig_len <- String.length signature;
            last_round.(j) <- (msg, signature);
            if !Spans.on then begin
              let pk = Option.get (Pki.allowed pki ~id:(j / batch + 1) ~batch:0L) in
              Queue.add (fun () -> replay_verify ~parent:vid ~req ~slow:false cfg pk msg signature) replays
            end
        | _ -> check "signed frame expected" false)
      sig_sent;
    Queue.iter (fun f -> f ()) replays;
    Samples.add acc.round_ms ((!last -. tb) /. 1e3 /. boundary acc);
    let s = Verifier.stats verifier in
    fast := !fast + s.Verifier.fast;
    slow := !slow + s.Verifier.slow;
    last_verifier := Some verifier;
    (* background plane: every signer refills its batch *)
    pending :=
      Array.concat
        (Array.to_list
           (Array.map
              (fun (sk, signer) ->
                match call_background cfg signer with
                | None ->
                    check "signer refilled after its batch was used" false;
                    [||]
                | Some id ->
                    let fresh = take_outbox () in
                    if !Spans.on then Array.iter (replay_background ~parent:id replay_rng cfg sk) fresh;
                    fresh)
              signers));
    check "one announcement per signer" (Array.length !pending = signers_n);
    ignore (boundary acc)
  in
  let tamper () =
    let v = Option.get !last_verifier in
    let pairs = Array.init tamper_samples (fun _ -> last_round.(Rng.int tamper_rng per_round)) in
    tamper_check tamper_rng cfg (fun m s -> Verifier.verify v ~msg:m s) pairs ~root_sig:false
  in
  let probes () =
    let pki, _ = Option.get !state in
    let v = Verifier.create cfg ~id:3 ~pki () in
    List.iter
      (fun (ann : Batch.announcement) ->
        let ok, id = Spans.timed ~kind:Probe "core.deliver" (fun () -> Verifier.deliver v ann) in
        check "probe: announcement admitted" ok;
        replay_deliver ~parent:id
          (Option.get (Pki.allowed pki ~id:ann.Batch.signer_id ~batch:ann.Batch.ann_batch_id))
          ann)
      (List.filteri (fun i _ -> i < 16) !all_anns)
  in
  {
    cfg;
    setup;
    round;
    setup_reps = 5;
    tamper;
    probes;
    path_counts = (fun () -> (!fast, !slow));
    expected_paths = (fun acc -> (acc.attempted, 0));
    sync_refills =
      (fun () ->
        let _, signers = Option.get !state in
        Array.fold_left (fun a (_, s) -> a + (Signer.stats s).Signer.sync_refills) 0 signers);
    announce_bytes =
      (fun () -> if Array.length !pending > 0 then String.length (Batch.encode_announcement !pending.(0)) else 0);
    e2e_blocking = [ "tcpnet.one_way"; "core.verify" ];
  }

(* ---------------------------------------------------------------- *)
(* Main: set-up, timed phases, result                               *)

let timed_phase w acc ~seconds ~min_rounds ~first_round =
  start_segment acc;
  let k = ref first_round in
  while acc.busy_us < seconds *. 1e6 || !k - first_round < min_rounds do
    w.round acc !k;
    incr k
  done;
  !k

let p99 s =
  if Samples.count s < p99_min_samples then
    failwith (Printf.sprintf "only %d samples: no 99th percentile" (Samples.count s));
  Samples.percentile s 0.99

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 and spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "hinted | unhinted | catchup");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "length of the timed phase");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--spans", Arg.Set_string spans, "file the traced run writes its spans to");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "dsigbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    spans_file = (if !spans = "" then None else Some !spans);
  }

let () =
  let o = parse_args () in
  let net = open_net () in
  let w =
    match o.workload with
    | "hinted" -> single ~hinted:true ~seed:o.seed ~net
    | "unhinted" -> single ~hinted:false ~seed:o.seed ~net
    | "catchup" -> catchup ~seed:o.seed ~net
    | other ->
        prerr_endline ("unknown workload " ^ other);
        exit 2
  in
  let reps = if o.trace then 1 else w.setup_reps in
  (* set-up times in seconds, raw and host-scaled step by step *)
  let setups =
    List.init reps (fun _ ->
        let raw = ref 0.0 and scaled = ref 0.0 in
        let before = ref (host_factor ()) in
        let timed_step f =
          let t0 = now_us () in
          let r = f () in
          let dt = now_us () -. t0 in
          let after = host_factor () in
          raw := !raw +. dt;
          scaled := !scaled +. (dt /. ((!before +. after) /. 2.0));
          before := after;
          r
        in
        let step = timed_step w.setup in
        while timed_step step do
          ()
        done;
        (!raw /. 1e6, !scaled /. 1e6))
  in
  let setup_median pick =
    let s = Samples.create () in
    List.iter (fun x -> Samples.add s (pick x)) setups;
    Samples.median s
  in
  let acc = new_acc () in
  (* signatures made and verified in the timed phases *)
  let tacc = new_acc () in
  let metrics =
    if not o.trace then begin
      let _ = timed_phase w acc ~seconds:o.seconds ~min_rounds ~first_round:0 in
      let fast, slow = w.path_counts () in
      let want_fast, want_slow = w.expected_paths acc in
      check
        (Printf.sprintf "verification paths: %d fast / %d slow, expected %d / %d" fast slow want_fast want_slow)
        (fast = want_fast && slow = want_slow);
      w.tamper ();
      let batch = w.cfg.Config.batch_size in
      let mean_host = Samples.median acc.e2e.f in
      Printf.eprintf
        "unscaled: setup %.3f s, sign p50 %.1f us, verify p50 %.1f us, e2e p50 %.1f us, %.1f sig/s; median host factor %.3f\n"
        (setup_median fst) (Samples.median acc.sign.v) (Samples.median acc.verify.v)
        (Samples.median acc.e2e.v)
        (float_of_int acc.accepted /. (acc.busy_us /. 1e6))
        mean_host;
      let sign = scaled acc.sign and verify = scaled acc.verify and e2e = scaled acc.e2e in
      (* The tails are printed but not part of the result: preemption by
         other tenants' processes moves them by 20% to 100% between runs
         of the same code, far more than a regression bound can allow. *)
      Printf.eprintf "tails: sign_p99_us %.1f us, verify_p99_us %.1f us, e2e_p99_us %.1f us over %d samples\n"
        (p99 sign) (p99 verify) (p99 e2e) (Samples.count e2e);
      [
        ("setup_s", "s", setup_median snd);
        ("sign_p50_us", "us", Samples.median sign);
        ("verify_p50_us", "us", Samples.median verify);
        ("e2e_p50_us", "us", Samples.median e2e);
        ("throughput_per_s", "1/s", float_of_int acc.accepted /. (acc.scaled_busy_us /. 1e6));
        ("catchup_ms", "ms", Samples.median acc.round_ms);
        ("sig_bytes", "B", float_of_int acc.sig_len);
        ("announce_bytes_per_sig", "B", float_of_int (w.announce_bytes ()) /. float_of_int batch);
      ]
    end
    else begin
      (* untraced half, for the tracing overhead and the GC figures *)
      let gc0 = Gc.quick_stat () in
      let k = timed_phase w acc ~seconds:(o.seconds /. 2.0) ~min_rounds:2 ~first_round:0 in
      let gc1 = Gc.quick_stat () in
      let untraced_e2e = Samples.median (scaled acc.e2e) in
      let raw_throughput = float_of_int acc.accepted /. (acc.busy_us /. 1e6) in
      let majors_per_k =
        float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)
        *. 1000.0 /. float_of_int acc.attempted
      in
      let fast0, slow0 = w.path_counts () in
      (* traced half *)
      Spans.on := true;
      let _ = timed_phase w tacc ~seconds:(o.seconds /. 2.0) ~min_rounds ~first_round:k in
      let fast1, slow1 = w.path_counts () in
      let before = host_factor () in
      Spans.segment := -1;
      w.probes ();
      Hashtbl.replace Spans.factors (-1) ((before +. host_factor ()) /. 2.0);
      Spans.on := false;
      let traced_e2e = Samples.median (scaled tacc.e2e) in
      let blocking = List.fold_left (fun a n -> a +. Spans.median n) 0.0 w.e2e_blocking in
      let per_sig v = float_of_int v /. float_of_int tacc.accepted in
      let med name = Spans.median name in
      [
        ("core.sign_us", "us", med "core.sign");
        ("core.sign_p99_us", "us", p99 (Spans.values "core.sign"));
        ("core.verify_us", "us", med "core.verify");
        ("core.verify_p99_us", "us", p99 (Spans.values "core.verify"));
        ("core.wire_decode_us", "us", med "core.wire_decode");
        ("core.background_step_ms", "ms", Spans.median ~scale:1e-3 "core.background_step");
        ("core.deliver_us", "us", med "core.deliver");
        ("core.deliver_many_us_per_ann", "us", med "core.deliver_many");
        ("core.announce_decode_us", "us", med "core.announce_decode");
        ("core.sync_refills", "count", float_of_int (w.sync_refills ()));
        ("core.fast_verifies", "count", float_of_int (fast1 - fast0));
        ("core.slow_verifies", "count", float_of_int (slow1 - slow0));
        ("hbss.wots_keygen_us", "us", med "hbss.wots_keygen");
        ("hbss.wots_recover_us", "us", med "hbss.wots_recover");
        ("hashes.chain_steps", "count", Samples.median steps_per_verify);
        ("hashes.chain_step_ns", "ns", Spans.median ~scale:1e3 "hashes.chain_step");
        ("hashes.msg_digest_us", "us", med "hashes.msg_digest");
        ("merkle.compute_root_us", "us", med "merkle.compute_root");
        ("merkle.build_us", "us", med "merkle.build");
        ("ed25519.sign_us", "us", med "ed25519.sign");
        ("ed25519.verify_us", "us", med "ed25519.verify");
        ("ed25519.verify_batch_us_per_sig", "us", med "ed25519.verify_batch");
        ("tcpnet.send_us", "us", med "tcpnet.send");
        ("tcpnet.one_way_us", "us", med "tcpnet.one_way");
        ("tcpnet.frames", "count", per_sig net.frames);
        ("tcpnet.bytes", "count", per_sig net.bytes);
        ("gc.minor_words_per_verify", "count", Samples.median gc_verify);
        ("gc.minor_words_per_sign", "count", Samples.median gc_sign);
        ("gc.minor_words_per_key", "count", Samples.median gc_key);
        ("gc.major_collections", "count", majors_per_k);
        ("trace.residual_us", "us", traced_e2e -. blocking);
        ("trace.overhead_us", "us", traced_e2e -. untraced_e2e);
        ("host.factor", "ratio", Samples.median acc.e2e.f);
        ("host.raw_setup_s", "s", setup_median fst);
        ("host.raw_verify_p50_us", "us", Samples.median acc.verify.v);
        ("host.raw_throughput_per_s", "1/s", raw_throughput);
      ]
    end
  in
  close_net net;
  Option.iter Spans.write o.spans_file;
  let correct = !failures = [] in
  List.iter (fun f -> prerr_endline ("check failed: " ^ f)) (List.sort_uniq compare !failures);
  let attempted = acc.attempted + tacc.attempted and accepted = acc.accepted + tacc.accepted in
  print_endline (result_line ~correct ~attempted ~failed:(attempted - accepted) metrics);
  exit (if correct then 0 else 1)
