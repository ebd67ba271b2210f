(* Measurement plumbing for the benchmark: a monotonic clock, sample
   buffers with percentiles, an in-memory span recorder and the JSON
   result line. Nothing here touches the program under test. *)

let now_us () = Int64.to_float (Monotonic_clock.now ()) /. 1e3

(* --- samples --- *)

module Samples = struct
  type t = { mutable data : float array; mutable n : int }

  let create () = { data = Array.make 1024 0.0; n = 0 }

  let add t v =
    if t.n = Array.length t.data then begin
      let bigger = Array.make (2 * t.n) 0.0 in
      Array.blit t.data 0 bigger 0 t.n;
      t.data <- bigger
    end;
    t.data.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n

  (* Nearest-rank percentile: the smallest sample with at least [p] of
     all samples at or below it. *)
  let percentile t p =
    if t.n = 0 then nan
    else begin
      let a = Array.sub t.data 0 t.n in
      Array.sort compare a;
      let rank = int_of_float (Float.ceil (p *. float_of_int t.n)) in
      a.(max 0 (min (t.n - 1) (rank - 1)))
    end

  let median t = percentile t 0.5
end

(* The 99th percentile is a tail only with at least ten samples beyond
   it; the workloads run enough whole rounds to guarantee that. *)
let p99_min_samples = 1000

(* --- host state --- *)

(* On a shared host, allocation-heavy code runs up to twice as slowly,
   for seconds to minutes at a time, while neighbours contend for the
   machine; a pure integer loop barely moves. Raw timings of the same
   code then spread by up to half their median between runs minutes
   apart. The probe below times a fixed loop that allocates small
   short-lived arrays and boxed integers; of the loops tried, its time
   tracked the program's hashing and Ed25519 most closely. The
   workloads run it every few signatures and report each timing scaled
   by [host_ref_us /. probe]: microseconds on a host where the probe
   takes [host_ref_us], about what it takes here when the host is
   quiet.

   The probe shares the program's heap, so it must not pay for the
   program's garbage: the loop runs in chunks that each fit in the
   minor heap, and an untimed [Gc.minor ()] before every chunk empties
   the heap and runs the major slice the program's promotions are
   owed. No collection then falls inside a timed chunk. The program can
   still move the probe through the cache and memory state it leaves
   behind, but not through how much it allocates. *)
let host_ref_us = 1000.0

let probe_iters = 6000

(* Minor-heap words one probe iteration allocates: two 16-element
   arrays (17 words each), 32 boxed [int32] (3 words each) and the
   [Array.init] closure (4 words), as [Gc.minor_words] counts them. *)
let probe_words_per_iter = 134

let host_probe () =
  let chunk = max 1 (Gc.((get ()).minor_heap_size) * 9 / 10 / probe_words_per_iter) in
  let s = ref 0 and total = ref 0.0 and left = ref probe_iters in
  while !left > 0 do
    let n = min chunk !left in
    Gc.minor ();
    let t0 = now_us () in
    for _ = 1 to n do
      let a = Array.init 16 (fun i -> Int32.of_int (i * !s)) in
      let b = Array.map (fun x -> Int32.logxor x 0x5a5a5a5al) a in
      s := !s + Int32.to_int b.(3)
    done;
    total := !total +. (now_us () -. t0);
    left := !left - n
  done;
  ignore (Sys.opaque_identity !s);
  !total

(* --- spans --- *)

(* [Call] spans wrap a call the workload makes; [Replay] spans re-run
   the inputs of a call whose inner layers the program hides through
   a lower module's public function; [Probe] spans time a layer the
   workload does not use, on the workload's own inputs, after its
   timed phase. *)
type kind = Call | Replay | Probe

type span = {
  id : int;
  parent : int;  (** 0 = none *)
  req : int;  (** signature index, or 0 for background work *)
  name : string;
  t0 : float;
  t1 : float;
  units : int;  (** the span covers this many calls of its layer *)
  kind : kind;
  segment : int;  (** the host-scaling segment it ran in *)
}

module Spans = struct
  let on = ref false
  let next_id = ref 0
  let spans : span list ref = ref []

  (* Host factor (probe / host_ref_us) of each segment. *)
  let segment = ref 0
  let factors : (int, float) Hashtbl.t = Hashtbl.create 64

  let fresh_id () =
    incr next_id;
    !next_id

  let record ?(parent = 0) ?(req = 0) ?(units = 1) ?(kind = Call) ?id name t0 t1 =
    if !on then begin
      let id = match id with Some i -> i | None -> fresh_id () in
      spans := { id; parent; req; name; t0; t1; units; kind; segment = !segment } :: !spans
    end

  (* Time [f ()] as one span; returns its result and the span id. *)
  let timed ?parent ?req ?units ?kind name f =
    let id = fresh_id () in
    let t0 = now_us () in
    let r = f () in
    let t1 = now_us () in
    record ?parent ?req ?units ?kind ~id name t0 t1;
    (r, id)

  let factor sp = Option.value (Hashtbl.find_opt factors sp.segment) ~default:1.0

  (* Host-scaled per-call value of every span named [name], in the
     given scale (1.0 = microseconds). *)
  let values ?(scale = 1.0) name =
    let s = Samples.create () in
    List.iter
      (fun sp ->
        if sp.name = name then
          Samples.add s ((sp.t1 -. sp.t0) *. scale /. factor sp /. float_of_int (max 1 sp.units)))
      !spans;
    s

  let median ?scale name = Samples.median (values ?scale name)

  let kind_name = function Call -> "call" | Replay -> "replay" | Probe -> "probe"

  let write path =
    let oc = open_out path in
    output_string oc "id\tparent\treq\tname\tkind\tstart_us\tend_us\tunits\thost_factor\n";
    List.iter
      (fun sp ->
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%s\t%.3f\t%.3f\t%d\t%.4f\n" sp.id sp.parent sp.req sp.name
          (kind_name sp.kind) sp.t0 sp.t1 sp.units (factor sp))
      (List.rev !spans);
    close_out oc
end

(* --- result line --- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " fields)
