(* The host's current speed, read from a fixed piece of the benchmark's own
   CPU work, and the scaling that takes it out of a measurement.

   On a shared host the speed of a core drifts by half or more over tens
   of seconds, with the load of its neighbours: the same simulator run
   reads 1.5M events/s in one minute and 2.5M the next. A measurement of
   CPU-bound work taken beside a probe of this reference work, and scaled
   by the probe's time, reads the same in both minutes. The reference is
   code of the benchmark, not of the program, so no change to the program
   moves it. *)

(* The reference work, in three parts that a CPU-bound program leans on
   in different measure: arithmetic and branches on a binary min-heap of
   4096 floats that stays in the first-level cache; short-lived
   allocation, which streams through the minor heap; and random reads and
   writes over a 32 MiB array, which miss every cache. Each part takes a
   few milliseconds on this benchmark's 2-vCPU host. *)
let heap = Float.Array.make 4097 0.

let xorshift x =
  let x = x lxor ((x lsl 13) land 0xFFFFFFFF) in
  let x = x lxor (x lsr 17) in
  x lxor ((x lsl 5) land 0xFFFFFFFF)

let heap_work ops =
  let size = ref 0 and x = ref 0x2545F491 and acc = ref 0. in
  let push v =
    incr size;
    let i = ref !size in
    while !i > 1 && Float.Array.get heap (!i / 2) > v do
      Float.Array.set heap !i (Float.Array.get heap (!i / 2));
      i := !i / 2
    done;
    Float.Array.set heap !i v
  in
  let pop () =
    let top = Float.Array.get heap 1 in
    let last = Float.Array.get heap !size in
    decr size;
    let i = ref 1 and sifting = ref true in
    while !sifting do
      let c = 2 * !i in
      if c > !size then sifting := false
      else begin
        let c =
          if c < !size && Float.Array.get heap (c + 1) < Float.Array.get heap c
          then c + 1
          else c
        in
        if Float.Array.get heap c < last then begin
          Float.Array.set heap !i (Float.Array.get heap c);
          i := c
        end
        else sifting := false
      end
    done;
    Float.Array.set heap !i last;
    top
  in
  let next () =
    x := xorshift !x;
    float_of_int !x
  in
  for _ = 1 to 4000 do
    push (next ())
  done;
  for _ = 1 to ops do
    push (next ());
    acc := !acc +. pop ()
  done;
  !acc

let alloc_work ops =
  let acc = ref 0 in
  for k = 1 to ops do
    let l = List.init 8 (fun i -> (i, k)) in
    acc := List.fold_left (fun a (i, k) -> a + i + k) !acc l
  done;
  !acc

let big = Array.make (4 * 1024 * 1024) 1

let memory_work ops =
  let x = ref 0x2545F491 and acc = ref 0 in
  let mask = Array.length big - 1 in
  for _ = 1 to ops do
    x := xorshift !x;
    let i = !x land mask in
    acc := !acc + big.(i);
    big.(i) <- !acc land 7
  done;
  !acc

let work () =
  ignore (Sys.opaque_identity (heap_work 60_000));
  ignore (Sys.opaque_identity (alloc_work 40_000));
  ignore (Sys.opaque_identity (memory_work 300_000))

(* Milliseconds the reference work took: the median of three timings. *)
let probe () =
  let once () =
    let t0 = Unix.gettimeofday () in
    work ();
    (Unix.gettimeofday () -. t0) *. 1e3
  in
  let a = once () in
  let b = once () in
  let c = once () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)

(* The reference host: one on which [probe] reads [nominal_ms]. *)
let nominal_ms = 16.0

(* A rate measured while the probe read [ref_ms], as it would read on the
   reference host; a CPU-bound rate scales with the host's speed. *)
let scale_rate ~ref_ms rate = rate *. ref_ms /. nominal_ms

(* A time of CPU-bound work, likewise. *)
let scale_time ~ref_ms t = t *. nominal_ms /. ref_ms

(* [step k] for k = 0, 1, ... while [more k], with a probe before the
   first step and after each one. Each result comes paired with the mean
   of the probes on either side of it. *)
let paired ~more step =
  let rec go k before acc =
    if not (more k) then List.rev acc
    else
      let v = step k in
      let after = probe () in
      go (k + 1) after ((v, (before +. after) /. 2.) :: acc)
  in
  go 0 (probe ()) []
