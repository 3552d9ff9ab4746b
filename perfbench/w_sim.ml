(* sim-binsearch-1024: the discrete-event simulator running BinarySearch
   at N=1024 under Figure 9's aggregate load, one request per 10 units.
   There is no I/O, so the whole run is the cost per event of the engine,
   its priority queue, the metrics accumulator and the protocol handler.
   Times below are simulated units. Grant latency is each request's wait
   until its grant (responsiveness comes in whole units here, so its
   quantiles would not move), read at the live runtime's default of 1 ms
   per unit. Throughput and set-up time are CPU-bound and are scaled to
   the reference host by a probe on each side of each repetition. *)

module Engine = Tr_sim.Engine
module Metrics = Tr_sim.Metrics
module Quantile = Tr_stats.Quantile
module Runner = Tokenring.Runner

let n = 1024
let serves = 50_000
let ms_per_unit = 1.0

let protocol =
  (Tokenring.Registry.find_exn "binsearch").Tokenring.Registry.protocol

let config seed =
  {
    (Engine.default_config ~n ~seed) with
    Engine.workload =
      Tr_sim.Workload.Global_poisson { mean_interarrival = 10. };
  }

type rep = {
  ref_ms : float;  (** The host-speed probe around this repetition. *)
  setup_s : float;
  wall_s : float;
  outcome : Runner.outcome;
  alloc_words : float;
  major_collections : int;
}

let alloc_words (s : Gc.stat) =
  s.minor_words +. s.major_words -. s.promoted_words

(* Set-up is building the engine and every node's state, the part of
   [Runner.run] before the first event; it is timed on its own. *)
let one_rep spans ~id ~seed =
  let (module P) = protocol in
  let module E = Engine.Make (P) in
  let cfg = config seed in
  let t0 = Unix.gettimeofday () in
  ignore (E.create cfg);
  let t1 = Unix.gettimeofday () in
  let gc0 = Gc.quick_stat () in
  let t2 = Unix.gettimeofday () in
  let outcome = Runner.run protocol cfg ~stop:(Engine.After_serves serves) in
  let t3 = Unix.gettimeofday () in
  let gc1 = Gc.quick_stat () in
  Option.iter
    (fun spans ->
      Spans.add spans ~name:"sim.engine_create" ~id ~start:t0 ~stop:t1 ();
      Spans.add spans ~name:"sim.runner_run" ~id ~start:t2 ~stop:t3 ())
    spans;
  {
    ref_ms = Float.nan;
    setup_s = t1 -. t0;
    wall_s = t3 -. t2;
    outcome;
    alloc_words = alloc_words gc1 -. alloc_words gc0;
    major_collections = gc1.major_collections - gc0.major_collections;
  }

(* Repetitions with seeds derived from the run's seed, until [seconds]
   have passed (at least three), each paired with the host-speed probes
   on either side of it. *)
let pass ?spans ~seed ~seconds () =
  let t0 = Unix.gettimeofday () in
  Hostspeed.paired
    ~more:(fun k -> k < 3 || Unix.gettimeofday () -. t0 < seconds)
    (fun k -> one_rep spans ~id:k ~seed:((seed * 1000) + k))
  |> List.map (fun (rep, ref_ms) -> { rep with ref_ms })

let fi = float_of_int
let metrics rep = rep.outcome.Runner.metrics
let served rep = Metrics.serves (metrics rep)
let per_serve rep x = x /. fi (Stdlib.max 1 (served rep))

let end_to_end reps =
  let f g = List.map g reps in
  let wait q rep =
    Quantile.quantile (Metrics.waiting_quantiles (metrics rep)) q
  in
  let messages rep =
    let m = metrics rep in
    Metrics.token_messages m + Metrics.control_messages m
  in
  let rate x rep = Hostspeed.scale_rate ~ref_ms:rep.ref_ms (x /. rep.wall_s) in
  [
    ("grants_per_s", "1/s", f (fun rep -> rate (fi (served rep)) rep));
    ("grant_p50_ms", "ms", f (fun rep -> wait 0.5 rep *. ms_per_unit));
    ("grant_p99_ms", "ms", f (fun rep -> wait 0.99 rep *. ms_per_unit));
    ( "frames_per_grant",
      "count",
      f (fun rep -> per_serve rep (fi (messages rep))) );
    ( "events_per_s",
      "1/s",
      f (fun rep -> rate (fi rep.outcome.Runner.events) rep) );
    ("recovery_p50_units", "units", f (wait 0.5));
    ( "setup_s",
      "s",
      f (fun rep -> Hostspeed.scale_time ~ref_ms:rep.ref_ms rep.setup_s) );
  ]

(* The unscaled throughput and the probe, for the human-readable lines. *)
let unscaled reps =
  let f g = List.map g reps in
  [
    ( "unscaled.events_per_s",
      "1/s",
      f (fun rep -> fi rep.outcome.Runner.events /. rep.wall_s) );
    ("unscaled.setup_s", "s", f (fun rep -> rep.setup_s));
    ("host.reference_ms", "ms", f (fun rep -> rep.ref_ms));
  ]

let run ~seed ~seconds ~trace (r : Report.t) spans =
  (* One CPU for the whole run, so the probes time the core the
     repetitions ran on. *)
  ignore (Tr_net_rt.Readiness.pin_cpu (Tr_net_rt.Readiness.ncpus () - 1));
  let untraced = pass ~seed ~seconds () in
  let log2n = log (fi n) /. log 2. in
  List.iter
    (fun rep ->
      let mean = Tr_stats.Summary.mean (Metrics.responsiveness (metrics rep)) in
      Report.check r "sim-binsearch-1024: serves reach the target"
        (served rep >= serves);
      Report.check r
        (Printf.sprintf
           "sim-binsearch-1024: mean responsiveness <= log2 N = %.0f" log2n)
        (mean <= log2n);
      Report.tally r ~attempted:serves
        ~failed:(Stdlib.max 0 (serves - served rep)))
    untraced;
  let e2e = end_to_end untraced in
  List.iter
    (fun (name, unit_, v) -> Report.add r ~name ~unit_ v)
    (e2e @ unscaled untraced);
  if trace then begin
    let per g = List.map (fun rep -> per_serve rep (g rep)) untraced in
    Report.add r ~name:"sim.events_per_serve" ~unit_:"count"
      (per (fun rep -> fi rep.outcome.Runner.events));
    Report.add r ~name:"sim.alloc_words_per_event" ~unit_:"words"
      (List.map
         (fun rep -> rep.alloc_words /. fi rep.outcome.Runner.events)
         untraced);
    Report.add r ~name:"sim.major_collections" ~unit_:"count"
      (List.map (fun rep -> fi rep.major_collections) untraced);
    Report.add r ~name:"proto.token_msgs_per_serve" ~unit_:"count"
      (per (fun rep -> fi (Metrics.token_messages (metrics rep))));
    Report.add r ~name:"proto.control_msgs_per_serve" ~unit_:"count"
      (per (fun rep -> fi (Metrics.control_messages (metrics rep))));
    Report.add r ~name:"proto.search_forwards_per_serve" ~unit_:"count"
      (per (fun rep -> fi (Metrics.search_forwards (metrics rep))));
    let traced = pass ~spans ~seed ~seconds () in
    Some (e2e, end_to_end traced)
  end
  else None
