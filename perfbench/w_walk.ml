(* walk-faults: the self-stabilizing random walk, n=16, over Unix-domain
   sockets, under a scenario that opens partition, loss, corruption and
   churn windows. The only workload with faults: it exercises the chaos
   injector, the live chaos shim, the frame decoder's resync path and the
   chaos harness's recovery timing.

   Each derived seed makes three live runs: [Chaos_run.run_live] (recovery
   after the last window clears, injections, corruption caught, unrecovered
   nodes), and two [Cluster.run]s of the walk, one open-loop under the same
   scenario and seed and one closed-loop without faults (see [one_seed]),
   for the set-up time, throughput, frames and grant latency the harness
   does not report. The traced run adds [Chaos_run.run_sim] on the same seeds as the
   floor for recovery. The fault-free throughput is CPU-bound and is
   scaled to the reference host by a probe on each side of each seed's
   runs. Grant latency and recovery under the faults are the walk's own
   timeouts, and set-up (16 sockets, a fifth of a millisecond) does not
   follow the probe, so these are not scaled. *)

module Cluster = Tr_net_rt.Cluster
module CR = Tr_chaos_run.Chaos_run
module Scenario = Tr_chaos.Scenario
module Metrics = Tr_sim.Metrics
module Quantile = Tr_stats.Quantile
module Walk = Tr_proto.Random_walk

let n = 16
let protocol = "random-walk"
let unit_s = 2e-4

(* Any of these faults can destroy the walk's only token, after which no
   frame moves until the walk regenerates one (its no-visit timeout is
   8n(1 + ln n) = 483 units at n=16). The windows are therefore spaced
   560 units apart so each one sees live traffic, and the last is a
   half-and-half partition, which the token is all but certain to cross:
   recovery is timed from a fault that actually happened. *)
let spec =
  "churn:5@40-100+corrupt:0.2@600-660+loss:*>*,0.3@1160-1220\
   +partition:0-7|8-15@1720-1780"

(* The injector's counter for each fault class the scenario opens. *)
let classes = [ "partition_drops"; "loss_drops"; "corruptions"; "churn_drops" ]
let scenario = Scenario.of_string_exn spec
let sockets () =
  Cluster.Sockets { owned = List.init n Fun.id; addrs = Uds.cluster ~n }

type live_run = {
  setup_s : float;
  serve_s : float;
  report : Cluster.report;
  t0 : float;
  t1 : float;
}

type seed_run = {
  faulted : live_run;
  baseline : live_run;
  live : CR.outcome;
  t2 : float;  (** When [run_live] returned; it started at [faulted.t1]. *)
  ref_ms : float;  (** The host-speed probe around this seed's runs. *)
}

(* One [Cluster.run] of the walk over sockets, timed from the call to the
   attach callback (set-up) and from there to the return. *)
let cluster_run ~seed ~load ~chaos ~units =
  let config =
    {
      (Cluster.default_config ~n ~seed) with
      Cluster.unit_s;
      load;
      stop = Cluster.Duration units;
      chaos;
    }
  in
  let ready = ref Float.nan in
  let t0 = Unix.gettimeofday () in
  let report =
    Cluster.run
      ~attach:(fun _ -> ready := Unix.gettimeofday ())
      ~backend:(sockets ()) config
      (module Walk : Tr_sim.Node_intf.PROTOCOL with type msg = Walk.msg)
      Tr_wire.Codecs.random_walk
  in
  let t1 = Unix.gettimeofday () in
  { setup_s = !ready -. t0; serve_s = t1 -. !ready; report; t0; t1 }

(* Grant latency is read under the faults, through the windows and 600
   units past them (long enough to regenerate a token lost in the last
   one), with requests arriving on a fixed Poisson schedule, ten per unit.
   Under a closed loop each node holds one request through an outage while
   the grants between outages grow with the host's speed, so the share of
   requests that wait out a regeneration sat near 1% and the p99 flipped
   between 2 ms and 97 ms from run to run. Under the scenario, throughput
   swings several-fold from seed to seed with how many tokens are lost and
   regenerated, and with open-loop load the frames a grant costs do too, so
   both are read from a fault-free closed-loop baseline run. *)
let one_seed ~seed =
  let faulted =
    cluster_run ~seed
      ~load:(Cluster.Open_loop { mean_interarrival = 0.1 })
      ~chaos:(Some (Tr_chaos.Injector.create ~seed ~n scenario))
      ~units:(Scenario.clear_time scenario +. 600.)
  in
  let live =
    CR.run_live ~protocol ~n ~seed ~spec ~backend:(sockets ()) ~unit_s ()
  in
  let t2 = Unix.gettimeofday () in
  let baseline =
    cluster_run ~seed
      ~load:(Cluster.Closed_loop { depth = 1 })
      ~chaos:None ~units:1000.
  in
  { faulted; baseline; live; t2; ref_ms = Float.nan }

(* Seeds derived from the run's seed, until [seconds] have passed (at
   least five), each paired with the host-speed probes on either side of
   its runs. *)
let pass ~seed ~seconds =
  let start = Unix.gettimeofday () in
  Hostspeed.paired
    ~more:(fun k -> k < 5 || Unix.gettimeofday () -. start < seconds)
    (fun k -> one_seed ~seed:((seed * 1000) + k))
  |> List.map (fun (s, ref_ms) -> { s with ref_ms })

let fi = float_of_int

(* Request-to-grant wait under the faults, ms. *)
let wait_ms q s =
  Quantile.quantile
    (Metrics.waiting_quantiles s.faulted.report.Cluster.metrics)
    q
  *. unit_s *. 1e3

let end_to_end runs =
  let f g = List.map g runs in
  let rate count s =
    Hostspeed.scale_rate ~ref_ms:s.ref_ms
      (fi (count s.baseline.report) /. s.baseline.serve_s)
  in
  [
    ("grants_per_s", "1/s", f (rate (fun c -> c.Cluster.grants)));
    ("grant_p50_ms", "ms", f (wait_ms 0.5));
    ("grant_p99_ms", "ms", f (wait_ms 0.99));
    ( "frames_per_grant",
      "count",
      f (fun s ->
          fi s.baseline.report.Cluster.frames_sent
          /. fi (Stdlib.max 1 s.baseline.report.Cluster.grants)) );
    ("events_per_s", "1/s", f (rate (fun c -> c.Cluster.frames_received)));
    ( "recovery_p50_units",
      "units",
      List.filter_map
        (fun s ->
          if s.live.CR.recovered then Some s.live.CR.recovery_time else None)
        runs );
    ( "setup_s",
      "s",
      List.concat_map (fun s -> [ s.faulted.setup_s; s.baseline.setup_s ]) runs
    );
  ]

(* The unscaled rate and the probe, for the human-readable lines. *)
let unscaled runs =
  let f g = List.map g runs in
  [
    ( "unscaled.grants_per_s",
      "1/s",
      f (fun s -> fi s.baseline.report.Cluster.grants /. s.baseline.serve_s) );
    ("host.reference_ms", "ms", f (fun s -> s.ref_ms));
  ]

let injected_sum runs cls =
  List.fold_left
    (fun a s ->
      a + Option.value ~default:0 (List.assoc_opt cls s.live.CR.injected))
    0 runs

let check (r : Report.t) runs =
  List.iter
    (fun cls ->
      Report.check r
        (Printf.sprintf "walk-faults: fault class %s injected at least once"
           cls)
        (injected_sum runs cls > 0))
    classes;
  Report.check r "walk-faults: corrupt frames detected"
    (List.exists (fun s -> s.live.CR.corrupt_frames_detected > 0) runs);
  List.iter
    (fun s ->
      Report.tally r ~attempted:1
        ~failed:(if s.live.CR.recovered then 0 else 1))
    runs

let run ~seed ~seconds ~trace (r : Report.t) spans =
  (* One CPU for the whole run: the shard domains inherit it, so the
     probes time the core the clusters ran on. *)
  ignore (Tr_net_rt.Readiness.pin_cpu (Tr_net_rt.Readiness.ncpus () - 1));
  let runs = pass ~seed ~seconds in
  check r runs;
  List.iter
    (fun s ->
      if not s.live.CR.recovered then
        Printf.printf "seed %d: not recovered, %d nodes unserved\n"
          s.live.CR.seed s.live.CR.unrecovered_nodes)
    runs;
  let e2e = end_to_end runs in
  List.iter
    (fun (name, unit_, v) -> Report.add r ~name ~unit_ v)
    (e2e @ unscaled runs);
  if trace then begin
    let nruns = fi (List.length runs) in
    List.iter
      (fun cls ->
        Report.add1 r
          ~name:("chaos.injected_per_run." ^ cls)
          ~unit_:"count"
          (fi (injected_sum runs cls) /. nruns))
      classes;
    Report.add r ~name:"wire.corrupt_frames_detected" ~unit_:"count"
      (List.map (fun s -> fi s.live.CR.corrupt_frames_detected) runs);
    Report.add r ~name:"chaos.unrecovered_nodes" ~unit_:"count"
      (List.map (fun s -> fi s.live.CR.unrecovered_nodes) runs);
    let sim =
      List.map
        (fun s ->
          Spans.time spans ~name:"chaos.run_sim" ~id:s.live.CR.seed (fun () ->
              CR.run_sim ~protocol ~n ~seed:s.live.CR.seed ~spec ()))
        runs
    in
    let floor =
      List.filter_map
        (fun (o : CR.outcome) ->
          if o.CR.recovered then Some o.CR.recovery_time else None)
        sim
    in
    Report.add r ~name:"chaos.sim_recovery_p50_units" ~unit_:"units" floor;
    let live = Report.value r "recovery_p50_units" in
    Printf.printf
      "live recovery p50 %.1f units over sim floor %.1f units: %.2fx the \
       floor\n"
      live (Bstats.median floor)
      (live /. Bstats.median floor);
    let traced = pass ~seed ~seconds in
    List.iter
      (fun s ->
        let id = s.live.CR.seed in
        let cluster name (c : live_run) =
          Spans.add spans ~name ~id ~start:c.t0 ~stop:c.t1 ();
          Spans.add spans ~name:"net_rt.setup" ~id ~parent:id ~start:c.t0
            ~stop:(c.t0 +. c.setup_s) ()
        in
        cluster "net_rt.cluster_run(faults)" s.faulted;
        Spans.add spans ~name:"chaos.run_live" ~id ~start:s.faulted.t1
          ~stop:s.t2 ();
        cluster "net_rt.cluster_run(baseline)" s.baseline)
      traced;
    Some (e2e, end_to_end traced)
  end
  else None
