(* ring-uds-1024: the ring protocol at N=1024 over Unix-domain sockets,
   every node hosted here on one shard, closed loop with depth 1. Each
   node always wants the token, so there is no protocol wait: the run is
   CPU-bound and measures the per-hop cost of net_rt (transport,
   readiness, wake-ups, the shard loop) and the wire codec. It bypasses
   the service, the apps and chaos. Its times and rates are all CPU-bound,
   so each is scaled to the reference host by a probe on each side of the
   cluster run it comes from. *)

module Cluster = Tr_net_rt.Cluster
module Metrics = Tr_sim.Metrics
module Quantile = Tr_stats.Quantile
module Ring = Tr_proto.Ring
module Codec = Tr_wire.Codec
module Frame = Tr_wire.Frame

let n = 1024

(* The run is CPU-bound, so the unit only scales the latency metrics
   (responsiveness is recorded in units). *)
let unit_s = 1e-4

(* Cluster runs per pass; each is one set-up sample. *)
let reps = 32

type rep = {
  ref_ms : float;  (** The host-speed probe around this run. *)
  t_call : float;
  t_ready : float;  (** When the attach callback ran. *)
  t_return : float;
  report : Cluster.report;
  io : Procio.t option;  (** Kernel syscall delta from ready to return. *)
  cpu_user_s : float;
  cpu_sys_s : float;
  alloc_words : float;
}

let alloc_words (s : Gc.stat) =
  s.minor_words +. s.major_words -. s.promoted_words

let one_run ~seed ~serve_s ?tap () =
  let addrs = Uds.cluster ~n in
  let config =
    {
      (Cluster.default_config ~n ~seed) with
      Cluster.unit_s;
      shards = 1;
      load = Cluster.Closed_loop { depth = 1 };
      stop = Cluster.Duration (serve_s /. unit_s);
      max_wall_s = serve_s +. 60.;
    }
  in
  let at_attach = ref None in
  let attach _control =
    at_attach :=
      Some
        (Unix.gettimeofday (), Procio.read (), Unix.times (), Gc.quick_stat ())
  in
  let t0 = Unix.gettimeofday () in
  let report =
    Cluster.run ?tap ~attach
      ~backend:(Cluster.Sockets { owned = List.init n Fun.id; addrs })
      config
      (module Ring : Tr_sim.Node_intf.PROTOCOL with type msg = Ring.msg)
      Tr_wire.Codecs.ring
  in
  let t1 = Unix.gettimeofday () in
  let io1 = Procio.read () and tm1 = Unix.times () and gc1 = Gc.quick_stat () in
  match !at_attach with
  | None -> failwith "ring-uds-1024: attach never ran"
  | Some (ta, io0, tm0, gc0) ->
      {
        ref_ms = Float.nan;
        t_call = t0;
        t_ready = ta;
        t_return = t1;
        report;
        io =
          (match (io0, io1) with
          | Some before, Some after -> Some (Procio.diff ~before ~after)
          | _ -> None);
        cpu_user_s = tm1.Unix.tms_utime -. tm0.Unix.tms_utime;
        cpu_sys_s = tm1.Unix.tms_stime -. tm0.Unix.tms_stime;
        alloc_words = alloc_words gc1 -. alloc_words gc0;
      }

let fi = float_of_int
let serve_s r = r.t_return -. r.t_ready
let grants r = r.report.Cluster.grants
let per_grant r x = x /. fi (Stdlib.max 1 (grants r))

(* Responsiveness here is about one hop. The live clock's resolution puts
   the exact median of such gaps on a few repeated values, so the median
   comes from the metrics' P2 estimate, which is continuous. The tail is
   spread over many clock steps, and there P2's single marker wanders over
   a run of this length, so p99 is the exact quantile. *)
let resp_p50_ms r =
  let sketches = Metrics.responsiveness_sketches r.report.Cluster.metrics in
  Tr_stats.P2.estimate sketches.Metrics.q50 *. unit_s *. 1e3

let resp_p99_ms r =
  let q = Metrics.responsiveness_quantiles r.report.Cluster.metrics in
  Quantile.quantile q 0.99 *. unit_s *. 1e3

let wait_p50_units r =
  Quantile.quantile (Metrics.waiting_quantiles r.report.Cluster.metrics) 0.5

let setup_s r = r.t_ready -. r.t_call

let end_to_end rep_list =
  let f g = List.map g rep_list in
  let rate x r = Hostspeed.scale_rate ~ref_ms:r.ref_ms (x /. serve_s r) in
  let time g r = Hostspeed.scale_time ~ref_ms:r.ref_ms (g r) in
  [
    ("grants_per_s", "1/s", f (fun r -> rate (fi (grants r)) r));
    ("grant_p50_ms", "ms", f (time resp_p50_ms));
    ("grant_p99_ms", "ms", f (time resp_p99_ms));
    ( "frames_per_grant",
      "count",
      f (fun r -> per_grant r (fi r.report.Cluster.frames_sent)) );
    ( "events_per_s",
      "1/s",
      f (fun r -> rate (fi r.report.Cluster.frames_received) r) );
    ("recovery_p50_units", "units", f (time wait_p50_units));
    ("setup_s", "s", f (time setup_s));
  ]

(* The unscaled times and rates and the probe, for the human-readable
   lines. *)
let unscaled rep_list =
  let f g = List.map g rep_list in
  [
    ("unscaled.grants_per_s", "1/s", f (fun r -> fi (grants r) /. serve_s r));
    ("unscaled.grant_p50_ms", "ms", f resp_p50_ms);
    ("unscaled.grant_p99_ms", "ms", f resp_p99_ms);
    ("unscaled.recovery_p50_units", "units", f wait_p50_units);
    ("unscaled.setup_s", "s", f setup_s);
    ("host.reference_ms", "ms", f (fun r -> r.ref_ms));
  ]

let check_reps (r : Report.t) rep_list =
  List.iter
    (fun rep ->
      let c = rep.report in
      let lost =
        c.Cluster.decode_errors + c.Cluster.resync_skips
        + c.Cluster.frames_dropped
      in
      Report.check r "ring-uds-1024: every node granted at least once per run"
        (c.Cluster.grants >= n);
      Report.check r "ring-uds-1024: no decode errors, resync skips or drops"
        (lost = 0);
      Report.tally r ~attempted:c.Cluster.grants ~failed:lost)
    rep_list

(* Encode and decode the workload's own token frames, ns per frame. *)
let codec_costs msgs =
  let codec = Tr_wire.Codecs.ring in
  let scratch = Codec.scratch () in
  let m = Array.length msgs in
  let encode_frame (src, msg) =
    Codec.encode_frame scratch codec ~src ~channel:Tr_sim.Network.Reliable msg
  in
  let frames = Array.map (fun sm -> Buffer.contents (encode_frame sm)) msgs in
  let encode i = ignore (encode_frame msgs.(i)) in
  let decode i =
    match Frame.decode_exact frames.(i) with
    | Ok view -> (
        match Codec.decode_view codec view with
        | Ok _ -> ()
        | Error _ -> failwith "ring-uds-1024: own frame failed to decode")
    | Error e -> failwith ("ring-uds-1024: own frame failed to parse: " ^ e)
  in
  let enc = Bstats.ns_per_op ~ops:m encode in
  let dec = Bstats.ns_per_op ~ops:m decode in
  let bytes = Array.fold_left (fun a f -> a + String.length f) 0 frames in
  (enc, dec, fi bytes /. fi m)

(* The simulator's cost per token hop for the same ring: the floor a live
   hop is set against. *)
let sim_floor spans ~seed =
  let hops = 500_000 in
  List.init 3 (fun k ->
      let config =
        {
          (Tr_sim.Engine.default_config ~n ~seed:(seed + k)) with
          Tr_sim.Engine.workload = Tr_sim.Workload.Continuous { node = 0 };
        }
      in
      let t0 = Unix.gettimeofday () in
      let o =
        Tokenring.Runner.run
          (module Ring)
          config
          ~stop:(Tr_sim.Engine.After_token_messages hops)
      in
      let t1 = Unix.gettimeofday () in
      Spans.add spans ~name:"sim.runner_run(ring floor)" ~id:(-1) ~start:t0
        ~stop:t1 ();
      let moved = Metrics.token_messages o.Tokenring.Runner.metrics in
      (t1 -. t0) /. fi moved *. 1e9)

(* [reps] cluster runs sharing [seconds], each paired with the host-speed
   probes on either side of it; [each] sees every run as it returns. *)
let pass ?tap ?(each = fun _ _ -> ()) ~seed ~seconds () =
  let serve_s = seconds /. fi reps in
  Hostspeed.paired
    ~more:(fun k -> k < reps)
    (fun k ->
      let rep = one_run ~seed:((seed * 100) + k) ~serve_s ?tap () in
      each k rep;
      rep)
  |> List.map (fun (rep, ref_ms) -> { rep with ref_ms })

let run ~seed ~seconds ~trace (r : Report.t) spans =
  (* One CPU for the whole run: the shard domain inherits it, so the
     probes time the core the cluster ran on. *)
  ignore (Tr_net_rt.Readiness.pin_cpu (Tr_net_rt.Readiness.ncpus () - 1));
  let untraced = pass ~seed ~seconds () in
  check_reps r untraced;
  let e2e = end_to_end untraced in
  List.iter
    (fun (name, unit_, v) -> Report.add r ~name ~unit_ v)
    (e2e @ unscaled untraced);
  if trace then begin
    (* Counters come from the untraced pass: the tap below perturbs
       timing, not the work counted. *)
    let per g = List.map (fun rep -> per_grant rep (g rep)) untraced in
    let layer name unit_ samples = Report.add r ~name ~unit_ samples in
    layer "net_rt.kernel_rw_syscalls_per_grant" "count"
      (List.filter_map
         (fun rep ->
           Option.map (fun io -> per_grant rep (fi (Procio.rw io))) rep.io)
         untraced);
    layer "net_rt.counted_rw_syscalls_per_grant" "count"
      (per (fun rep ->
           let c = rep.report in
           fi (c.Cluster.read_syscalls + c.Cluster.write_syscalls)));
    layer "net_rt.wait_calls_per_grant" "count"
      (per (fun rep -> fi rep.report.Cluster.wait_calls));
    layer "net_rt.user_us_per_grant" "us"
      (per (fun rep -> rep.cpu_user_s *. 1e6));
    layer "net_rt.sys_us_per_grant" "us"
      (per (fun rep -> rep.cpu_sys_s *. 1e6));
    layer "net_rt.cpu_busy_share" "share"
      (List.map
         (fun rep -> (rep.cpu_user_s +. rep.cpu_sys_s) /. serve_s rep)
         untraced);
    layer "net_rt.alloc_words_per_grant" "words"
      (per (fun rep -> rep.alloc_words));
    (* Traced pass: one span per delivery seen by the tap, the gap since
       the previous delivery on the (single) shard. *)
    let stamps = ref (Float.Array.make 65536 0.) and len = ref 0 in
    let captured = Array.make 4096 (0, Ring.Token { stamp = 0 }) in
    let ncap = ref 0 in
    let tap _control ~self msg =
      let now = Unix.gettimeofday () in
      if !len = Float.Array.length !stamps then begin
        let bigger = Float.Array.make (2 * !len) 0. in
        Float.Array.blit !stamps 0 bigger 0 !len;
        stamps := bigger
      end;
      Float.Array.set !stamps !len now;
      incr len;
      if !ncap < Array.length captured then begin
        captured.(!ncap) <- (self, msg);
        incr ncap
      end
    in
    let gaps = ref [] in
    let each k rep =
      Spans.add spans ~name:"net_rt.cluster_run" ~id:k ~start:rep.t_call
        ~stop:rep.t_return ();
      Spans.add spans ~name:"net_rt.setup" ~id:k ~parent:k ~start:rep.t_call
        ~stop:rep.t_ready ();
      for i = 1 to !len - 1 do
        let a = Float.Array.get !stamps (i - 1) in
        let b = Float.Array.get !stamps i in
        Spans.add spans ~name:"net_rt.hop" ~id:k ~parent:k ~start:a ~stop:b ();
        gaps := ((b -. a) *. 1e6) :: !gaps
      done;
      len := 0
    in
    let traced = pass ~tap ~each ~seed ~seconds () in
    let gaps = Bstats.sorted_array !gaps in
    (* The tap's clock steps by about a quarter of a microsecond, a
       hundredth of a hop, and a tenth of the gaps around the median can
       sit on one step: each quantile is the mean over a band of ranks
       around it, wide at the median and narrow in the sparse tail. *)
    let hop_p50 = Bstats.band_mean_sorted gaps 0.5 0.05 in
    Report.add1 r ~name:"net_rt.hop_us_p50" ~unit_:"us" hop_p50;
    Report.add1 r ~name:"net_rt.hop_us_p99" ~unit_:"us"
      (Bstats.band_mean_sorted gaps 0.99 0.001);
    let enc, dec, bytes =
      Spans.time spans ~name:"wire.codec_bench" ~id:(-1) (fun () ->
          codec_costs (Array.sub captured 0 (Stdlib.max 1 !ncap)))
    in
    layer "wire.encode_ns" "ns" enc;
    layer "wire.decode_ns" "ns" dec;
    Report.add1 r ~name:"wire.bytes_per_frame" ~unit_:"bytes" bytes;
    let floor = sim_floor spans ~seed in
    layer "sim.floor_ns_per_hop" "ns" floor;
    let floor_ns = Bstats.median floor in
    Printf.printf
      "live hop p50 %.2f us over sim floor %.1f ns/hop: %.1fx the floor\n"
      hop_p50 floor_ns
      (hop_p50 *. 1e3 /. floor_ns);
    let kernel = Report.value r "net_rt.kernel_rw_syscalls_per_grant" in
    let counted = Report.value r "net_rt.counted_rw_syscalls_per_grant" in
    Printf.printf
      "kernel read+write syscalls per grant %.3f vs counted %.3f: %.3f \
       uncounted\n"
      kernel counted (kernel -. counted);
    Some (e2e, end_to_end traced)
  end
  else None
