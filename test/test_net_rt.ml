(* Live-runtime tests: loopback cluster smoke, sim-vs-live trend
   cross-validation (ring O(N) vs binsearch O(log N)), token
   regeneration after killing a live node, a socket-backend exchange
   over Unix-domain sockets, and delay-model validation. *)

open Tr_sim
module Cluster = Tr_net_rt.Cluster
module Transport = Tr_net_rt.Transport
module Readiness = Tr_net_rt.Readiness
module Wakeup = Tr_net_rt.Wakeup
module Codecs = Tr_wire.Codecs

(* Fast wall clock: 0.2 ms per unit keeps every run below a second. *)
let quick_config ?(unit_s = 2e-4) ~n ~seed ~load ~stop () =
  { (Cluster.default_config ~n ~seed) with unit_s; load; stop }

(* ---------------- loopback smoke ---------------- *)

let test_loopback_smoke () =
  let config =
    quick_config ~n:4 ~seed:11
      ~load:(Cluster.Closed_loop { depth = 1 })
      ~stop:(Cluster.Grants 300) ()
  in
  let report = Cluster.run_packed config (Codecs.find_exn "binsearch") in
  Alcotest.(check bool) "grants reached" true (report.Cluster.grants >= 300);
  Alcotest.(check int) "zero decode errors" 0 report.Cluster.decode_errors;
  Alcotest.(check string) "backend" "loopback" report.Cluster.backend;
  Alcotest.(check string) "no readiness set on loopback" "none"
    report.Cluster.readiness;
  Alcotest.(check bool)
    "frames flowed" true
    (report.Cluster.frames_received > 0)

(* Every protocol in the registry must at least circulate and serve a
   little load over the live loopback runtime. *)
let test_all_protocols_live () =
  List.iter
    (fun name ->
      let config =
        quick_config ~n:4 ~seed:7
          ~load:(Cluster.Closed_loop { depth = 1 })
          ~stop:(Cluster.Grants 40) ()
      in
      let report = Cluster.run_packed config (Codecs.find_exn name) in
      if report.Cluster.grants < 40 then
        Alcotest.failf "%s: only %d grants live" name report.Cluster.grants;
      if report.Cluster.decode_errors <> 0 then
        Alcotest.failf "%s: %d decode errors" name
          report.Cluster.decode_errors)
    [
      "ring"; "tree"; "suzuki-kasami"; "seq-search"; "binsearch";
      "binsearch-throttle"; "directed"; "binsearch-gc-rotation";
      "binsearch-gc-inverse"; "adaptive"; "pushpull"; "ring-failsafe";
      "binsearch-failsafe"; "ring-membership"; "random-walk";
    ]

(* ---------------- sim-vs-live trend cross-validation ---------------- *)

(* Figure 9's shape must survive the move to wall time: under light
   Poisson load the ring's responsiveness grows linearly with N while
   delegated binary search stays logarithmic. Live scheduling adds
   jitter, so the assertions are about trends and ordering, not exact
   values. *)
let live_responsiveness ~protocol ~n =
  let config =
    quick_config ~n ~seed:42
      ~load:(Cluster.Open_loop { mean_interarrival = 10.0 })
      ~stop:(Cluster.Duration 500.0) ()
  in
  let report = Cluster.run_packed config (Codecs.find_exn protocol) in
  Alcotest.(check int)
    (Printf.sprintf "%s n=%d decode errors" protocol n)
    0 report.Cluster.decode_errors;
  Tr_stats.Summary.mean (Metrics.responsiveness report.Cluster.metrics)

let test_trend_ring_vs_binsearch () =
  let ns = [ 4; 16 ] in
  let ring = List.map (fun n -> live_responsiveness ~protocol:"ring" ~n) ns in
  let bin =
    List.map (fun n -> live_responsiveness ~protocol:"binsearch" ~n) ns
  in
  match (ring, bin) with
  | [ ring4; ring16 ], [ bin4; bin16 ] ->
      (* Ring scales with N: 4x the nodes should cost clearly more than
         half the proportional increase. *)
      Alcotest.(check bool)
        (Printf.sprintf "ring grows with N (%.2f -> %.2f)" ring4 ring16)
        true
        (ring16 > ring4 *. 1.8);
      (* Binsearch stays within a log-factor envelope: going 4 -> 16
         doubles log2 N, so allow at most ~3x. *)
      Alcotest.(check bool)
        (Printf.sprintf "binsearch stays sub-linear (%.2f -> %.2f)" bin4 bin16)
        true
        (bin16 < bin4 *. 3.0);
      (* And at N=16 the ordering is unambiguous. *)
      Alcotest.(check bool)
        (Printf.sprintf "binsearch beats ring at n=16 (%.2f < %.2f)" bin16
           ring16)
        true (bin16 < ring16)
  | _ -> assert false

(* ---------------- failure regeneration, live ---------------- *)

let test_live_regeneration () =
  let n = 5 in
  let victim = 2 in
  let mu = Mutex.create () in
  let histories = Array.make n [] in
  let killed_at_grants = ref (-1) in
  let module F = struct
    (* Observe every processed ring-failsafe token; kill the victim just
       after it handles (and acks) a token once things are warmed up, so
       it crashes while holding and the token is genuinely lost. *)
    let tap (control : Cluster.control) ~self msg =
      match msg with
      | Tr_proto.Failure.Token { gen; stamp } ->
          Mutex.lock mu;
          histories.(self) <- (gen, stamp) :: histories.(self);
          let do_kill = self = victim && stamp > 10 && !killed_at_grants < 0 in
          if do_kill then killed_at_grants := stamp;
          Mutex.unlock mu;
          if do_kill then control.Cluster.kill victim
      | _ -> ()
  end in
  let config =
    (* One shard and a 5 ms unit keep scheduling jitter far below the
       protocol's ack window — the margin is ack_wait minus the 2-unit
       hop+ack round trip, i.e. one unit of wall slack, and at 1 ms
       units a single busy-box hiccup forged a spurious ack timeout
       (peer marked dead, token duplicated) often enough to flake. The
       sparse Poisson load (mirroring the sim-side crash tests) keeps
       watch timers rare, so the induced crash is the only recovery
       trigger and cascading re-regenerations don't muddy the
       histories; 500 units comfortably covers kill (~25), watch
       timeout (60) and post-regeneration circulation. *)
    {
      (Cluster.default_config ~n ~seed:3) with
      unit_s = 5e-3;
      shards = 1;
      load = Cluster.Open_loop { mean_interarrival = 10.0 };
      stop = Cluster.Duration 500.0;
    }
  in
  let report =
    (* A watch timeout far above live scheduling jitter: the only token
       loss — hence the only regeneration — is the induced crash. *)
    Cluster.run ~tap:F.tap config
      (module (val Tr_proto.Failure.make ~timeout:60.0 ())
        : Tr_sim.Node_intf.PROTOCOL with type msg = Tr_proto.Failure.msg)
      Codecs.failure
  in
  Alcotest.(check bool) "victim was killed" true (!killed_at_grants > 0);
  let survivors =
    List.filter (fun i -> i <> victim) (List.init n Fun.id)
  in
  (* The regenerated token must have reached every survivor. (Once it
     circulates, late watch timers armed during the outage can trigger
     further — legitimate — regenerations, so we assert reach, not an
     exact generation count.) *)
  List.iter
    (fun i ->
      let saw_regen = List.exists (fun (g, _) -> g >= 2) histories.(i) in
      if not saw_regen then
        Alcotest.failf "node %d never saw a regenerated (gen >= 2) token" i)
    survivors;
  (* Before the crash there is exactly one generation-1 token, minted
     once at node 0 — so each survivor's gen-1 sightings are strictly
     increasing and no stamp is witnessed twice anywhere. *)
  let gen1 i = List.rev (List.filter_map
    (fun (g, s) -> if g = 1 then Some s else None) histories.(i))
  in
  List.iter
    (fun i ->
      let rec check = function
        | s1 :: (s2 :: _ as rest) ->
            if s2 <= s1 then
              Alcotest.failf "node %d gen-1 stamps not increasing: %d then %d"
                i s1 s2;
            check rest
        | _ -> ()
      in
      check (gen1 i))
    survivors;
  let seen = Hashtbl.create 256 in
  List.iter
    (fun i ->
      List.iter
        (fun s ->
          if Hashtbl.mem seen s then
            Alcotest.failf "gen-1 stamp %d witnessed twice" s;
          Hashtbl.add seen s ())
        (gen1 i))
    survivors;
  (* Liveness after the kill: survivors kept being served. *)
  Alcotest.(check bool)
    (Printf.sprintf "grants continued (%d total)" report.Cluster.grants)
    true
    (report.Cluster.grants > 20)

(* The fail-safe binsearch keeps the full search machinery (gimmes,
   traps, loans) on top of acknowledged rotation, so the live kill test
   asserts recovery (a higher-generation token reaches the survivors)
   and continued service rather than exact token paths. *)
let test_live_failsafe_search_regeneration () =
  let n = 5 in
  let victim = 1 in
  let mu = Mutex.create () in
  let regen_seen = Array.make n false in
  let killed = ref false in
  let tap (control : Cluster.control) ~self msg =
    match msg with
    | Tr_proto.Failsafe_search.Token { gen; stamp } ->
        let do_kill =
          Mutex.lock mu;
          if gen >= 2 then regen_seen.(self) <- true;
          let k = (not !killed) && self = victim && stamp > 10 in
          if k then killed := true;
          Mutex.unlock mu;
          k
        in
        if do_kill then control.Cluster.kill victim
    | _ -> ()
  in
  let config =
    (* Same 5 ms unit as the ring-failsafe test above: the ack window
       leaves one unit of wall slack, and 1 ms units let scheduling
       hiccups forge ack timeouts that mark live peers dead. *)
    {
      (Cluster.default_config ~n ~seed:9) with
      unit_s = 5e-3;
      shards = 1;
      load = Cluster.Open_loop { mean_interarrival = 10.0 };
      stop = Cluster.Duration 500.0;
    }
  in
  let report =
    Cluster.run ~tap config
      (module (val Tr_proto.Failsafe_search.make ~timeout:60.0 ())
        : Tr_sim.Node_intf.PROTOCOL with type msg = Tr_proto.Failsafe_search.msg)
      Codecs.failsafe_search
  in
  Alcotest.(check bool) "victim was killed" true !killed;
  Alcotest.(check int) "zero decode errors" 0 report.Cluster.decode_errors;
  let reached =
    List.filter (fun i -> i <> victim && regen_seen.(i)) (List.init n Fun.id)
  in
  Alcotest.(check bool)
    (Printf.sprintf "regenerated token reached survivors (%d of %d)"
       (List.length reached) (n - 1))
    true
    (List.length reached >= n - 2);
  Alcotest.(check bool)
    (Printf.sprintf "service continued (%d grants)" report.Cluster.grants)
    true
    (report.Cluster.grants > 20)

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

(* One ring-token envelope from node 0. *)
let ring_frame stamp =
  Tr_wire.Codec.encode_envelope Codecs.ring ~src:0 ~channel:Network.Reliable
    (Tr_proto.Ring.Token { stamp })

(* ---------------- sockets backend ---------------- *)

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tr-net-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Unix.unlink (Filename.concat dir f) with _ -> ())
        (try Sys.readdir dir with _ -> [||]);
      try Unix.rmdir dir with _ -> ())
    (fun () -> f dir)

let test_unix_sockets_cluster () =
  with_temp_dir (fun dir ->
      let n = 3 in
      let addrs = Transport.uds_addrs ~dir ~n in
      let config =
        {
          (Cluster.default_config ~n ~seed:5) with
          unit_s = 1e-3;
          load = Cluster.Closed_loop { depth = 1 };
          stop = Cluster.Grants 60;
          max_wall_s = 30.0;
        }
      in
      let report =
        Cluster.run_packed
          ~backend:(Cluster.Sockets { owned = [ 0; 1; 2 ]; addrs })
          config
          (Codecs.find_exn "ring")
      in
      Alcotest.(check bool) "grants reached" true (report.Cluster.grants >= 60);
      Alcotest.(check int) "zero decode errors" 0 report.Cluster.decode_errors;
      Alcotest.(check string) "backend" "unix" report.Cluster.backend)

(* An idle cluster must still stop on time: the tree protocol under no
   load arms no timers and sends nothing once settled, so only the
   [Duration] deadline itself can bound the lead shard's sleep. *)
let test_idle_duration_stop () =
  let config =
    {
      (Cluster.default_config ~n:4 ~seed:1) with
      unit_s = 1e-3;
      shards = 1;
      load = Cluster.No_load;
      stop = Cluster.Duration 50.0;
      max_wall_s = 30.0;
    }
  in
  let check name report =
    Alcotest.(check bool)
      (Printf.sprintf "%s: stopped at %.1f units" name
         report.Cluster.duration_units)
      true
      (report.Cluster.duration_units < 75.0)
  in
  with_temp_dir (fun dir ->
      let addrs = Transport.uds_addrs ~dir ~n:4 in
      check "uds"
        (Cluster.run_packed
           ~backend:(Cluster.Sockets { owned = List.init 4 Fun.id; addrs })
           config (Codecs.find_exn "tree")));
  check "loopback" (Cluster.run_packed config (Codecs.find_exn "tree"))

(* ---------------- clock ---------------- *)

(* [Clock.now] reads CLOCK_MONOTONIC and shares no state between
   domains: each domain's readings never go backwards, and a reading
   another domain published is never ahead of a later local one. *)
let test_clock_monotone_across_domains () =
  let clock = Tr_net_rt.Clock.create ~unit_s:1e-6 () in
  let published = [| Atomic.make 0.0; Atomic.make 0.0 |] in
  let reader me () =
    let last = ref 0.0 and ok = ref true in
    for _ = 1 to 200_000 do
      let seen = Atomic.get published.(1 - me) in
      let v = Tr_net_rt.Clock.now clock in
      if v < !last || v < seen then ok := false;
      last := v;
      Atomic.set published.(me) v
    done;
    !ok
  in
  let other = Domain.spawn (reader 1) in
  let mine = reader 0 () in
  Alcotest.(check bool) "domain 0 never saw time go back" true mine;
  Alcotest.(check bool)
    "domain 1 never saw time go back" true (Domain.join other)

(* ---------------- readiness backends ---------------- *)

let available_backends () =
  List.filter Readiness.available [ Readiness.Epoll; Readiness.Poll ]

(* Register / report / level-trigger / remove, for every backend this
   build can create. *)
let test_readiness_basic () =
  List.iter
    (fun backend ->
      let name = Readiness.backend_name backend in
      let rd = Readiness.create ~backend () in
      let r, w = Unix.pipe () in
      Readiness.set rd r ~read:true ~write:false;
      Alcotest.(check int) (name ^ ": registered") 1 (Readiness.fds_registered rd);
      let cb ~fd:_ ~readable:_ ~writable:_ = () in
      Alcotest.(check int)
        (name ^ ": idle pipe not ready")
        0
        (Readiness.wait rd ~timeout_s:0.0 cb);
      ignore (Unix.write_substring w "x" 0 1);
      Alcotest.(check int)
        (name ^ ": ready after write")
        1
        (Readiness.wait rd ~timeout_s:1.0 cb);
      Alcotest.(check int)
        (name ^ ": level-triggered re-report")
        1
        (Readiness.wait rd ~timeout_s:0.0 cb);
      Readiness.remove rd r;
      Alcotest.(check int)
        (name ^ ": removed fd silent")
        0
        (Readiness.wait rd ~timeout_s:0.0 cb);
      Unix.close r;
      Unix.close w;
      Readiness.close rd)
    (available_backends ())

(* Unknown backend names fail loudly (a forced backend silently
   downgrading would invalidate benchmarks), and the unforced default
   follows the epoll -> poll fallback chain. *)
let test_readiness_config () =
  (match Readiness.backend_of_string "bogus" with
  | Error e ->
      Alcotest.(check bool)
        "error names the choices" true
        (String.length e > 0)
  | Ok _ -> Alcotest.fail "bogus backend accepted");
  (match Readiness.backend_of_string " Poll " with
  | Ok Readiness.Poll -> ()
  | _ -> Alcotest.fail "trimmed/cased parse failed");
  (* The deleted backends are unknown names now, not silent fallbacks. *)
  List.iter
    (fun name ->
      match Readiness.backend_of_string name with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "removed backend %S accepted" name)
    [ "uring"; "select" ];
  let saved = Sys.getenv_opt "TR_READINESS" in
  List.iter
    (fun value ->
      Unix.putenv "TR_READINESS" value;
      match Readiness.default_backend () with
      | exception Failure msg ->
          Alcotest.(check bool)
            (value ^ ": failure names TR_READINESS")
            true
            (String.length msg >= 12 && String.sub msg 0 12 = "TR_READINESS")
      | _ -> Alcotest.failf "TR_READINESS=%s did not fail" value)
    [ "bogus"; "select" ];
  (* An empty value reads as unset, so restoring is always possible. *)
  Unix.putenv "TR_READINESS" (Option.value saved ~default:"");
  if saved = None || saved = Some "" then begin
    let expect =
      if Readiness.available Readiness.Epoll then Readiness.Epoll
      else Readiness.Poll
    in
    Alcotest.(check string)
      "default is first of the fallback chain"
      (Readiness.backend_name expect)
      (Readiness.backend_name (Readiness.default_backend ()))
  end

(* A burst of wakes must fully drain: stale readability would turn every
   later wait into an immediate return and spin the shard at 100% CPU. *)
let test_wakeup_drain () =
  let wake = Wakeup.create () in
  let rd = Readiness.create () in
  Readiness.set rd (Wakeup.read_fd wake) ~read:true ~write:false;
  let cb ~fd:_ ~readable:_ ~writable:_ = () in
  for _ = 1 to 1000 do
    Wakeup.wake wake
  done;
  Alcotest.(check int)
    "wake burst visible" 1
    (Readiness.wait rd ~timeout_s:1.0 cb);
  Wakeup.drain wake;
  Alcotest.(check int)
    "drained pipe is silent" 0
    (Readiness.wait rd ~timeout_s:0.0 cb);
  Wakeup.wake wake;
  Alcotest.(check int)
    "wake after drain still wakes" 1
    (Readiness.wait rd ~timeout_s:1.0 cb);
  Wakeup.drain wake;
  Alcotest.(check int)
    "second drain silent again" 0
    (Readiness.wait rd ~timeout_s:0.0 cb);
  Readiness.remove rd (Wakeup.read_fd wake);
  Readiness.close rd;
  Wakeup.close wake

(* The env var must reach a real transport end-to-end: a sockets
   transport created with no explicit backend under TR_READINESS=poll
   waits in poll. *)
let test_readiness_env_forcing () =
  let saved = Sys.getenv_opt "TR_READINESS" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "TR_READINESS" (Option.value saved ~default:""))
    (fun () ->
      Unix.putenv "TR_READINESS" "poll";
      with_temp_dir (fun dir ->
          let addrs = Transport.uds_addrs ~dir ~n:2 in
          let clock = Tr_net_rt.Clock.create ~unit_s:1e-3 () in
          let t = Transport.sockets ~clock ~n:2 ~owned:[ 0; 1 ] ~addrs () in
          Fun.protect
            ~finally:(fun () -> Transport.close t)
            (fun () ->
              Alcotest.(check string)
                "TR_READINESS=poll forces the transport backend" "poll"
                (Transport.readiness_backend t))))

(* ---------------- backend parity over real sockets ---------------- *)

(* The same closed-loop UDS ring, forced onto each backend in turn: the
   token is unique, so a single-shard run's processed-token sequence is
   deterministic and must be byte-identical across epoll and poll. Also
   pins the observability satellite: the report names the
   forced backend and carries live wait counters. *)
let capture_sockets_ring_log ~backend ~n ~grants ~keep () =
  with_temp_dir (fun dir ->
      let addrs = Transport.uds_addrs ~dir ~n in
      let config =
        {
          (Cluster.default_config ~n ~seed:7) with
          unit_s = 1e-3;
          shards = 1;
          load = Cluster.Closed_loop { depth = 1 };
          stop = Cluster.Grants grants;
          max_wall_s = 30.0;
          readiness = Some backend;
        }
      in
      let mu = Mutex.create () in
      let log = ref [] in
      let count = ref 0 in
      let tap _control ~self (Tr_proto.Ring.Token { stamp }) =
        Mutex.lock mu;
        if !count < keep then begin
          log := Printf.sprintf "%d T %d" self stamp :: !log;
          incr count
        end;
        Mutex.unlock mu
      in
      let report =
        Cluster.run ~tap
          ~backend:(Cluster.Sockets { owned = List.init n Fun.id; addrs })
          config
          (module Tr_proto.Ring)
          Codecs.ring
      in
      (report, String.concat "\n" (List.rev !log)))

let test_backend_parity () =
  let runs =
    List.map
      (fun backend ->
        let report, log =
          capture_sockets_ring_log ~backend ~n:3 ~grants:60 ~keep:40 ()
        in
        let name = Readiness.backend_name backend in
        Alcotest.(check string)
          (name ^ ": report names the backend")
          name report.Cluster.readiness;
        Alcotest.(check int)
          (name ^ ": zero decode errors")
          0 report.Cluster.decode_errors;
        Alcotest.(check bool)
          (name ^ ": waits counted")
          true
          (report.Cluster.wait_calls > 0);
        Alcotest.(check bool)
          (name ^ ": fd gauge positive")
          true
          (report.Cluster.fds_registered > 0);
        Alcotest.(check bool)
          (name ^ ": ready-per-wait sane")
          true
          (report.Cluster.avg_ready_per_wait > 0.0);
        (name, log))
      (available_backends ())
  in
  match runs with
  | [] -> Alcotest.fail "no readiness backend available"
  | (name0, log0) :: rest ->
      List.iter
        (fun (name, log) ->
          Alcotest.(check string)
            (Printf.sprintf "%s token log == %s token log" name name0)
            log0 log)
        rest

(* Regression guard for the teardown race in report assembly: totals
   must come from one coherent [snapshot], not field-by-field re-reads
   of live atomics. Quiescent, two snapshots and the raw counters must
   agree exactly — and [snapshot_of_stats] (the service front-end's
   path, which only holds the bare stats record) must match too. *)
let test_stats_snapshot_coherent () =
  with_temp_dir (fun dir ->
      let n = 2 in
      let addrs = Transport.uds_addrs ~dir ~n in
      let clock = Tr_net_rt.Clock.create ~unit_s:1e-3 () in
      let t = Transport.sockets ~clock ~n ~owned:[ 0; 1 ] ~addrs () in
      let shard = Transport.shard t ~owners:[ 0; 1 ] in
      Fun.protect
        ~finally:(fun () -> Transport.close t)
        (fun () ->
          let got = ref 0 in
          Transport.send t ~src:0 ~dst:1 ~delay:0.0 (ring_frame 1);
          let deadline = Unix.gettimeofday () +. 5.0 in
          while !got < 1 && Unix.gettimeofday () < deadline do
            Transport.wait shard ~timeout_s:0.05 ();
            (* Polling the sender flushes its coalesced outgoing buffer. *)
            Transport.poll t ~owner:0 (fun _view -> ());
            Transport.poll t ~owner:1 (fun _view -> incr got)
          done;
          Alcotest.(check int) "frame arrived" 1 !got;
          let stats = Transport.stats t in
          let a = Transport.snapshot t in
          let b = Transport.snapshot_of_stats stats in
          Alcotest.(check bool) "snapshots agree" true (a = b);
          Alcotest.(check int)
            "frames_sent coherent"
            (Atomic.get stats.Transport.frames_sent)
            a.Transport.snap_frames_sent;
          Alcotest.(check int)
            "frames_received coherent"
            (Atomic.get stats.Transport.frames_received)
            a.Transport.snap_frames_received;
          Alcotest.(check bool)
            "write syscalls counted" true
            (a.Transport.snap_write_syscalls > 0)));
  (* The race itself: a reporter snapshotting while shard domains still
     mutate the counters (and then tear the transport down) must never
     crash or read a torn record. Run a short cluster and snapshot its
     stats from the control block mid-flight, exactly as the service
     front-end does. *)
  with_temp_dir (fun dir ->
      let n = 3 in
      let addrs = Transport.uds_addrs ~dir ~n in
      let config =
        {
          (Cluster.default_config ~n ~seed:13) with
          unit_s = 1e-3;
          shards = 2;
          load = Cluster.Closed_loop { depth = 1 };
          stop = Cluster.Grants 120;
          max_wall_s = 30.0;
        }
      in
      let snaps = ref [] in
      let tap (control : Cluster.control) ~self:_ _msg =
        if List.length !snaps < 50 then
          snaps :=
            Transport.snapshot_of_stats control.Cluster.transport_stats
            :: !snaps
      in
      let report =
        Cluster.run ~tap
          ~backend:(Cluster.Sockets { owned = List.init n Fun.id; addrs })
          config
          (module Tr_proto.Ring)
          Codecs.ring
      in
      Alcotest.(check bool) "cluster ran" true (report.Cluster.grants >= 120);
      Alcotest.(check bool) "mid-run snapshots taken" true (!snaps <> []);
      (* Monotone counters must read monotone across snapshots taken in
         tap order on one shard's timeline... they interleave across
         shards, so just require every snapshot internally sane. *)
      List.iter
        (fun (s : Transport.snapshot) ->
          Alcotest.(check bool)
            "non-negative counters" true
            (s.Transport.snap_frames_sent >= 0
            && s.Transport.snap_frames_received >= 0
            && s.Transport.snap_wait_calls >= 0))
        !snaps)

(* ---------------- shard handles ---------------- *)

(* A handle checks its owners once, at creation: an out-of-range owner
   and a node another handle already holds are refused there (on both
   backends), and a refused handle claims nothing. *)
let test_shard_rejects_bad_owners () =
  let clock = Tr_net_rt.Clock.create ~unit_s:1e-3 () in
  let lb = Transport.loopback ~clock ~n:2 in
  Alcotest.check_raises "loopback: out-of-range owner"
    (Invalid_argument "Transport: shard owner node 2 out of range")
    (fun () -> ignore (Transport.shard lb ~owners:[ 0; 2 ]));
  ignore (Transport.shard lb ~owners:[ 1 ]);
  Alcotest.check_raises "loopback: owner already in a shard"
    (Invalid_argument "Transport.shard: node 1 already belongs to a shard")
    (fun () -> ignore (Transport.shard lb ~owners:[ 0; 1 ]));
  ignore (Transport.shard lb ~owners:[ 0 ]);
  with_temp_dir (fun dir ->
      let n = 3 in
      let addrs = Transport.uds_addrs ~dir ~n in
      let t = Transport.sockets ~clock ~n ~owned:[ 0; 1 ] ~addrs () in
      Fun.protect
        ~finally:(fun () -> Transport.close t)
        (fun () ->
          Alcotest.check_raises "sockets: out-of-range owner"
            (Invalid_argument "Transport: shard owner node -1 out of range")
            (fun () -> ignore (Transport.shard t ~owners:[ 0; -1 ]));
          Alcotest.check_raises "sockets: owner not hosted here"
            (Invalid_argument
               "Transport.sockets: shard owner node 2 is not hosted here")
            (fun () -> ignore (Transport.shard t ~owners:[ 2 ]));
          ignore (Transport.shard t ~owners:[ 1 ]);
          Alcotest.check_raises "sockets: owner already in a shard"
            (Invalid_argument
               "Transport.shard: node 1 already belongs to a shard")
            (fun () -> ignore (Transport.shard t ~owners:[ 0; 1 ]));
          (* The refused handle above must not have claimed node 0. *)
          ignore (Transport.shard t ~owners:[ 0 ])))

(* One shard handle over a two-node UDS transport under each backend. *)
let with_wake_shard f =
  List.iter
    (fun backend ->
      with_temp_dir (fun dir ->
          let n = 2 in
          let addrs = Transport.uds_addrs ~dir ~n in
          let clock = Tr_net_rt.Clock.create ~unit_s:1e-3 () in
          let t =
            Transport.sockets ~readiness:backend ~clock ~n ~owned:[ 0; 1 ]
              ~addrs ()
          in
          Fun.protect
            ~finally:(fun () -> Transport.close t)
            (fun () ->
              f (Readiness.backend_name backend) t
                (Transport.shard t ~owners:[ 0; 1 ]))))
    (available_backends ())

let timed_wait shard ~timeout_s =
  let t0 = Unix.gettimeofday () in
  Transport.wait shard ~timeout_s ();
  Unix.gettimeofday () -. t0

(* The wake pipe is drained by the wait that reports it, and drained
   whole: after a burst of 10k wakes from another domain, the wait that
   absorbs it returns at once, and the next two block for their full
   timeout — stale readability would turn them into a spin. Every pipe
   write is counted as a syscall. *)
let test_wake_burst_no_stale_readability () =
  with_wake_shard (fun name t shard ->
      (* Adopt the owners first, so only the pipe can end a wait. *)
      Transport.wait shard ~timeout_s:0.0 ();
      let writes0 = Atomic.get (Transport.stats t).Transport.write_syscalls in
      Domain.join
        (Domain.spawn (fun () ->
             for _ = 1 to 10_000 do
               Transport.wake shard
             done));
      Alcotest.(check bool)
        (name ^ ": wake writes counted")
        true
        (Atomic.get (Transport.stats t).Transport.write_syscalls - writes0
        >= 10_000);
      let absorb = timed_wait shard ~timeout_s:1.0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: burst wakes the wait (%.3f s)" name absorb)
        true (absorb < 0.5);
      for k = 1 to 2 do
        let dt = timed_wait shard ~timeout_s:0.05 in
        Alcotest.(check bool)
          (Printf.sprintf "%s: wait %d after the burst blocks (%.3f s)" name k
             dt)
          true (dt >= 0.04)
      done)

(* A wake from another domain cuts a long wait short. *)
let test_cross_domain_wake () =
  with_wake_shard (fun name _t shard ->
      Transport.wait shard ~timeout_s:0.0 ();
      let waker =
        Domain.spawn (fun () ->
            Unix.sleepf 0.02;
            Transport.wake shard)
      in
      let dt = timed_wait shard ~timeout_s:1.0 in
      Domain.join waker;
      Alcotest.(check bool)
        (Printf.sprintf "%s: woken in %.3f s" name dt)
        true (dt < 0.1))

(* Loopback handles report deliveries, not owners: one frame to node 5
   among 1024 owners surfaces exactly [5]. *)
let reported shard ~timeout_s =
  let got = ref [] in
  Transport.wait shard ~on_ready:(fun i -> got := i :: !got) ~timeout_s ();
  List.rev !got

let test_loopback_wait_reports_due_owner () =
  let n = 1024 in
  let clock = Tr_net_rt.Clock.create ~unit_s:1e-3 () in
  let t = Transport.loopback ~clock ~n in
  let shard = Transport.shard t ~owners:(List.init n Fun.id) in
  Transport.send t ~src:0 ~dst:5 ~delay:0.0 (ring_frame 1);
  Alcotest.(check (list int)) "only node 5 reported" [ 5 ]
    (reported shard ~timeout_s:0.0);
  Alcotest.(check (list int)) "reported once" [] (reported shard ~timeout_s:0.0)

(* A delayed frame stays unreported until its due time, then is
   reported by the wait that reaches it. *)
let test_loopback_wait_honours_delay () =
  let clock = Tr_net_rt.Clock.create ~unit_s:1e-2 () in
  let t = Transport.loopback ~clock ~n:4 in
  let shard = Transport.shard t ~owners:[ 0; 1; 2; 3 ] in
  Transport.send t ~src:0 ~dst:2 ~delay:2.0 (ring_frame 1);
  Alcotest.(check (list int)) "not due yet" [] (reported shard ~timeout_s:0.0);
  let got = ref [] in
  let deadline = Unix.gettimeofday () +. 1.0 in
  while !got = [] && Unix.gettimeofday () < deadline do
    got := reported shard ~timeout_s:0.1
  done;
  Alcotest.(check (list int)) "reported once due" [ 2 ] !got;
  Alcotest.(check bool) "not before its due time" true
    (Tr_net_rt.Clock.now clock >= 2.0);
  let frames = ref 0 in
  Transport.poll t ~owner:2 (fun _ -> incr frames);
  Alcotest.(check int) "and delivered by poll" 1 !frames

(* Nothing queued: the wait sleeps at most its timeout. *)
let test_loopback_idle_wait_bounded () =
  let clock = Tr_net_rt.Clock.create ~unit_s:1e-3 () in
  let t = Transport.loopback ~clock ~n:2 in
  let shard = Transport.shard t ~owners:[ 0; 1 ] in
  let dt = timed_wait shard ~timeout_s:0.02 in
  Alcotest.(check bool)
    (Printf.sprintf "idle wait returned in %.4f s" dt)
    true (dt < 0.02 +. 0.01)

(* A sockets node can only be polled once its shard handle has waited:
   the wait adopts it into the handle's readiness set. *)
let test_sockets_poll_needs_adoption () =
  with_temp_dir (fun dir ->
      let addrs = Transport.uds_addrs ~dir ~n:2 in
      let clock = Tr_net_rt.Clock.create ~unit_s:1e-3 () in
      let t = Transport.sockets ~clock ~n:2 ~owned:[ 0; 1 ] ~addrs () in
      Fun.protect
        ~finally:(fun () -> Transport.close t)
        (fun () ->
          let shard = Transport.shard t ~owners:[ 0; 1 ] in
          expect_invalid "poll before the first wait" (fun () ->
              Transport.poll t ~owner:0 (fun _ -> ()));
          Transport.wait shard ~timeout_s:0.0 ();
          Transport.poll t ~owner:0 (fun _ -> ())))

(* [syscr + syscw] from /proc/self/io: every read- and write-type
   syscall the process made, counted by the kernel. [None] off Linux. *)
let kernel_rw () =
  match In_channel.with_open_bin "/proc/self/io" In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      let field name =
        List.find_map
          (fun line ->
            match String.split_on_char ':' line with
            | [ k; v ] when String.trim k = name ->
                int_of_string_opt (String.trim v)
            | _ -> None)
          (String.split_on_char '\n' text)
      in
      Option.bind (field "syscr") (fun r ->
          Option.map (fun w -> r + w) (field "syscw"))

(* A counter that leaves work out is a bug: on a two-shard UDS random
   walk under open-loop load (cross-shard wakes, so the wake pipes are
   busy), the transport's read + write counters must match what the
   kernel saw, to within 0.02 syscalls per grant. *)
let test_every_syscall_counted () =
  match kernel_rw () with
  | None -> ()
  | Some _ ->
      with_temp_dir (fun dir ->
          let n = 16 in
          let addrs = Transport.uds_addrs ~dir ~n in
          let config =
            {
              (Cluster.default_config ~n ~seed:5) with
              unit_s = 2e-4;
              shards = 2;
              load = Cluster.Open_loop { mean_interarrival = 0.1 };
              stop = Cluster.Duration 2_000.0;
              max_wall_s = 30.0;
            }
          in
          let before = Option.get (kernel_rw ()) in
          let r =
            Cluster.run_packed
              ~backend:(Cluster.Sockets { owned = List.init n Fun.id; addrs })
              config
              (Codecs.find_exn "random-walk")
          in
          let kernel = Option.get (kernel_rw ()) - before in
          let counted = r.Cluster.read_syscalls + r.Cluster.write_syscalls in
          let grants = Stdlib.max 1 r.Cluster.grants in
          let gap = float_of_int (abs (kernel - counted)) /. float_of_int grants in
          Alcotest.(check bool)
            (Printf.sprintf
               "kernel %d vs counted %d rw syscalls over %d grants (%.4f/grant)"
               kernel counted grants gap)
            true
            (r.Cluster.grants > 100 && gap <= 0.02))

(* Recycled fd numbers. Node 0's transport keeps running while the
   transport hosting node 1 is closed and created again at the same
   address; the kernel hands the freed numbers straight back out, so
   node 0's fd-indexed dispatch must have emptied the slots of the dead
   connections. Frames sent after the reconnect arrive, once each, in
   both directions, and the registered-fd gauge returns to its count
   before the drop. *)
let test_fd_reuse_after_reconnect () =
  List.iter
    (fun backend ->
      let name = Readiness.backend_name backend in
      with_temp_dir (fun dir ->
          let n = 2 in
          let addrs = Transport.uds_addrs ~dir ~n in
          let clock = Tr_net_rt.Clock.create ~unit_s:1e-3 () in
          let sockets owned =
            Transport.sockets ~readiness:backend ~clock ~n ~owned ~addrs ()
          in
          let a = sockets [ 0 ] in
          Fun.protect
            ~finally:(fun () -> Transport.close a)
            (fun () ->
              let sa = Transport.shard a ~owners:[ 0 ] in
              Transport.wait sa ~timeout_s:0.0 ();
              let got_a = ref 0 in
              let pump_a () =
                Transport.wait sa ~timeout_s:0.005 ();
                Transport.poll a ~owner:0 (fun _ -> incr got_a)
              in
              let registered () =
                (Transport.snapshot a).Transport.snap_fds_registered
              in
              let until what cond =
                let deadline = Unix.gettimeofday () +. 5.0 in
                while (not (cond ())) && Unix.gettimeofday () < deadline do
                  pump_a ()
                done;
                Alcotest.(check bool) (name ^ ": " ^ what) true (cond ())
              in
              (* [k] frames each way between node 0 and a fresh peer. *)
              let exchange k =
                let b = sockets [ 1 ] in
                let sb = Transport.shard b ~owners:[ 1 ] in
                Transport.wait sb ~timeout_s:0.0 ();
                let got_b = ref 0 and a0 = !got_a in
                for stamp = 1 to k do
                  Transport.send a ~src:0 ~dst:1 ~delay:0.0 (ring_frame stamp);
                  Transport.send b ~src:1 ~dst:0 ~delay:0.0 (ring_frame stamp)
                done;
                until "frames arrive both ways" (fun () ->
                    Transport.wait sb ~timeout_s:0.0 ();
                    Transport.poll b ~owner:1 (fun _ -> incr got_b);
                    !got_a - a0 >= k && !got_b >= k);
                Alcotest.(check int) (name ^ ": each frame once at 0") k
                  (!got_a - a0);
                Alcotest.(check int) (name ^ ": each frame once at 1") k !got_b;
                b
              in
              let b = exchange 5 in
              let before = registered () in
              (* Wake pipe and listener, plus one connection each way. *)
              Alcotest.(check int) (name ^ ": registered before") 4 before;
              Transport.close b;
              until "dead connections deregistered" (fun () ->
                  registered () = before - 2);
              let b' = exchange 5 in
              until "gauge back to its count" (fun () -> registered () = before);
              Transport.close b';
              let s = Transport.snapshot a in
              Alcotest.(check int) (name ^ ": no resync skips") 0
                s.Transport.snap_resync_skips;
              Alcotest.(check int) (name ^ ": no drops") 0
                s.Transport.snap_frames_dropped)))
    (available_backends ())

(* The steady-state hop allocates next to nothing. On a 64-node one-shard
   UDS ring under closed-loop load, the shard domain's minor words per
   delivery after warm-up (each delivery is one hop and one grant) stay
   under a fixed bound; they read 79 in a dev build (no cross-module
   inlining) and 52 in a release build. Counts, not timings, so runner
   speed cannot move it. *)
let test_hop_allocation () =
  with_temp_dir (fun dir ->
      let n = 64 in
      let addrs = Transport.uds_addrs ~dir ~n in
      let warm = 2_000 and span = 20_000 in
      let count = ref 0 and w0 = ref 0.0 and w1 = ref 0.0 in
      let tap control ~self:_ _msg =
        incr count;
        if !count = warm then w0 := Gc.minor_words ()
        else if !count = warm + span then begin
          w1 := Gc.minor_words ();
          control.Cluster.request_stop ()
        end
      in
      let config =
        {
          (Cluster.default_config ~n ~seed:1) with
          unit_s = 1e-4;
          shards = 1;
          load = Cluster.Closed_loop { depth = 1 };
          stop = Cluster.Duration 1e9;
          max_wall_s = 30.0;
        }
      in
      let r =
        Cluster.run ~tap
          ~backend:(Cluster.Sockets { owned = List.init n Fun.id; addrs })
          config
          (module Tr_proto.Ring)
          Codecs.ring
      in
      Alcotest.(check bool) "measured span completed" true
        (!count >= warm + span);
      Alcotest.(check int) "zero decode errors" 0 r.Cluster.decode_errors;
      let per = (!w1 -. !w0) /. float_of_int span in
      Alcotest.(check bool)
        (Printf.sprintf "%.1f minor words per delivery (bound 100)" per)
        true (per < 100.0))

(* Feed frames to a hosted listener through a raw socket in adversarial
   chunks (byte-by-byte, then 3-byte slices) under each forced backend:
   the stream decoder must deliver each frame exactly once, with no
   resync skips and no decode errors, regardless of how reads split. *)
let test_adversarial_chunking () =
  List.iter
    (fun backend ->
      let name = Readiness.backend_name backend in
      with_temp_dir (fun dir ->
          let n = 2 in
          let addrs = Transport.uds_addrs ~dir ~n in
          let clock = Tr_net_rt.Clock.create ~unit_s:1e-3 () in
          let t =
            Transport.sockets ~readiness:backend ~clock ~n ~owned:[ 1 ] ~addrs
              ()
          in
          let shard = Transport.shard t ~owners:[ 1 ] in
          Fun.protect
            ~finally:(fun () -> Transport.close t)
            (fun () ->
              let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
              Fun.protect
                ~finally:(fun () -> try Unix.close s with _ -> ())
                (fun () ->
                  Unix.connect s addrs.(1);
                  let got = ref [] in
                  let on_frame view =
                    match Tr_wire.Codec.decode_view Codecs.ring view with
                    | Ok
                        {
                          Tr_wire.Codec.src;
                          msg = Tr_proto.Ring.Token { stamp };
                          _;
                        } ->
                        got := (src, stamp) :: !got
                    | Error _ -> Alcotest.failf "%s: decode error" name
                  in
                  let pump_until k =
                    let deadline = Unix.gettimeofday () +. 5.0 in
                    while
                      List.length !got < k && Unix.gettimeofday () < deadline
                    do
                      Transport.wait shard ~timeout_s:0.05 ();
                      Transport.poll t ~owner:1 on_frame
                    done
                  in
                  let send_chunked data ~chunk =
                    String.iteri
                      (fun i _ ->
                        if i mod chunk = 0 then begin
                          let len =
                            Stdlib.min chunk (String.length data - i)
                          in
                          ignore (Unix.write_substring s data i len);
                          (* Let the reader see this fragment alone. *)
                          Transport.wait shard ~timeout_s:0.002 ();
                          Transport.poll t ~owner:1 on_frame
                        end)
                      data
                  in
                  let f1 = ring_frame 11 in
                  (* All but the last byte: nothing may be delivered. *)
                  send_chunked
                    (String.sub f1 0 (String.length f1 - 1))
                    ~chunk:1;
                  Alcotest.(check int)
                    (name ^ ": partial frame not delivered")
                    0 (List.length !got);
                  ignore
                    (Unix.write_substring s f1 (String.length f1 - 1) 1);
                  pump_until 1;
                  send_chunked (ring_frame 12) ~chunk:3;
                  pump_until 2;
                  Alcotest.(check (list (pair int int)))
                    (name ^ ": both frames exactly once")
                    [ (0, 11); (0, 12) ]
                    (List.rev !got);
                  let stats = Transport.stats t in
                  Alcotest.(check int)
                    (name ^ ": no resync skips")
                    0
                    (Atomic.get stats.Transport.resync_skips);
                  Alcotest.(check int)
                    (name ^ ": no decode errors")
                    0
                    (Atomic.get stats.Transport.decode_errors)))))
    (available_backends ())

(* ---------------- loopback golden guard ---------------- *)

(* Semantic byte-identity of the live loopback runtime across I/O
   rewrites, in the same spirit as test/golden/: a single-shard
   closed-loop run's processed-message sequence is deterministic (ring
   and binsearch use no timers, all channels share the one-unit hop
   delay, and a single shard processes deliveries in due-time order =
   emission order), so the tap log must match a committed golden file.

   Two guards against wall-clock jitter: the unit scale is far above
   scheduling noise, and only the first [keep] lines are compared — the
   tail after the stop condition fires depends on how many in-flight
   messages the final iteration drains, which is timing-sensitive.

   Regenerate with TR_LIVE_GOLDEN_REGEN=<dir> (writes <dir>/<file>
   instead of comparing). *)

let live_log_config ~n ~seed ~unit_s ~grants =
  {
    (Cluster.default_config ~n ~seed) with
    unit_s;
    shards = 1;
    load = Cluster.Closed_loop { depth = 1 };
    stop = Cluster.Grants grants;
    max_wall_s = 30.0;
  }

let capture_live_log (type m) ~(protocol : (module Tr_sim.Node_intf.PROTOCOL
                                              with type msg = m))
    ~(codec : m Tr_wire.Codec.t) ~(render : m -> string)
    ?(filter = fun _ -> true) ~config ~keep () =
  let mu = Mutex.create () in
  let log = ref [] in
  let count = ref 0 in
  let tap _control ~self msg =
    Mutex.lock mu;
    (if !count < keep then
       let line = Printf.sprintf "%d %s" self (render msg) in
       if filter line then begin
         log := line :: !log;
         incr count
       end);
    Mutex.unlock mu
  in
  let report = Cluster.run ~tap config protocol codec in
  Alcotest.(check int) "zero decode errors" 0 report.Cluster.decode_errors;
  Alcotest.(check bool) "no frames dropped" true
    (report.Cluster.frames_dropped = 0);
  String.concat "\n" (List.rev !log) ^ "\n"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_live_golden ~file log =
  match Sys.getenv_opt "TR_LIVE_GOLDEN_REGEN" with
  | Some dir ->
      let oc = open_out_bin (Filename.concat dir file) in
      output_string oc log;
      close_out oc
  | None -> Alcotest.(check string) file (read_file ("golden/" ^ file)) log

let test_golden_live_ring () =
  let log =
    capture_live_log
      ~protocol:(module Tr_proto.Ring)
      ~codec:Codecs.ring
      ~render:(fun (Tr_proto.Ring.Token { stamp }) ->
        Printf.sprintf "T %d" stamp)
      ~config:(live_log_config ~n:8 ~seed:21 ~unit_s:1e-3 ~grants:80)
      ~keep:64 ()
  in
  check_live_golden ~file:"live_ring_n8_seed21.txt" log

let test_golden_live_binsearch () =
  let render msg =
    let open Tr_proto.Binsearch in
    match msg with
    | Token { stamp } -> Printf.sprintf "T %d" stamp
    | Loan { stamp } -> Printf.sprintf "L %d" stamp
    | Return { stamp } -> Printf.sprintf "R %d" stamp
    | Gimme { requester; span; stamp } ->
        Printf.sprintf "G %d %d %d" requester span stamp
  in
  (* Binsearch floods Gimme requests from several nodes concurrently;
     their relative arrival order carries wall-clock jitter even at a
     4 ms unit. Token movement and the Loan/Return chain are serialized
     by the unique token, so that subsequence is the deterministic
     semantic core — verified identical across 8 repeat runs. *)
  let filter line =
    match String.index_opt line ' ' with
    | Some i -> i + 1 < String.length line && line.[i + 1] <> 'G'
    | None -> false
  in
  let log =
    capture_live_log
      ~protocol:(module (val Tr_proto.Binsearch.make ()))
      ~codec:Codecs.binsearch ~render ~filter
      ~config:(live_log_config ~n:8 ~seed:21 ~unit_s:4e-3 ~grants:60)
      ~keep:40 ()
  in
  check_live_golden ~file:"live_binsearch_n8_seed21.txt" log

(* ---------------- delay-model validation ---------------- *)

let test_network_validation () =
  expect_invalid "uniform lo>hi" (fun () ->
      Network.create ~reliable_delay:(Network.Uniform (3.0, 1.0)) ());
  expect_invalid "uniform negative" (fun () ->
      Network.create ~cheap_delay:(Network.Uniform (-1.0, 2.0)) ());
  expect_invalid "uniform nan" (fun () ->
      Network.create ~reliable_delay:(Network.Uniform (Float.nan, 1.0)) ());
  expect_invalid "constant negative" (fun () ->
      Network.create ~reliable_delay:(Network.Constant (-0.5)) ());
  expect_invalid "exponential zero" (fun () ->
      Network.create ~cheap_delay:(Network.Exponential 0.0) ());
  (* The live cluster's config is checked the same way before any node
     runs: a NaN wall cap would compare false against every elapsed time
     and disable the safety cap. *)
  let cluster name config =
    expect_invalid name (fun () ->
        Cluster.run_packed config (Codecs.find_exn "ring"))
  in
  let base = Cluster.default_config ~n:4 ~seed:1 in
  cluster "hop_delay nan" { base with hop_delay = Float.nan };
  cluster "max_wall_s nan" { base with max_wall_s = Float.nan };
  cluster "max_wall_s infinite" { base with max_wall_s = Float.infinity };
  cluster "max_wall_s zero" { base with max_wall_s = 0.0 };
  (* Valid models still construct. *)
  let (_ : Network.t) =
    Network.create
      ~reliable_delay:(Network.Uniform (0.2, 3.0))
      ~cheap_delay:(Network.Exponential 1.5) ()
  in
  ()

let test_per_link_guard () =
  let net =
    Network.create
      ~reliable_delay:(Network.Per_link (fun ~src ~dst:_ -> if src = 1 then -1.0 else 2.0))
      ()
  in
  let rng = Rng.create 1 in
  let d = Network.sample_delay net rng Network.Reliable ~src:0 ~dst:1 in
  Alcotest.(check (float 1e-9)) "good link" 2.0 d;
  expect_invalid "bad per-link sample" (fun () ->
      Network.sample_delay net rng Network.Reliable ~src:1 ~dst:0)

let test_scenario_network_error () =
  match Tokenring.Scenario.network_of_string "uniform:3,1" with
  | Ok _ -> Alcotest.fail "inverted uniform accepted"
  | Error msg ->
      Alcotest.(check bool)
        "message mentions uniform" true
        (Astring.String.is_infix ~affix:"niform" msg)

let () =
  Alcotest.run "net_rt"
    [
      ( "loopback",
        [
          Alcotest.test_case "smoke" `Quick test_loopback_smoke;
          Alcotest.test_case "all protocols live" `Slow
            test_all_protocols_live;
        ] );
      ( "cross-validation",
        [
          Alcotest.test_case "ring O(N) vs binsearch O(log N)" `Slow
            test_trend_ring_vs_binsearch;
        ] );
      ( "failure",
        [
          Alcotest.test_case "live regeneration" `Quick test_live_regeneration;
          Alcotest.test_case "failsafe-search live regeneration" `Quick
            test_live_failsafe_search_regeneration;
        ] );
      ( "sockets",
        [
          Alcotest.test_case "unix-domain cluster" `Quick
            test_unix_sockets_cluster;
          Alcotest.test_case "idle cluster stops at its duration" `Quick
            test_idle_duration_stop;
        ] );
      ( "clock",
        [
          Alcotest.test_case "now non-decreasing across domains" `Quick
            test_clock_monotone_across_domains;
        ] );
      ( "readiness",
        [
          Alcotest.test_case "register/report/remove" `Quick
            test_readiness_basic;
          Alcotest.test_case "config errors + fallback chain" `Quick
            test_readiness_config;
          Alcotest.test_case "TR_READINESS reaches the transport" `Quick
            test_readiness_env_forcing;
          Alcotest.test_case "wake pipe drains to EAGAIN" `Quick
            test_wakeup_drain;
          Alcotest.test_case "backend parity on a UDS ring" `Quick
            test_backend_parity;
          Alcotest.test_case "adversarial chunking per backend" `Quick
            test_adversarial_chunking;
          Alcotest.test_case "stats snapshot coherent" `Quick
            test_stats_snapshot_coherent;
        ] );
      ( "shard",
        [
          Alcotest.test_case "bad owners refused at creation" `Quick
            test_shard_rejects_bad_owners;
          Alcotest.test_case "wake burst leaves no stale readability" `Quick
            test_wake_burst_no_stale_readability;
          Alcotest.test_case "cross-domain wake ends a wait" `Quick
            test_cross_domain_wake;
          Alcotest.test_case "every read/write syscall counted" `Quick
            test_every_syscall_counted;
          Alcotest.test_case "loopback wait reports the due owner" `Quick
            test_loopback_wait_reports_due_owner;
          Alcotest.test_case "loopback wait honours delay" `Quick
            test_loopback_wait_honours_delay;
          Alcotest.test_case "loopback idle wait bounded" `Quick
            test_loopback_idle_wait_bounded;
          Alcotest.test_case "sockets poll needs adoption" `Quick
            test_sockets_poll_needs_adoption;
          Alcotest.test_case "fd reuse after a peer reconnects" `Quick
            test_fd_reuse_after_reconnect;
          Alcotest.test_case "hop allocation bounded" `Quick
            test_hop_allocation;
        ] );
      ( "golden",
        [
          Alcotest.test_case "loopback ring token sequence" `Quick
            test_golden_live_ring;
          Alcotest.test_case "loopback binsearch message sequence" `Quick
            test_golden_live_binsearch;
        ] );
      ( "network-validation",
        [
          Alcotest.test_case "delay models" `Quick test_network_validation;
          Alcotest.test_case "per-link guard" `Quick test_per_link_guard;
          Alcotest.test_case "scenario error" `Quick
            test_scenario_network_error;
        ] );
    ]
