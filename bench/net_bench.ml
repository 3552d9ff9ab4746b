(* Live-I/O throughput benchmark -> BENCH_net.json.

   Every row is repeated [--repeats k] times (default 5) and reports the
   median and quartiles of its timed figures; the committed pump
   baselines were measured at the pre-refactor commit on the same host.
   The angles on the wire path:

   - loopback_frames: encode->send->poll->decode pipeline through the
     in-process loopback transport, zero delay, batched pump. Measures
     the allocation discipline of the codec/frame layers plus the
     mailbox/heap hop.

   - uds_frames: the same pump over a real Unix-domain stream socket
     pair hosted in one process. Measures syscall batching: the
     pre-refactor path paid one write(2) per frame; the batched path
     coalesces a whole pump iteration into one write.

   - grants_vs_n: the cost of one live hop as N grows — a self-hosted
     UDS ring (one frame per grant) on epoll, one shard, closed loop,
     reported as grants/s and ns per hop, plus the ratio of the largest
     N's ns/hop to the smallest's.

   - live_scaling, syscall_floor, wait_cost: readiness backends vs N,
     the epoll transport's syscalls per grant, and the cost of one
     readiness wait vs registered fds (see EXPERIMENTS.md).

   Allocation rates come from Gc.quick_stat deltas around the timed
   section (minor+major words per frame). Syscall rows carry the
   transport's own read+write counters beside the kernel's count of the
   same calls ([syscr + syscw] from /proc/self/io, null off Linux). *)

module Clock = Tr_net_rt.Clock
module Transport = Tr_net_rt.Transport
module Cluster = Tr_net_rt.Cluster
module Readiness = Tr_net_rt.Readiness
module Codec = Tr_wire.Codec
module Codecs = Tr_wire.Codecs
module Metrics = Tr_sim.Metrics
module Quantile = Tr_stats.Quantile

let quick = Array.exists (String.equal "--quick") Sys.argv

let repeats =
  let rec find = function
    | "--repeats" :: k :: _ -> (
        match int_of_string_opt k with
        | Some k when k >= 1 -> k
        | _ -> failwith "net_bench: --repeats wants a positive integer")
    | _ :: rest -> find rest
    | [] -> 5
  in
  find (Array.to_list Sys.argv)

let fi = float_of_int

let median xs = Quantile.median (Common.sample xs)
let spread = Common.spread

(* As [spread], or null when any repeat lacks the figure. *)
let spread_opt ?digits name xs =
  if List.mem None xs then Printf.sprintf {|"%s": null|} name
  else spread ?digits name (List.filter_map Fun.id xs)

(* [syscr + syscw] from /proc/self/io: every read- and write-type
   syscall this process made, as the kernel counts them. *)
let kernel_rw () =
  let fields = Common.proc_fields "/proc/self/io" in
  let get k = Option.bind (List.assoc_opt k fields) int_of_string_opt in
  match (get "syscr", get "syscw") with
  | Some r, Some w -> Some (r + w)
  | _ -> None

(* [repeats] rounds over [cases], one run of each per round, so the
   host's speed drift lands on every case alike. Returns each case's
   runs, in case order. *)
let round_robin cases run =
  let rounds = List.init repeats (fun k -> List.map (run k) cases) in
  List.mapi (fun i _ -> List.map (fun round -> List.nth round i) rounds) cases

(* Wall seconds of [f ()]. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* Words allocated by [f ()] (minor + major), and its result. *)
let alloc_words f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  let words =
    s1.Gc.minor_words -. s0.Gc.minor_words
    +. (s1.Gc.major_words -. s0.Gc.major_words)
  in
  (r, words)

(* ------------------------------------------------------------------ *)
(* Frame pumps                                                         *)
(* ------------------------------------------------------------------ *)

(* One pump iteration sends [batch] envelope frames 0 -> 1 and drains
   the receiver; [total] frames flow end to end. The message is a ring
   token — the smallest real protocol payload, so the numbers bound the
   per-frame overhead rather than payload memcpy. *)
let batch = 64

let pump_loopback ~total () =
  let clock = Clock.create ~unit_s:1e-3 () in
  let t = Transport.loopback ~clock ~n:2 in
  let scratch = Codec.scratch () in
  let received = ref 0 in
  let sent = ref 0 in
  let on_frame view =
    match Codec.decode_view Codecs.ring view with
    | Ok _ -> incr received
    | Error _ -> failwith "net_bench: loopback decode error"
  in
  while !received < total do
    let k = Stdlib.min batch (total - !sent) in
    for _ = 1 to k do
      let frame =
        Codec.encode_frame scratch Codecs.ring ~src:0
          ~channel:Tr_sim.Network.Reliable
          (Tr_proto.Ring.Token { stamp = !sent })
      in
      Transport.send_frame t ~src:0 ~dst:1 ~delay:0.0 frame;
      incr sent
    done;
    Transport.poll t ~owner:1 on_frame
  done;
  Transport.close t;
  let stats = Transport.stats t in
  (Atomic.get stats.Transport.frames_sent, Atomic.get stats.Transport.bytes_sent)

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tr-net-bench-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Unix.unlink (Filename.concat dir f) with _ -> ())
        (try Sys.readdir dir with _ -> [||]);
      try Unix.rmdir dir with _ -> ())
    (fun () -> f dir)

(* Same pump over a Unix-domain stream socket (both ends hosted in this
   process under one shard handle: node 0 writes, node 1 reads; poll 0
   flushes, a zero-timeout wait learns what is readable, poll 1 drains).
   Returns (frames_sent, bytes_sent, write_syscalls, read_syscalls) —
   one poll flushes a whole batch with a single write(2). *)
let pump_uds ~total () =
  with_temp_dir (fun dir ->
      let clock = Clock.create ~unit_s:1e-3 () in
      let addrs = Transport.uds_addrs ~dir ~n:2 in
      let t = Transport.sockets ~clock ~n:2 ~owned:[ 0; 1 ] ~addrs () in
      let shard = Transport.shard t ~owners:[ 0; 1 ] in
      Transport.wait shard ~timeout_s:0.0 ();
      let scratch = Codec.scratch () in
      let received = ref 0 in
      let sent = ref 0 in
      let on_frame view =
        match Codec.decode_view Codecs.ring view with
        | Ok _ -> incr received
        | Error _ -> failwith "net_bench: uds decode error"
      in
      while !received < total do
        let k = Stdlib.min batch (total - !sent) in
        for _ = 1 to k do
          let frame =
            Codec.encode_frame scratch Codecs.ring ~src:0
              ~channel:Tr_sim.Network.Reliable
              (Tr_proto.Ring.Token { stamp = !sent })
          in
          Transport.send_frame t ~src:0 ~dst:1 ~delay:0.0 frame;
          incr sent
        done;
        (* Flush node 0's coalesced buffer, then drain node 1's socket. *)
        Transport.poll t ~owner:0 (fun _ -> ());
        Transport.wait shard ~timeout_s:0.0 ();
        Transport.poll t ~owner:1 on_frame
      done;
      let stats = Transport.stats t in
      let counters =
        ( Atomic.get stats.Transport.frames_sent,
          Atomic.get stats.Transport.bytes_sent,
          Atomic.get stats.Transport.write_syscalls,
          Atomic.get stats.Transport.read_syscalls )
      in
      Transport.close t;
      counters)

(* ------------------------------------------------------------------ *)
(* Self-hosted UDS ring runs                                           *)
(* ------------------------------------------------------------------ *)

(* One socket ring hosted in this process (every node owned, one shard),
   closed-loop depth 1, under a forced readiness backend. *)
let scaling_config ~n ~readiness ~stop ~max_wall_s =
  {
    (Cluster.default_config ~n ~seed:42) with
    unit_s = 1e-4;
    shards = 1;
    load = Cluster.Closed_loop { depth = 1 };
    stop;
    max_wall_s;
    readiness;
  }

(* One run of [config], with the kernel's read+write syscall count over
   it (nothing else in this process does I/O meanwhile). *)
let ring_run ~what ~n config =
  with_temp_dir (fun dir ->
      let addrs = Transport.uds_addrs ~dir ~n in
      let k0 = kernel_rw () in
      let r =
        Cluster.run_packed
          ~backend:(Cluster.Sockets { owned = List.init n Fun.id; addrs })
          config (Codecs.find_exn "ring")
      in
      let kernel =
        match (k0, kernel_rw ()) with
        | Some a, Some b -> Some (b - a)
        | _ -> None
      in
      if r.Cluster.decode_errors > 0 then
        failwith (Printf.sprintf "net_bench: %s n=%d decode errors" what n);
      (r, kernel))

let grants_per_s (r : Cluster.report) =
  fi r.Cluster.grants /. Float.max 1e-9 r.Cluster.wall_s

let per_grant (r : Cluster.report) x = fi x /. fi (Stdlib.max 1 r.Cluster.grants)

(* ------------------------------------------------------------------ *)
(* Per-hop cost vs N                                                   *)
(* ------------------------------------------------------------------ *)

(* The ring sends one frame per grant, so wall time over frames sent is
   the cost of one live hop (set-up and the first circulation's dials
   included, amortised over the run). *)
let hop_run ~n ~grants =
  ring_run ~what:"grants vs n" ~n
    (scaling_config ~n ~readiness:(Some Readiness.Epoll)
       ~stop:(Cluster.Grants grants) ~max_wall_s:300.0)

let ns_per_hop (r : Cluster.report) =
  r.Cluster.wall_s *. 1e9 /. fi (Stdlib.max 1 r.Cluster.frames_sent)

let hop_row ~n runs =
  let r0 = fst (List.hd runs) in
  Printf.sprintf
    {|    { "protocol": "ring", "n": %d, "readiness": %S, "shards": 1,
      "load": "closed:1", "grants": %d, "repeats": %d,
      %s,
      %s,
      %s,
      %s }|}
    n r0.Cluster.readiness r0.Cluster.grants (List.length runs)
    (spread "grants_per_s" (List.map (fun (r, _) -> grants_per_s r) runs))
    (spread "ns_per_hop" (List.map (fun (r, _) -> ns_per_hop r) runs))
    (spread ~digits:3 "counted_rw_syscalls_per_grant"
       (List.map
          (fun (r, _) ->
            per_grant r (r.Cluster.read_syscalls + r.Cluster.write_syscalls))
          runs))
    (spread_opt ~digits:3 "kernel_rw_syscalls_per_grant"
       (List.map (fun (r, k) -> Option.map (per_grant r) k) runs))

(* ------------------------------------------------------------------ *)
(* Live scaling: UDS grants/s vs N per readiness backend               *)
(* ------------------------------------------------------------------ *)

let scaling_row ~readiness ~procs ~n ~grants ~gps ~resp_p99 ~wait_calls
    ~fds_registered ~avg_ready =
  Printf.sprintf
    {|    { "protocol": "ring", "n": %d, "readiness": %S, "procs": %d,
      "load": "closed:1", "grants": %d, "repeats": %d, %s,
      "resp_p99_units": %.3f, "wait_calls": %d, "fds_registered": %d,
      "avg_ready_per_wait": %s }|}
    n readiness procs grants repeats (spread "grants_per_s" gps) resp_p99
    wait_calls fds_registered
    (match avg_ready with
    | None -> "null"
    | Some a -> Printf.sprintf "%.2f" a)

let scaling_run k (backend, n, grants) =
  Format.eprintf "live uds ring n=%d %s (%d grants, round %d/%d)...@." n
    (Readiness.backend_name backend)
    grants (k + 1) repeats;
  fst
    (ring_run ~what:"uds" ~n
       (scaling_config ~n ~readiness:(Some backend)
          ~stop:(Cluster.Grants grants) ~max_wall_s:300.0))

(* Counters and p99 are the first repeat's (they repeat to within a few
   grants); throughput carries the spread. *)
let scaling_case_row ~n runs =
  let r = List.hd runs in
  scaling_row ~readiness:r.Cluster.readiness ~procs:1 ~n ~grants:r.Cluster.grants
    ~gps:(List.map grants_per_s runs)
    ~resp_p99:
      (Quantile.quantile (Metrics.responsiveness_quantiles r.Cluster.metrics) 0.99)
    ~wait_calls:r.Cluster.wait_calls ~fds_registered:r.Cluster.fds_registered
    ~avg_ready:(Some r.Cluster.avg_ready_per_wait)

(* Beyond ~6.6k nodes a single process blows RLIMIT_NOFILE (20k here,
   un-raisable in this container: ~3 fds per self-hosted node), so the
   10k point runs as a forked fleet — each child hosts a contiguous
   slice and the per-process fd bill halves. Duration-stopped: grants
   are summed after the fact. *)
let fleet_case ~procs ~n ~duration_units =
  Format.eprintf "live uds ring n=%d epoll fleet procs=%d (%.0f units x %d)...@."
    n procs duration_units repeats;
  let config =
    scaling_config ~n ~readiness:(Some Readiness.Epoll)
      ~stop:(Cluster.Duration duration_units) ~max_wall_s:120.0
  in
  let one () =
    with_temp_dir (fun dir ->
        let addrs = Transport.uds_addrs ~dir ~n in
        let members =
          Cluster.run_fleet ~procs ~addrs config (Codecs.find_exn "ring")
        in
        if List.length members < procs then
          failwith "net_bench: fleet child missing";
        members)
  in
  let runs = List.init repeats (fun _ -> one ()) in
  let sum f members = List.fold_left (fun a m -> a + f m) 0 members in
  let fmax f members =
    List.fold_left (fun a m -> Float.max a (f m)) 0.0 members
  in
  if List.exists (fun ms -> sum (fun m -> m.Cluster.m_decode_errors) ms > 0) runs
  then failwith "net_bench: fleet decode errors";
  let members = List.hd runs in
  scaling_row ~readiness:"epoll" ~procs ~n
    ~grants:(sum (fun m -> m.Cluster.m_grants) members)
    ~gps:
      (List.map
         (fun ms ->
           fi (sum (fun m -> m.Cluster.m_grants) ms)
           /. Float.max 1e-9 (fmax (fun m -> m.Cluster.m_wall_s) ms))
         runs)
    ~resp_p99:(fmax (fun m -> m.Cluster.m_resp_p99) members)
    ~wait_calls:(sum (fun m -> m.Cluster.m_wait_calls) members)
    ~fds_registered:(sum (fun m -> m.Cluster.m_fds_registered) members)
    ~avg_ready:None

(* ------------------------------------------------------------------ *)
(* Syscall floor                                                       *)
(* ------------------------------------------------------------------ *)

(* The epoll transport pays ~2 read/write syscalls plus about one
   epoll_wait per grant on a closed ring. One shard, all nodes
   self-hosted, like the live_scaling rows; the transport's own
   read+write counters sit beside the kernel's over the same runs. *)
let floor_row ~n ~grants =
  let runs =
    List.init repeats (fun k ->
        Format.eprintf "syscall floor n=%d epoll (%d grants, round %d/%d)...@."
          n grants (k + 1) repeats;
        ring_run ~what:"syscall floor" ~n
          (scaling_config ~n ~readiness:(Some Readiness.Epoll)
             ~stop:(Cluster.Grants grants) ~max_wall_s:300.0))
  in
  let r = fst (List.hd runs) in
  Printf.sprintf
    {|    { "config": "epoll", "n": %d, "readiness": %S,
      "grants": %d, "repeats": %d, %s,
      %s,
      %s,
      %s,
      "wait_calls": %.0f }|}
    n r.Cluster.readiness r.Cluster.grants repeats
    (spread "grants_per_s" (List.map (fun (r, _) -> grants_per_s r) runs))
    (spread ~digits:4 "syscalls_per_grant"
       (List.map (fun (r, _) -> r.Cluster.syscalls_per_grant) runs))
    (spread ~digits:4 "counted_rw_syscalls_per_grant"
       (List.map
          (fun (r, _) ->
            per_grant r (r.Cluster.read_syscalls + r.Cluster.write_syscalls))
          runs))
    (spread_opt ~digits:4 "kernel_rw_syscalls_per_grant"
       (List.map (fun (r, k) -> Option.map (per_grant r) k) runs))
    (median (List.map (fun (r, _) -> fi r.Cluster.wait_calls) runs))

(* ------------------------------------------------------------------ *)
(* Readiness wait cost: K idle registered fds + one hot one            *)
(* ------------------------------------------------------------------ *)

(* ns per wait (one time-boxed batch per repeat) with [k] idle
   socketpair read-ends registered plus one
   holding an unread byte (level-triggered, so every wait reports
   exactly that fd). Isolates what one poll costs as the registration
   count grows — the number that separates O(registered) poll from
   O(ready) epoll. *)
let wait_cost_ns ~backend ~k =
  let rd = Readiness.create ~backend () in
  let pairs =
    Array.init (k + 1) (fun _ ->
        Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  Array.iter (fun (r, _) -> Readiness.set rd r ~read:true ~write:false) pairs;
  let hot_r, hot_w = pairs.(k) in
  ignore (Unix.write_substring hot_w "x" 0 1);
  let ready = ref 0 in
  let cb ~fd:_ ~readable:_ ~writable:_ = incr ready in
  let one () = ignore (Readiness.wait rd ~timeout_s:0.0 cb) in
  one ();
  if !ready = 0 then failwith "net_bench: wait_cost hot fd not ready";
  (* Time-boxed batches: poll at K=4096 is ~100x costlier per wait than
     epoll, so a fixed iteration count would either starve the fast
     backends of resolution or stall the bench. *)
  let box = if quick then 0.05 else 0.25 in
  let measure () =
    let t0 = Unix.gettimeofday () in
    let iters = ref 0 in
    while Unix.gettimeofday () -. t0 < box do
      for _ = 1 to 500 do
        one ()
      done;
      iters := !iters + 500
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int !iters *. 1e9
  in
  let ns = List.init repeats (fun _ -> measure ()) in
  ignore hot_r;
  Array.iter
    (fun (r, w) ->
      Readiness.remove rd r;
      Unix.close r;
      Unix.close w)
    pairs;
  Readiness.close rd;
  ns

let wait_cost_rows () =
  let ks = if quick then [ 64 ] else [ 64; 256; 448; 1024; 4096 ] in
  let combos =
    List.concat_map
      (fun b ->
        if Readiness.available b then List.map (fun k -> (b, k)) ks else [])
      [ Readiness.Epoll; Readiness.Poll ]
  in
  List.map
    (fun (b, k) ->
      Format.eprintf "wait cost %s K=%d...@." (Readiness.backend_name b) k;
      let ns = wait_cost_ns ~backend:b ~k in
      Printf.sprintf
        {|    { "backend": %S, "fds_registered": %d, "fds_ready": 1, %s }|}
        (Readiness.backend_name b)
        (k + 1) (spread "ns_per_wait" ns))
    combos

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

(* Pre-refactor numbers, measured on this host at commit a628964 with
   this harness (same totals, best-of-3 policy, same container); the
   speedups divide the median of the repeats by them. The old socket
   path issued one write(2) per frame by construction. *)
type baseline = { frames_per_s : float; syscalls_per_frame : float option }

let loopback_baseline =
  Some { frames_per_s = 2_398_786.0; syscalls_per_frame = None }

let uds_baseline = Some { frames_per_s = 992_474.0; syscalls_per_frame = Some 1.0 }

let case_json ~name ~frames ~bytes ~walls ~words_per_frame ~syscalls
    ~(baseline : baseline option) =
  let fps_runs = List.map (fun w -> float_of_int frames /. w) walls in
  let fps = median fps_runs in
  let base =
    match baseline with
    | None -> {|"baseline_frames_per_s": null, "speedup": null|}
    | Some b ->
        Printf.sprintf
          {|"baseline_frames_per_s": %.0f, "speedup": %.2f%s|} b.frames_per_s
          (fps /. b.frames_per_s)
          (match b.syscalls_per_frame with
          | None -> ""
          | Some s ->
              Printf.sprintf {|, "baseline_write_syscalls_per_frame": %.2f|} s)
  in
  let sys =
    match syscalls with
    | None -> {|"write_syscalls_per_frame": null|}
    | Some (w, r) ->
        Printf.sprintf
          {|"write_syscalls_per_frame": %.4f, "read_syscalls_per_frame": %.4f|}
          (float_of_int w /. float_of_int frames)
          (float_of_int r /. float_of_int frames)
  in
  Printf.sprintf
    {|    { "case": %S, "frames": %d, "bytes": %d, "repeats": %d,
      %s, "alloc_words_per_frame": %.1f,
      %s, %s }|}
    name frames bytes (List.length walls)
    (spread "frames_per_s" fps_runs)
    words_per_frame sys base

(* Per-stage breakdown of the loopback pipeline — run with --micro to
   see where a frame's nanoseconds go before reaching for a profiler. *)
let micro () =
  let iters = 1_000_000 in
  let stage name f =
    let s0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    let s1 = Gc.quick_stat () in
    let words =
      s1.Gc.minor_words -. s0.Gc.minor_words
      +. (s1.Gc.major_words -. s0.Gc.major_words)
    in
    Printf.printf "%-24s %8.1f ns/op %8.1f words/op\n%!" name
      (dt /. float_of_int iters *. 1e9)
      (words /. float_of_int iters)
  in
  let clock = Clock.create ~unit_s:1e-3 () in
  stage "clock_now" (fun () ->
      for _ = 1 to iters do
        ignore (Clock.now clock)
      done);
  let scratch = Codec.scratch () in
  let chan = Tr_sim.Network.Reliable in
  stage "encode_frame" (fun () ->
      for i = 1 to iters do
        ignore
          (Codec.encode_frame scratch Codecs.ring ~src:0 ~channel:chan
             (Tr_proto.Ring.Token { stamp = i }))
      done);
  let frame =
    Codec.encode_envelope Codecs.ring ~src:0 ~channel:chan
      (Tr_proto.Ring.Token { stamp = 123456 })
  in
  stage "decode_exact" (fun () ->
      for _ = 1 to iters do
        match Tr_wire.Frame.decode_exact frame with
        | Ok _ -> ()
        | Error _ -> assert false
      done);
  stage "decode_exact+view" (fun () ->
      for _ = 1 to iters do
        match Tr_wire.Frame.decode_exact frame with
        | Ok v -> (
            match Codec.decode_view Codecs.ring v with
            | Ok _ -> ()
            | Error _ -> assert false)
        | Error _ -> assert false
      done);
  let mb = Tr_net_rt.Mailbox.create () in
  stage "mailbox_push_drain" (fun () ->
      for _ = 1 to iters / 64 do
        for _ = 1 to 64 do
          Tr_net_rt.Mailbox.push mb (0.0, frame)
        done;
        ignore (Tr_net_rt.Mailbox.drain mb)
      done);
  let pq = Tr_sim.Pqueue.create () in
  stage "pqueue_push_pop" (fun () ->
      for _ = 1 to iters / 64 do
        for i = 1 to 64 do
          Tr_sim.Pqueue.push pq ~time:(float_of_int i) frame
        done;
        for _ = 1 to 64 do
          ignore (Tr_sim.Pqueue.pop_exn pq)
        done
      done)

let () =
  if Array.exists (String.equal "--micro") Sys.argv then begin
    micro ();
    exit 0
  end;
  let total = if quick then 20_000 else 2_000_000 in
  ignore (Readiness.raise_nofile ());
  (* The forked fleet must run before anything else: every in-process
     cluster case spawns shard domains, and OCaml forbids Unix.fork once
     any domain has been created. *)
  let fleet_rows =
    if quick then []
    else [ fleet_case ~procs:2 ~n:10_000 ~duration_units:150_000.0 ]
  in
  Format.eprintf "timing loopback pump (%d frames x %d)...@." total repeats;
  let loop_walls =
    List.init repeats (fun _ -> timed (fun () -> ignore (pump_loopback ~total ())))
  in
  let (loop_frames, loop_bytes), loop_words =
    alloc_words (fun () -> pump_loopback ~total ())
  in
  let uds_total = if quick then 20_000 else 1_000_000 in
  Format.eprintf "timing uds pump (%d frames x %d)...@." uds_total repeats;
  let uds_walls =
    List.init repeats (fun _ ->
        timed (fun () -> ignore (pump_uds ~total:uds_total ())))
  in
  let (uds_frames, uds_bytes, uds_writes, uds_reads), uds_words =
    alloc_words (fun () -> pump_uds ~total:uds_total ())
  in
  (* Per-hop cost vs N, and the ratio the O(1)-in-N goal is judged by:
     ns/hop at the largest N over the smallest, against a 2x gate. The
     runs go round-robin over N and the ratio is taken within each
     round. *)
  let hop_ns =
    if quick then [ (16, 2_000); (64, 2_000) ]
    else [ (64, 50_000); (1024, 100_000); (4096, 400_000) ]
  in
  let hop_runs =
    round_robin hop_ns (fun k (n, grants) ->
        Format.eprintf "grants vs n: uds ring n=%d epoll (%d grants, round %d/%d)...@."
          n grants (k + 1) repeats;
        hop_run ~n ~grants)
  in
  let hop_rows = List.map2 (fun (n, _) runs -> hop_row ~n runs) hop_ns hop_runs in
  let hop_ratio =
    let last l = List.nth l (List.length l - 1) in
    Printf.sprintf {|{ "n_hi": %d, "n_lo": %d, %s, "gate": 2.0 }|}
      (fst (last hop_ns)) (fst (List.hd hop_ns))
      (spread ~digits:2 "ns_per_hop_ratio"
         (List.map2
            (fun (hi, _) (lo, _) -> ns_per_hop hi /. ns_per_hop lo)
            (last hop_runs) (List.hd hop_runs)))
  in
  (* Live scaling sweep over both backends. N=10000 runs as a 2-process
     fleet. *)
  let scaling_cases =
    (if quick then
       List.map (fun b -> (b, 64, 2_000)) [ Readiness.Epoll; Readiness.Poll ]
     else
       [ (Readiness.Epoll, 64, 50_000);
         (Readiness.Epoll, 256, 50_000);
         (Readiness.Epoll, 1024, 50_000);
         (Readiness.Epoll, 4096, 200_000);
         (Readiness.Poll, 64, 50_000);
         (Readiness.Poll, 256, 50_000);
         (Readiness.Poll, 1024, 20_000);
       ])
    |> List.filter (fun (b, _, _) -> Readiness.available b)
  in
  let scaling_rows =
    List.map2
      (fun (_, n, _) runs -> scaling_case_row ~n runs)
      scaling_cases
      (round_robin scaling_cases scaling_run)
    @ fleet_rows
  in
  let syscall_floor_row =
    if quick then floor_row ~n:64 ~grants:2_000
    else floor_row ~n:1024 ~grants:50_000
  in
  let wait_rows = wait_cost_rows () in
  let json =
    Printf.sprintf
      {|{
  "host": { "cores": %d, "cpus_online": %d, "cpu": %S, "ocaml": %S },
  "mode": %S,
  "policy": "every row repeated %d times, median and quartiles (name_q1, name_q3) of its timed figures; %d-frame loopback pump, %d-frame uds pump, batch %d; alloc from Gc.quick_stat deltas; syscall rows give the transport's read+write counters beside the kernel's syscr+syscw over the same run; wait_cost one time-boxed batch per repeat",
  "cases": [
%s
  ],
  "grants_vs_n": [
%s
  ],
  "hop_cost_vs_n": %s,
  "live_scaling": [
%s
  ],
  "syscall_floor": [
%s
  ],
  "wait_cost": [
%s
  ]
}
|}
      (Domain.recommended_domain_count ())
      (Readiness.ncpus ()) (Common.cpu_model ()) Sys.ocaml_version
      (if quick then "quick" else "full")
      repeats total uds_total batch
      (String.concat ",\n"
         [
           case_json ~name:"loopback_frames" ~frames:loop_frames
             ~bytes:loop_bytes ~walls:loop_walls
             ~words_per_frame:(loop_words /. float_of_int loop_frames)
             ~syscalls:None ~baseline:loopback_baseline;
           case_json ~name:"uds_frames" ~frames:uds_frames ~bytes:uds_bytes
             ~walls:uds_walls
             ~words_per_frame:(uds_words /. float_of_int uds_frames)
             ~syscalls:(Some (uds_writes, uds_reads)) ~baseline:uds_baseline;
         ])
      (String.concat ",\n" hop_rows)
      hop_ratio
      (String.concat ",\n" scaling_rows)
      syscall_floor_row
      (String.concat ",\n" wait_rows)
  in
  let oc = open_out "BENCH_net.json" in
  output_string oc json;
  close_out oc;
  Format.printf "wrote BENCH_net.json (%s mode)@."
    (if quick then "quick" else "full")
