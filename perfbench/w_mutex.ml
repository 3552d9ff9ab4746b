(* mutex-ramp: the mutex service with the adaptive movement policy, n=8,
   5 ms units and 0.2-unit leases (the FIG10-LIVE operating point), driven
   by an open-loop Poisson ramp low -> high -> low (2 -> 120 -> 2 req/s)
   over two Unix-domain connections. Latency here is mostly protocol wait,
   and the ramp makes the policy switch to rotation and back. It exercises
   the service front-end, the mutex app and a small loopback cluster;
   net_rt's per-hop costs barely show.

   The generator is this file's own, single-threaded: every request's due
   time is drawn from the seed before the run, and latency runs from the
   due time, so a late generator shows up as latency and as its own lag
   instead of hiding. *)

module Cluster = Tr_net_rt.Cluster
module Server = Tr_service.Server
module Policy = Tr_service.Policy
module Wire = Tr_service.Service_wire
module Codec = Tr_wire.Codec
module Frame = Tr_wire.Frame
module Metrics = Tr_sim.Metrics
module Quantile = Tr_stats.Quantile

let n = 8
let unit_s = 0.005
let cs_duration = 0.2
let policy_window = 30.
let clients = 64
let conns = 2
let drain_s = 5.

(* Set-up-only server starts per run, beside the measured one. *)
let extra_setups = 4

(* The ramp repeats low -> high -> low once per cycle, so each run
   averages the policy's switching transients over several cycles. The
   1.5 s low phases let the policy's estimation windows close at 2 req/s
   and switch back; at 20 s the three high phases hold ~1700 requests, so
   the pooled p99 has more than ten samples beyond it. *)
let lo_s = 1.5

let phases seconds =
  let cycles = Stdlib.max 1 (int_of_float (Float.round (seconds /. 6.5))) in
  let cycle_s = (seconds -. lo_s) /. float_of_int cycles in
  let hi_s = Float.max 1.0 (cycle_s -. lo_s) in
  let lo = { Ramp.rate = 2.; duration_s = lo_s } in
  let hi = { Ramp.rate = 120.; duration_s = hi_s } in
  lo :: List.concat (List.init cycles (fun _ -> [ hi; lo ]))

let server_config ~seed ~listen =
  let policy =
    Policy.create
      {
        (Policy.default_config ~n ~hop_s:1.0) with
        Policy.window_s = policy_window;
      }
  in
  {
    (Server.default_config ~n ~seed ~listen) with
    Server.mode = Server.Adaptive policy;
    cs_duration;
    cluster =
      {
        (Cluster.default_config ~n ~seed) with
        Cluster.load = Cluster.External;
        unit_s;
        stop = Cluster.Duration 1e9;
        max_wall_s = 600.;
      };
  }

(* Start a server and stop it as soon as it reports ready. *)
let setup_only ~seed =
  let ready = ref Float.nan in
  let t0 = Unix.gettimeofday () in
  ignore
    (Server.run
       ~on_ready:(fun ~addr:_ ~control ->
         ready := Unix.gettimeofday ();
         control.Cluster.request_stop ())
       (server_config ~seed ~listen:(Uds.addr "service")));
  !ready -. t0

type pass = {
  setup_s : float;
  t_call : float;
  t_ready : float;
  live_at_ready : float;  (** Cluster clock (units) at [t_ready]. *)
  t_start : float;  (** Wall time of due offset 0. *)
  t_done : float;
  edges : float array;
  dues : float array;
  sent : float array;
  granted : float array;
  released : float array;
  grant_count : int array;
  released_count : int array;
  welcomes : int;
  rejects : int;
  client_decode_errors : int;
  client_resync_skips : int;
  outcome : Server.outcome;
}

(* Request [i] is sequence number [i / clients] of client [i mod clients]. *)
let acquire i = Wire.Acquire { client = i mod clients; seq = i / clients }

type conn = { fd : Unix.file_descr; dec : Frame.Decoder.t }

let connect addr =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd addr;
  { fd; dec = Frame.Decoder.create () }

let serve_pass ~seed ~seconds =
  let phases = phases seconds in
  let dues = Ramp.schedule ~seed phases in
  let m = Array.length dues in
  let sent = Array.make m Float.nan
  and granted = Array.make m Float.nan
  and released = Array.make m Float.nan
  and grant_count = Array.make m 0
  and released_count = Array.make m 0 in
  let welcomes = ref 0 and rejects = ref 0 and answered = ref 0 in
  let dec_err = ref 0 and skips = ref 0 in
  let listen = Uds.addr "service" in
  let ready = Atomic.make None in
  let t_call = Unix.gettimeofday () in
  let server =
    Domain.spawn (fun () ->
        Server.run
          ~on_ready:(fun ~addr:_ ~control ->
            let live = control.Cluster.live_now () in
            Atomic.set ready (Some (Unix.gettimeofday (), live, control)))
          (server_config ~seed ~listen))
  in
  let rec await k =
    match Atomic.get ready with
    | Some r -> r
    | None ->
        if k = 0 then failwith "mutex-ramp: server never became ready";
        Unix.sleepf 0.001;
        await (k - 1)
  in
  let t_ready, live_at_ready, control = await 30_000 in
  let cs = Array.init conns (fun _ -> connect listen) in
  let scratch = Codec.scratch () in
  let send client req =
    let buf =
      Codec.encode_frame scratch Wire.request_codec ~src:client
        ~channel:Tr_sim.Network.Reliable req
    in
    let fd = cs.(client mod conns).fd in
    ignore (Unix.write_substring fd (Buffer.contents buf) 0 (Buffer.length buf))
  in
  let index ~client ~seq =
    let i = (seq * clients) + client in
    if client >= 0 && client < clients && i >= 0 && i < m then Some i else None
  in
  let on_response now = function
    | Wire.Welcome _ -> incr welcomes
    | Wire.Grant { client; seq } ->
        Option.iter
          (fun i ->
            grant_count.(i) <- grant_count.(i) + 1;
            if Float.is_nan granted.(i) then granted.(i) <- now)
          (index ~client ~seq)
    | Wire.Released { client; seq } ->
        Option.iter
          (fun i ->
            released_count.(i) <- released_count.(i) + 1;
            if Float.is_nan released.(i) then begin
              released.(i) <- now;
              incr answered
            end)
          (index ~client ~seq)
    | Wire.Rejected _ | Wire.Committed _ -> incr rejects
  in
  let readbuf = Bytes.create 65536 in
  let poll timeout =
    let fds = Array.to_list (Array.map (fun c -> c.fd) cs) in
    let readable, _, _ =
      try Unix.select fds [] [] (Float.max 0. timeout)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    let now = Unix.gettimeofday () in
    Array.iter
      (fun c ->
        if List.mem c.fd readable then begin
          let len = Unix.read c.fd readbuf 0 (Bytes.length readbuf) in
          if len = 0 then failwith "mutex-ramp: server closed a connection";
          Frame.Decoder.feed_sub c.dec readbuf ~pos:0 ~len;
          let rec drain () =
            match Frame.Decoder.next_view c.dec with
            | Frame.Decoder.Await_view -> ()
            | Frame.Decoder.Skip_view _ ->
                incr skips;
                drain ()
            | Frame.Decoder.View v ->
                (match Codec.decode_view Wire.response_codec v with
                | Ok env -> on_response now env.Codec.msg
                | Error _ -> incr dec_err);
                drain ()
          in
          drain ()
        end)
      cs
  in
  for client = 0 to clients - 1 do
    send client (Wire.Hello { client })
  done;
  let hello_deadline = Unix.gettimeofday () +. 10. in
  while !welcomes < clients && Unix.gettimeofday () < hello_deadline do
    poll 0.01
  done;
  let t_start = Unix.gettimeofday () +. 0.01 in
  let edges = Ramp.edges phases in
  let t_end = t_start +. edges.(Array.length edges - 1) in
  let next = ref 0 in
  let finished () =
    !next = m
    && (!answered + !rejects >= m || Unix.gettimeofday () > t_end +. drain_s)
  in
  while not (finished ()) do
    let now = Unix.gettimeofday () in
    while !next < m && t_start +. dues.(!next) <= now do
      let i = !next in
      sent.(i) <- Unix.gettimeofday ();
      send (i mod clients) (acquire i);
      incr next
    done;
    let timeout =
      if !next = m then 0.05
      else Float.min 0.05 (t_start +. dues.(!next) -. Unix.gettimeofday ())
    in
    poll timeout
  done;
  let t_done = Unix.gettimeofday () in
  Array.iter (fun c -> Unix.close c.fd) cs;
  control.Cluster.request_stop ();
  let outcome = Domain.join server in
  {
    setup_s = t_ready -. t_call;
    t_call;
    t_ready;
    live_at_ready;
    t_start;
    t_done;
    edges;
    dues;
    sent;
    granted;
    released;
    grant_count;
    released_count;
    welcomes = !welcomes;
    rejects = !rejects;
    client_decode_errors = !dec_err;
    client_resync_skips = !skips;
    outcome;
  }

let fi = float_of_int

(* Seconds from each request's due time to [at.(i)]. *)
let since_due p at =
  Array.mapi
    (fun i due -> Ramp.since_due ~start:p.t_start ~due ~at:at.(i))
    p.dues

let latencies p = since_due p p.granted

let defined a = List.filter (fun x -> not (Float.is_nan x)) (Array.to_list a)

let grants p =
  Array.fold_left (fun a c -> if c > 0 then a + 1 else a) 0 p.grant_count

(* Requests are served from the start of the schedule until the last
   grant arrives. *)
let serve_window p =
  let last a g = if Float.is_nan g then a else Float.max a g in
  Array.fold_left last p.t_start p.granted -. p.t_start

let end_to_end p setups =
  let lat = Bstats.sorted_array (defined (latencies p)) in
  let report = p.outcome.Server.report in
  let waiting = Metrics.waiting_quantiles report.Cluster.metrics in
  let g = fi (Stdlib.max 1 (grants p)) in
  [
    ("grants_per_s", "1/s", [ g /. serve_window p ]);
    ("grant_p50_ms", "ms", [ Bstats.quantile_sorted lat 0.5 *. 1e3 ]);
    ("grant_p99_ms", "ms", [ Bstats.quantile_sorted lat 0.99 *. 1e3 ]);
    ("frames_per_grant", "count", [ fi report.Cluster.frames_sent /. g ]);
    ( "events_per_s",
      "1/s",
      [ fi report.Cluster.frames_received /. serve_window p ] );
    ( "recovery_p50_units",
      "units",
      [ Quantile.quantile waiting 0.5 ] );
    ("setup_s", "s", p.setup_s :: setups);
  ]

let check (r : Report.t) p =
  let m = Array.length p.dues in
  let exactly_once = ref 0 in
  Array.iteri
    (fun i c -> if c = 1 && p.released_count.(i) = 1 then incr exactly_once)
    p.grant_count;
  let st = p.outcome.Server.stats in
  Report.check r "mutex-ramp: every client session welcomed"
    (p.welcomes = clients);
  Report.check r
    "mutex-ramp: every Acquire got exactly one Grant and one Released"
    (!exactly_once = m);
  Report.check r "mutex-ramp: no decode errors on either side"
    (p.client_decode_errors = 0 && p.client_resync_skips = 0
    && st.Server.decode_errors = 0 && st.Server.resync_skips = 0);
  Report.tally r ~attempted:m ~failed:(m - !exactly_once)

(* Encode and decode this run's own Acquire and Grant frames, ns per
   frame. *)
let wire_costs p =
  let m = Stdlib.max 1 (Array.length p.dues) in
  let reqs = Array.init m acquire in
  let resps =
    Array.init m (fun i ->
        Wire.Grant { client = i mod clients; seq = i / clients })
  in
  let scratch = Codec.scratch () in
  let frame codec src msg =
    let channel = Tr_sim.Network.Reliable in
    Buffer.contents (Codec.encode_frame scratch codec ~src ~channel msg)
  in
  let req_frames = Array.map (frame Wire.request_codec 0) reqs in
  let resp_frames = Array.map (frame Wire.response_codec 0) resps in
  let roundtrip codec msgs frames i =
    ignore
      (Codec.encode_frame scratch codec ~src:0 ~channel:Tr_sim.Network.Reliable
         msgs.(i));
    match Frame.decode_exact frames.(i) with
    | Ok v -> ignore (Codec.decode_view codec v)
    | Error e -> failwith ("mutex-ramp: own frame failed to parse: " ^ e)
  in
  (* One op is a round trip of one request frame and one response frame. *)
  List.map (fun ns -> ns /. 2.)
    (Bstats.ns_per_op ~ops:m (fun i ->
         roundtrip Wire.request_codec reqs req_frames i;
         roundtrip Wire.response_codec resps resp_frames i))

let record_spans spans p =
  Spans.add spans ~name:"service.server_run" ~id:(-1) ~start:p.t_call
    ~stop:p.t_done ();
  Spans.add spans ~name:"service.setup" ~id:(-1) ~start:p.t_call
    ~stop:p.t_ready ();
  Array.iteri
    (fun i due ->
      let due = p.t_start +. due in
      let stop =
        Array.fold_left Float.max due
          [| p.sent.(i); p.granted.(i); p.released.(i) |]
      in
      Spans.add spans ~name:"request" ~id:i ~start:due ~stop ();
      let child name a b =
        if not (Float.is_nan a || Float.is_nan b) then
          Spans.add spans ~name ~id:i ~parent:i ~start:a ~stop:b ()
      in
      child "client.due_to_sent" due p.sent.(i);
      child "service.sent_to_grant" p.sent.(i) p.granted.(i);
      child "service.grant_to_released" p.granted.(i) p.released.(i))
    p.dues

let run ~seed ~seconds ~trace (r : Report.t) spans =
  let setups =
    List.init extra_setups (fun k -> setup_only ~seed:(seed + k + 1))
  in
  let p = serve_pass ~seed ~seconds in
  check r p;
  let e2e = end_to_end p setups in
  List.iter (fun (name, unit_, v) -> Report.add r ~name ~unit_ v) e2e;
  if trace then begin
    let report = p.outcome.Server.report and st = p.outcome.Server.stats in
    let metrics = report.Cluster.metrics in
    let resp q =
      Quantile.quantile (Metrics.responsiveness_quantiles metrics) q
    in
    Report.add1 r ~name:"proto.resp_p50_units" ~unit_:"units" (resp 0.5);
    Report.add1 r ~name:"proto.resp_p99_units" ~unit_:"units" (resp 0.99);
    let service_ms =
      Array.to_list (Array.mapi (fun i s -> (p.granted.(i) -. s) *. 1e3) p.sent)
      |> List.filter (fun x -> not (Float.is_nan x))
    in
    (* The cluster counts a serve when the lease ends, [cs_duration] after
       the grant. *)
    let wait_ms =
      (Tr_stats.Summary.mean (Metrics.waiting metrics) -. cs_duration)
      *. unit_s *. 1e3
    in
    Report.add1 r ~name:"service.overhead_ms_mean" ~unit_:"ms"
      (Bstats.mean service_ms -. wait_ms);
    Report.add r ~name:"service.wire_ns" ~unit_:"ns" (wire_costs p);
    Report.add1 r ~name:"service.fifo_hwm" ~unit_:"count"
      (fi st.Server.fifo_hwm);
    Report.add1 r ~name:"service.conn_out_hwm_bytes" ~unit_:"bytes"
      (fi st.Server.conn_out_hwm);
    let ms q xs = Bstats.quantile xs q *. 1e3 in
    Report.add1 r ~name:"client.lag_ms_p99" ~unit_:"ms"
      (ms 0.99 (defined (since_due p p.sent)));
    let hi =
      List.concat
        (List.filteri
           (fun i _ -> i mod 2 = 1)
           (Array.to_list
              (Ramp.by_phase p.edges ~dues:p.dues ~values:(latencies p))))
    in
    Report.add1 r ~name:"client.hi_phase_p50_ms" ~unit_:"ms" (ms 0.5 hi);
    Report.add1 r ~name:"client.hi_phase_p99_ms" ~unit_:"ms" (ms 0.99 hi);
    let switches = p.outcome.Server.switches in
    Report.add1 r ~name:"policy.switches" ~unit_:"count"
      (fi (List.length switches));
    (* Lag from the ramp edge before each switch to the switch itself. *)
    let edge_walls =
      List.filteri
        (fun i _ -> i < Array.length p.edges - 1)
        (List.map (fun e -> p.t_start +. e) (Array.to_list p.edges))
    in
    let lags =
      List.filter_map
        (fun (s : Policy.switch_event) ->
          let wall =
            p.t_ready +. ((s.Policy.at -. p.live_at_ready) *. unit_s)
          in
          List.fold_left
            (fun acc e -> if e <= wall then Some ((wall -. e) *. 1e3) else acc)
            None edge_walls)
        switches
    in
    if lags <> [] then
      Report.add r ~name:"policy.switch_lag_ms" ~unit_:"ms" lags;
    List.iter
      (fun (s : Policy.switch_event) ->
        Printf.printf
          "policy switch at %.1f units: %s -> %s (%.2f requests per \
           revolution)\n"
          s.Policy.at
          (Tr_apps.Movement.mode_to_string s.Policy.from_mode)
          (Tr_apps.Movement.mode_to_string s.Policy.to_mode)
          s.Policy.per_rev)
      switches;
    let traced = serve_pass ~seed ~seconds in
    check r traced;
    record_spans spans traced;
    Some (e2e, end_to_end traced [])
  end
  else None
