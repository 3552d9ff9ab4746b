(* Behavioural tests for every executable protocol: the complexity
   claims (Lemmas 4-6, Theorems 2-3), message accounting, fault
   tolerance, and cross-protocol liveness properties. *)

open Tr_sim

let log2 x = log x /. log 2.0

let run_with (module P : Node_intf.PROTOCOL) ?(n = 32) ?(seed = 1)
    ?(workload = Workload.Nothing) ?(network = Network.default) ?(trace = false)
    ?(crashes = []) ~stop () =
  let config =
    { Engine.n; seed; network; workload; trace; trace_window = None; crashes;
      chaos = None }
  in
  Tokenring.Runner.run (module P) { config with trace } ~stop

let poisson mean = Workload.Global_poisson { mean_interarrival = mean }

let serves o = Metrics.serves o.Tokenring.Runner.metrics
let mean_resp o = Tr_stats.Summary.mean (Metrics.responsiveness o.Tokenring.Runner.metrics)
let max_wait o = Tr_stats.Summary.max (Metrics.waiting o.Tokenring.Runner.metrics)

(* Worst-case single-request probe at an explicit node. *)
let single_request (module P : Node_intf.PROTOCOL) ~n ~node =
  let at = (3.0 *. float_of_int n) +. 0.25 in
  run_with (module P) ~n ~workload:(Workload.Script [ (at, node) ])
    ~stop:(Engine.First_of [ Engine.After_serves 1; Engine.At_time (at +. (20.0 *. float_of_int n)) ])
    ()

(* ---------------- ring ---------------- *)

let test_ring_wait_equals_distance () =
  (* The token moves one hop per unit; a request waits exactly the ring
     distance from the token's position at request time. With request at
     t = 96.25 on a 32-ring, the token was delivered to node (96 mod 32)
     = node 0 at t=96; a request at node 10 waits 10 - 0.25 hops. *)
  let o = single_request Tr_proto.Ring.protocol ~n:32 ~node:10 in
  Alcotest.(check int) "served" 1 (serves o);
  Alcotest.(check (float 1e-6)) "distance wait" 9.75 (max_wait o)

let test_ring_linear_scaling () =
  let worst n =
    List.fold_left
      (fun acc node -> Stdlib.max acc (max_wait (single_request Tr_proto.Ring.protocol ~n ~node)))
      0.0
      [ 1; n / 2; n - 1 ]
  in
  let w8 = worst 8 and w64 = worst 64 in
  Alcotest.(check bool) "linear growth" true (w64 > 5.0 *. w8)

let test_ring_no_control_messages () =
  let o =
    run_with Tr_proto.Ring.protocol ~workload:(poisson 5.0)
      ~stop:(Engine.After_serves 100) ()
  in
  Alcotest.(check int) "pure token protocol" 0
    (Metrics.control_messages o.Tokenring.Runner.metrics)

let test_ring_possession_balance () =
  let o =
    run_with Tr_proto.Ring.protocol ~workload:(poisson 5.0)
      ~stop:(Engine.After_token_messages 3200) ()
  in
  Alcotest.(check bool) "imbalance ~ 1" true
    (Metrics.possession_imbalance o.Tokenring.Runner.metrics < 1.1)

(* ---------------- binsearch ---------------- *)

let test_binsearch_log_wait () =
  List.iter
    (fun n ->
      let worst =
        List.fold_left
          (fun acc node ->
            Stdlib.max acc
              (max_wait (single_request Tr_proto.Binsearch.protocol ~n ~node)))
          0.0
          [ 1; n / 2; n - 1 ]
      in
      let bound = 4.0 *. log2 (float_of_int n) in
      if worst > bound then
        Alcotest.failf "n=%d: worst wait %.1f exceeds 4 log2 n = %.1f" n worst
          bound)
    [ 16; 64; 256 ]

let test_binsearch_forwards_logarithmic () =
  List.iter
    (fun n ->
      let o = single_request Tr_proto.Binsearch.protocol ~n ~node:(n / 2) in
      let forwards = Metrics.search_forwards o.Tokenring.Runner.metrics in
      let bound = int_of_float (log2 (float_of_int n)) + 2 in
      if forwards > bound then
        Alcotest.failf "n=%d: %d forwards > %d" n forwards bound)
    [ 16; 64; 256 ]

let test_binsearch_beats_ring_under_load () =
  let run p =
    mean_resp
      (run_with p ~n:128 ~workload:(poisson 10.0)
         ~stop:(Engine.After_serves 800) ())
  in
  let ring = run Tr_proto.Ring.protocol in
  let bin = run Tr_proto.Binsearch.protocol in
  Alcotest.(check bool) "binsearch faster" true (bin < ring);
  Alcotest.(check bool) "binsearch bounded by ~log n" true
    (bin < 2.0 *. log2 128.0)

let test_binsearch_trap_fifo () =
  (* Two requests from distinct far nodes while the token is pinned far
     away; the earlier requester must be served first. *)
  let o =
    run_with Tr_proto.Binsearch.protocol ~n:64 ~trace:true
      ~workload:(Workload.Script [ (100.2, 40); (100.4, 45) ])
      ~stop:(Engine.After_serves 2) ()
  in
  let served_order =
    List.filter_map
      (fun { Trace.event; _ } ->
        match event with Trace.Served { node; _ } -> Some node | _ -> None)
      (Trace.events o.Tokenring.Runner.trace)
  in
  Alcotest.(check (list int)) "FIFO service" [ 40; 45 ] served_order

let test_binsearch_all_requests_served () =
  (* Liveness under sustained load: everything injected gets served. *)
  let o =
    run_with Tr_proto.Binsearch.protocol ~n:32 ~workload:(poisson 3.0)
      ~stop:(Engine.After_serves 500) ()
  in
  Alcotest.(check bool) "served target reached" true (serves o >= 500)

let prop_binsearch_liveness_random_seeds =
  QCheck.Test.make ~name:"binsearch liveness across seeds/loads" ~count:25
    QCheck.(pair small_int (int_range 2 40))
    (fun (seed, mean) ->
      let o =
        run_with Tr_proto.Binsearch.protocol ~n:24 ~seed
          ~workload:(poisson (float_of_int mean))
          ~stop:
            (Engine.First_of
               [ Engine.After_serves 60; Engine.At_time 100000.0 ])
          ()
      in
      serves o >= 60)

let prop_binsearch_deterministic =
  QCheck.Test.make ~name:"identical seeds give identical runs" ~count:10
    QCheck.small_int (fun seed ->
      let run () =
        let o =
          run_with Tr_proto.Binsearch.protocol ~n:16 ~seed
            ~workload:(poisson 4.0) ~stop:(Engine.After_serves 100) ()
        in
        ( o.Tokenring.Runner.duration,
          Metrics.token_messages o.Tokenring.Runner.metrics,
          Metrics.control_messages o.Tokenring.Runner.metrics )
      in
      run () = run ())

let test_binsearch_state_introspection () =
  let module P = (val Tr_proto.Binsearch.make ~throttle:true ()) in
  let module E = Engine.Make (P) in
  let config =
    {
      (Engine.default_config ~n:16 ~seed:0) with
      (* Pin the token far away, then request: the searching flag and
         remote traps become observable. *)
      workload = Workload.Script [ (32.2, 3) ];
    }
  in
  let t = E.create config in
  E.run t ~stop:(Engine.At_time 34.0);
  Alcotest.(check bool) "requester flagged searching" true
    (Tr_proto.Binsearch.is_searching (E.state t 3));
  let trapped_somewhere =
    List.exists
      (fun i -> List.mem 3 (Tr_proto.Binsearch.trap_queue (E.state t i)))
      (List.init 16 (fun i -> i))
  in
  Alcotest.(check bool) "a trap for the requester exists" true trapped_somewhere;
  Alcotest.(check bool) "stamps advanced" true
    (Tr_proto.Binsearch.last_stamp (E.state t 0) > 0)

(* ---------------- throttle / directed / seq-search ---------------- *)

let test_throttle_fewer_messages () =
  (* Hammer one node with bursts so unthrottled search spams. *)
  let workload = Workload.Hotspot { mean_interarrival = 1.0; hot = 7; bias = 0.9 } in
  let run p =
    Metrics.control_messages
      (run_with p ~n:64 ~workload ~stop:(Engine.After_serves 400) ())
        .Tokenring.Runner.metrics
  in
  let plain = run Tr_proto.Binsearch.protocol in
  let throttled = run Tr_proto.Binsearch.protocol_throttled in
  Alcotest.(check bool) "throttling reduces gimmes" true (throttled < plain)

let test_directed_doubles_messages () =
  let run p =
    let o =
      run_with p ~n:64 ~workload:(poisson 20.0) ~stop:(Engine.After_serves 300) ()
    in
    float_of_int (Metrics.control_messages o.Tokenring.Runner.metrics)
    /. float_of_int (serves o)
  in
  let delegated = run Tr_proto.Binsearch.protocol in
  let directed = run Tr_proto.Directed.protocol in
  Alcotest.(check bool) "directed costs more" true (directed > delegated);
  Alcotest.(check bool) "but within ~3x" true (directed < 3.5 *. delegated)

let test_seq_search_linear_messages () =
  let o =
    run_with Tr_proto.Seq_search.protocol ~n:64 ~workload:(poisson 20.0)
      ~stop:(Engine.After_serves 200) ()
  in
  let per_serve =
    float_of_int (Metrics.control_messages o.Tokenring.Runner.metrics)
    /. float_of_int (serves o)
  in
  (* Sequential search burns ~n messages per request. *)
  Alcotest.(check bool) "Θ(n) messages" true (per_serve > 20.0)

let test_seq_search_still_serves () =
  let o =
    run_with Tr_proto.Seq_search.protocol ~n:16 ~workload:(poisson 8.0)
      ~stop:(Engine.After_serves 100) ()
  in
  Alcotest.(check bool) "liveness" true (serves o >= 100)

(* ---------------- cleanup variants ---------------- *)

let test_gc_rotation_serves_and_helps () =
  let run p =
    let o =
      run_with p ~n:64 ~seed:5 ~workload:(poisson 10.0)
        ~stop:(Engine.After_serves 500) ()
    in
    (serves o, Metrics.token_messages o.Tokenring.Runner.metrics)
  in
  let s_plain, _ = run Tr_proto.Binsearch.protocol in
  let s_gc, _ = run Tr_proto.Cleanup.protocol_rotation in
  Alcotest.(check bool) "plain liveness" true (s_plain >= 500);
  Alcotest.(check bool) "gc liveness" true (s_gc >= 500)

let test_gc_rotation_fewer_stale_loans () =
  (* Stale traps cause loans to nodes with nothing pending. Count loans
     via possessions: each wasted loan adds 2 possessions. Under bursty
     traffic the collector should not do worse than the base. *)
  let run p =
    let o =
      run_with p ~n:64 ~seed:5
        ~workload:(Workload.Burst { period = 30.0; size = 6 })
        ~stop:(Engine.After_serves 300) ()
    in
    Metrics.total_possessions o.Tokenring.Runner.metrics
  in
  let plain = run Tr_proto.Binsearch.protocol in
  let collected = run Tr_proto.Cleanup.protocol_rotation in
  Alcotest.(check bool) "not more wasted possessions" true
    (collected <= plain + (plain / 10))

let test_gc_inverse_serves () =
  let o =
    run_with Tr_proto.Cleanup.protocol_inverse ~n:32 ~workload:(poisson 10.0)
      ~stop:(Engine.After_serves 300) ()
  in
  Alcotest.(check bool) "liveness" true (serves o >= 300)

(* ---------------- adaptive ---------------- *)

let test_adaptive_matches_binsearch_under_load () =
  let run p =
    mean_resp
      (run_with p ~n:64 ~workload:(poisson 5.0) ~stop:(Engine.After_serves 400) ())
  in
  let bin = run Tr_proto.Binsearch.protocol in
  let ad = run Tr_proto.Adaptive.protocol in
  Alcotest.(check (float 0.5)) "same hot-path behaviour" bin ad

let test_adaptive_saves_idle_messages () =
  let run p =
    let o =
      run_with p ~n:64
        ~workload:(poisson 400.0)
        ~stop:(Engine.First_of [ Engine.After_serves 60; Engine.At_time 50000.0 ])
        ()
    in
    ( Metrics.token_messages o.Tokenring.Runner.metrics,
      o.Tokenring.Runner.duration )
  in
  let ring_msgs, ring_t = run Tr_proto.Ring.protocol in
  let ad_msgs, ad_t = run Tr_proto.Adaptive.protocol in
  let ring_rate = float_of_int ring_msgs /. ring_t in
  let ad_rate = float_of_int ad_msgs /. ad_t in
  Alcotest.(check bool) "idle token traffic at least halved" true
    (ad_rate < 0.5 *. ring_rate)

let test_adaptive_responsiveness_still_good_when_idle () =
  let o =
    run_with Tr_proto.Adaptive.protocol ~n:64 ~workload:(poisson 400.0)
      ~stop:(Engine.First_of [ Engine.After_serves 50; Engine.At_time 80000.0 ])
      ()
  in
  Alcotest.(check bool) "bounded by ~2 log n + idle delay" true
    (mean_resp o < (2.0 *. log2 64.0) +. 8.0)

let test_adaptive_parks_state_visible () =
  let module P = (val Tr_proto.Adaptive.make ~idle_delay:6.0 ()) in
  let module E = Engine.Make (P) in
  let t = E.create (Engine.default_config ~n:8 ~seed:0) in
  (* With zero demand, after a full idle revolution some node is parked. *)
  E.run t ~stop:(Engine.At_time 40.0);
  let parked =
    List.exists (fun i -> Tr_proto.Adaptive.is_parked (E.state t i))
      (List.init 8 (fun i -> i))
  in
  Alcotest.(check bool) "token parked somewhere" true parked

(* ---------------- pushpull ---------------- *)

let test_pushpull_parks_token () =
  let o =
    run_with Tr_proto.Pushpull.protocol ~n:32 ~workload:(poisson 100.0)
      ~stop:(Engine.First_of [ Engine.After_serves 50; Engine.At_time 50000.0 ])
      ()
  in
  let per_serve =
    float_of_int (Metrics.token_messages o.Tokenring.Runner.metrics)
    /. float_of_int (serves o)
  in
  Alcotest.(check bool) "liveness" true (serves o >= 50);
  Alcotest.(check bool) "O(1) expensive messages per serve" true (per_serve < 5.0)

let test_pushpull_parked_immediately () =
  let module P = (val Tr_proto.Pushpull.make ()) in
  let module E = Engine.Make (P) in
  let t = E.create (Engine.default_config ~n:6 ~seed:0) in
  E.run t ~stop:(Engine.At_time 1.0);
  Alcotest.(check bool) "initial holder parks" true
    (Tr_proto.Pushpull.is_parked (E.state t 0))

let test_pushpull_under_load () =
  let o =
    run_with Tr_proto.Pushpull.protocol ~n:32 ~workload:(poisson 3.0)
      ~stop:(Engine.After_serves 300) ()
  in
  Alcotest.(check bool) "liveness under load" true (serves o >= 300)

(* ---------------- failure ---------------- *)

let test_failsafe_no_crash_baseline () =
  let o =
    run_with Tr_proto.Failure.protocol ~n:24 ~workload:(poisson 10.0)
      ~stop:(Engine.After_serves 200) ()
  in
  Alcotest.(check bool) "serves fine" true (serves o >= 200)

let test_failsafe_nonholder_crash () =
  (* Crash a node while the token is elsewhere: hop acknowledgements
     route around it, no regeneration needed. *)
  let module P = (val Tr_proto.Failure.make ()) in
  let module E = Engine.Make (P) in
  let config =
    {
      (Engine.default_config ~n:12 ~seed:2) with
      workload = poisson 10.0;
      (* node 9 holds around t = 1.5*9 - 0.5; crash it while the token is
         far away (just after it passed, t = 14). *)
      crashes = [ (14.0, 9) ];
    }
  in
  let t = E.create config in
  E.run t ~stop:(Engine.First_of [ Engine.After_serves 150; Engine.At_time 50000.0 ]);
  Alcotest.(check bool) "service continues" true (Metrics.serves (E.metrics t) >= 150);
  let max_gen =
    List.fold_left
      (fun acc i ->
        if E.crashed t i then acc
        else Stdlib.max acc (Tr_proto.Failure.generation (E.state t i)))
      0
      (List.init 12 (fun i -> i))
  in
  Alcotest.(check int) "no regeneration needed" 1 max_gen

let test_failsafe_holder_crash_regenerates () =
  let module P = (val Tr_proto.Failure.make ()) in
  let module E = Engine.Make (P) in
  let config =
    {
      (Engine.default_config ~n:12 ~seed:2) with
      workload = poisson 10.0;
      (* node 4 holds during [1.5*4 - 0.5, 1.5*4) = [5.5, 6). *)
      crashes = [ (5.7, 4) ];
    }
  in
  let t = E.create config in
  E.run t ~stop:(Engine.First_of [ Engine.After_serves 150; Engine.At_time 50000.0 ]);
  Alcotest.(check bool) "service recovers" true (Metrics.serves (E.metrics t) >= 150);
  let max_gen =
    List.fold_left
      (fun acc i ->
        if E.crashed t i then acc
        else Stdlib.max acc (Tr_proto.Failure.generation (E.state t i)))
      0
      (List.init 12 (fun i -> i))
  in
  Alcotest.(check bool) "token regenerated" true (max_gen >= 2)

let test_failsafe_two_crashes () =
  let module P = (val Tr_proto.Failure.make ()) in
  let module E = Engine.Make (P) in
  let config =
    {
      (Engine.default_config ~n:16 ~seed:4) with
      workload = poisson 8.0;
      crashes = [ (5.7, 4); (200.0, 10) ];
    }
  in
  let t = E.create config in
  E.run t ~stop:(Engine.First_of [ Engine.After_serves 120; Engine.At_time 80000.0 ]);
  Alcotest.(check bool) "survives two failures" true (Metrics.serves (E.metrics t) >= 120)

(* ---------------- failsafe binsearch ---------------- *)

let test_failsafe_search_baseline () =
  let o =
    run_with Tr_proto.Failsafe_search.protocol ~n:24 ~workload:(poisson 10.0)
      ~stop:(Engine.First_of [ Engine.After_serves 200; Engine.At_time 80000.0 ])
      ()
  in
  Alcotest.(check bool) "serves without crashes" true (serves o >= 200)

let test_failsafe_search_still_logarithmic () =
  (* Hardening must not destroy the headline property: light-load
     responsiveness stays well under the ring's N/2. *)
  let o =
    run_with Tr_proto.Failsafe_search.protocol ~n:64 ~workload:(poisson 100.0)
      ~stop:(Engine.First_of [ Engine.After_serves 100; Engine.At_time 80000.0 ])
      ()
  in
  (* Hops cost 1 + 0.5 hold, so the scale stretches by 1.5x; still far
     from the ring's ~48. *)
  Alcotest.(check bool) "responsiveness ~ log n, not ~ n/2" true
    (mean_resp o < 20.0)

let test_failsafe_search_holder_crash () =
  let module P = (val Tr_proto.Failsafe_search.make ()) in
  let module E = Engine.Make (P) in
  let config =
    {
      (Engine.default_config ~n:12 ~seed:6) with
      workload = poisson 10.0;
      (* Node 0 holds [0, 0.5); node k is delivered the token at 1.5k and
         holds [1.5k, 1.5k + 0.5). Crash node 4 inside its hold window —
         after it has acknowledged receipt — so the token is genuinely
         lost (an in-flight loss would be masked by the Ack machinery). *)
      crashes = [ (6.2, 4) ];
    }
  in
  let t = E.create config in
  E.run t ~stop:(Engine.First_of [ Engine.After_serves 150; Engine.At_time 80000.0 ]);
  Alcotest.(check bool) "service recovers" true (Metrics.serves (E.metrics t) >= 150);
  let max_gen =
    List.fold_left
      (fun acc i ->
        if E.crashed t i then acc
        else Stdlib.max acc (Tr_proto.Failsafe_search.generation (E.state t i)))
      0
      (List.init 12 (fun i -> i))
  in
  Alcotest.(check bool) "token regenerated" true (max_gen >= 2)

let test_failsafe_search_inflight_loss_masked () =
  (* Crash node 4 just BEFORE the token reaches it: the delivery is
     dropped, the predecessor's missing Ack re-routes around the corpse,
     and no regeneration is ever needed (generation stays 1). *)
  let module P = (val Tr_proto.Failsafe_search.make ()) in
  let module E = Engine.Make (P) in
  let config =
    {
      (Engine.default_config ~n:12 ~seed:6) with
      workload = poisson 10.0;
      crashes = [ (5.7, 4) ];
    }
  in
  let t = E.create config in
  E.run t ~stop:(Engine.First_of [ Engine.After_serves 150; Engine.At_time 80000.0 ]);
  Alcotest.(check bool) "service continues" true (Metrics.serves (E.metrics t) >= 150);
  let max_gen =
    List.fold_left
      (fun acc i ->
        if E.crashed t i then acc
        else Stdlib.max acc (Tr_proto.Failsafe_search.generation (E.state t i)))
      0
      (List.init 12 (fun i -> i))
  in
  Alcotest.(check int) "acks recovered it without regeneration" 1 max_gen

let test_failsafe_search_borrower_crash () =
  (* Crash a node that is about to be served via a loan: schedule its
     request, then kill it while the loan is in flight / in use. The
     lender's loan timer must reissue the token and service continue. *)
  let module P = (val Tr_proto.Failsafe_search.make ()) in
  let module E = Engine.Make (P) in
  let config =
    {
      (Engine.default_config ~n:16 ~seed:3) with
      workload =
        Workload.Script
          (List.init 40 (fun i -> (20.0 +. (5.0 *. float_of_int i), (i * 7) mod 16)));
      (* Node 9 requests at some point; crash it shortly after one of its
         requests so a loan can be lost. *)
      crashes = [ (62.3, 9) ];
    }
  in
  let t = E.create config in
  E.run t
    ~stop:(Engine.First_of [ Engine.After_serves 30; Engine.At_time 80000.0 ]);
  (* All requests at live nodes get served; node 9's own post-crash
     requests are never injected. *)
  Alcotest.(check bool) "service continues past the lost loan" true
    (Metrics.serves (E.metrics t) >= 30)

(* ---------------- tree ---------------- *)

let test_tree_serves () =
  let o =
    run_with Tr_proto.Tree.protocol ~n:31 ~workload:(poisson 5.0)
      ~stop:(Engine.After_serves 300) ()
  in
  Alcotest.(check bool) "liveness" true (serves o >= 300)

let test_tree_message_bound () =
  let o =
    run_with Tr_proto.Tree.protocol ~n:63 ~workload:(poisson 30.0)
      ~stop:(Engine.After_serves 200) ()
  in
  let m = o.Tokenring.Runner.metrics in
  let msgs_per_serve =
    float_of_int (Metrics.token_messages m + Metrics.control_messages m)
    /. float_of_int (serves o)
  in
  (* Raymond's bound: ~4 log n messages per CS on a balanced tree. *)
  Alcotest.(check bool) "O(log n) messages" true
    (msgs_per_serve < 4.0 *. log2 63.0)

let test_tree_concentrates_load () =
  let run p =
    let o =
      run_with p ~n:63 ~seed:3 ~workload:(poisson 5.0)
        ~stop:(Engine.After_serves 400) ()
    in
    Metrics.possession_imbalance o.Tokenring.Runner.metrics
  in
  let tree = run Tr_proto.Tree.protocol in
  let ring = run Tr_proto.Ring.protocol in
  Alcotest.(check bool) "tree concentrates possessions" true (tree > 2.0 *. ring)

let test_tree_single_request () =
  let o = single_request Tr_proto.Tree.protocol ~n:31 ~node:30 in
  Alcotest.(check int) "served" 1 (serves o);
  (* Tree diameter is 2 log n; waiting should be well under a ring trip. *)
  Alcotest.(check bool) "short wait" true (max_wait o < 31.0)

(* ---------------- suzuki-kasami ---------------- *)

let test_sk_liveness () =
  let o =
    run_with Tr_proto.Suzuki_kasami.protocol ~n:16 ~workload:(poisson 5.0)
      ~stop:(Engine.After_serves 300) ()
  in
  Alcotest.(check bool) "liveness" true (serves o >= 300)

let test_sk_broadcast_cost () =
  let o =
    run_with Tr_proto.Suzuki_kasami.protocol ~n:32 ~workload:(poisson 20.0)
      ~stop:(Engine.After_serves 200) ()
  in
  let per_serve =
    float_of_int (Metrics.control_messages o.Tokenring.Runner.metrics)
    /. float_of_int (serves o)
  in
  (* Each request broadcasts to n-1 = 31 nodes; coalescing when the
     holder serves its own requests can only lower it. *)
  Alcotest.(check bool) "~n-1 control messages per serve" true
    (per_serve > 20.0 && per_serve < 35.0)

let test_sk_parks_when_idle () =
  let o =
    run_with Tr_proto.Suzuki_kasami.protocol ~n:32
      ~workload:(poisson 200.0)
      ~stop:(Engine.First_of [ Engine.After_serves 40; Engine.At_time 50000.0 ])
      ()
  in
  let per_serve =
    float_of_int (Metrics.token_messages o.Tokenring.Runner.metrics)
    /. float_of_int (serves o)
  in
  Alcotest.(check bool) "at most ~1 token transfer per serve" true
    (per_serve <= 1.2)

let test_sk_fifo_grants () =
  (* Two far requests while the token is parked at node 0: they are
     granted in request order. *)
  let o =
    run_with Tr_proto.Suzuki_kasami.protocol ~n:16 ~trace:true
      ~workload:(Workload.Script [ (10.0, 7); (10.5, 12) ])
      ~stop:(Engine.After_serves 2) ()
  in
  let served_order =
    List.filter_map
      (fun { Trace.event; _ } ->
        match event with Trace.Served { node; _ } -> Some node | _ -> None)
      (Trace.events o.Tokenring.Runner.trace)
  in
  Alcotest.(check (list int)) "grant order" [ 7; 12 ] served_order

(* ---------------- heterogeneous links / fairness ---------------- *)

let test_ring_waiting_fairness () =
  let o =
    run_with Tr_proto.Ring.protocol ~n:32 ~workload:(poisson 5.0)
      ~stop:(Engine.After_serves 600) ()
  in
  (* The rotating token gives every node the same expected wait. *)
  Alcotest.(check bool) "Jain index ~ 1" true
    (Metrics.waiting_fairness o.Tokenring.Runner.metrics > 0.85)

let test_binsearch_on_heterogeneous_links () =
  (* One pathologically slow node (all its outgoing links take 5 units):
     the protocol must stay live and safe, just slower through that arc. *)
  let network =
    Network.create
      ~reliable_delay:
        (Network.Per_link (fun ~src ~dst:_ -> if src = 5 then 5.0 else 1.0))
      ~cheap_delay:
        (Network.Per_link (fun ~src ~dst:_ -> if src = 5 then 5.0 else 1.0))
      ()
  in
  let o =
    run_with Tr_proto.Binsearch.protocol ~n:16 ~network ~workload:(poisson 8.0)
      ~stop:(Engine.First_of [ Engine.After_serves 150; Engine.At_time 50000.0 ])
      ()
  in
  Alcotest.(check bool) "liveness through the slow node" true (serves o >= 150)

let test_tree_waiting_less_fair_than_ring () =
  (* Leaves of the Raymond tree wait longer than interior nodes under
     contention; the ring treats everyone alike. *)
  let run p =
    Metrics.waiting_fairness
      (run_with p ~n:31 ~seed:9 ~workload:(poisson 3.0)
         ~stop:(Engine.After_serves 600) ())
        .Tokenring.Runner.metrics
  in
  let ring = run Tr_proto.Ring.protocol in
  let tree = run Tr_proto.Tree.protocol in
  Alcotest.(check bool) "ring at least as fair" true (ring >= tree -. 0.05)

(* ---------------- membership ---------------- *)

let test_membership_defaults_to_ring () =
  let o =
    run_with Tr_proto.Membership.protocol ~n:16 ~workload:(poisson 8.0)
      ~stop:(Engine.After_serves 100) ()
  in
  Alcotest.(check bool) "liveness" true (serves o >= 100)

let test_membership_join () =
  (* Start with 4 members of 8; nodes 5 and 7 join at t=20/40. Requests
     at the joiners (scripted after their joins) must be served, and the
     token must visit them. *)
  let module P =
    (val Tr_proto.Membership.make ~initial_members:4
           ~joins:[ (5, 20.0); (7, 40.0) ] ())
  in
  let module E = Engine.Make (P) in
  let config =
    {
      (Engine.default_config ~n:8 ~seed:3) with
      workload = Workload.Script [ (60.0, 5); (62.0, 7); (64.0, 2) ];
      trace = true;
    }
  in
  let t = E.create config in
  E.run t ~stop:(Engine.First_of [ Engine.After_serves 3; Engine.At_time 500.0 ]);
  Alcotest.(check int) "all three served" 3 (Metrics.serves (E.metrics t));
  Alcotest.(check bool) "node 5 is a member" true
    (Tr_proto.Membership.is_member (E.state t 5));
  Alcotest.(check bool) "node 7 is a member" true
    (Tr_proto.Membership.is_member (E.state t 7));
  let visited =
    List.sort_uniq compare (List.map snd (Trace.token_possessions (E.trace t)))
  in
  Alcotest.(check bool) "token visited the joiners" true
    (List.mem 5 visited && List.mem 7 visited);
  Alcotest.(check bool) "dormant node 6 never visited" true
    (not (List.mem 6 visited))

let test_membership_leave () =
  (* Node 2 leaves at t=30; after the departure the token never visits
     it again and the remaining members keep being served. *)
  let module P = (val Tr_proto.Membership.make ~leaves:[ (2, 30.0) ] ()) in
  let module E = Engine.Make (P) in
  let config =
    {
      (Engine.default_config ~n:6 ~seed:4) with
      workload = Workload.Global_poisson { mean_interarrival = 10.0 };
      trace = true;
    }
  in
  let t = E.create config in
  E.run t ~stop:(Engine.First_of [ Engine.After_serves 80; Engine.At_time 5000.0 ]);
  Alcotest.(check bool) "service continues" true (Metrics.serves (E.metrics t) >= 80);
  Alcotest.(check bool) "node 2 left" false
    (Tr_proto.Membership.is_member (E.state t 2));
  let late_visits_to_2 =
    List.filter
      (fun (time, node) -> node = 2 && time > 50.0)
      (Trace.token_possessions (E.trace t))
  in
  Alcotest.(check (list (pair (float 1e-9) int))) "no visits after leaving" []
    late_visits_to_2

let test_membership_churn () =
  (* Joins and leaves interleaved under load: nothing deadlocks and the
     serve stream keeps flowing. *)
  let module P =
    (val Tr_proto.Membership.make ~initial_members:6
           ~joins:[ (6, 15.0); (7, 35.0); (8, 55.0) ]
           ~leaves:[ (1, 25.0); (3, 45.0); (7, 90.0) ]
           ())
  in
  let module E = Engine.Make (P) in
  let config =
    {
      (Engine.default_config ~n:10 ~seed:5) with
      (* Steer requests to nodes that are members for the whole run. *)
      workload =
        Workload.Script
          (List.init 40 (fun i -> (10.0 +. (7.0 *. float_of_int i), [| 0; 2; 4; 5 |].(i mod 4))));
    }
  in
  let t = E.create config in
  E.run t ~stop:(Engine.First_of [ Engine.After_serves 40; Engine.At_time 5000.0 ]);
  Alcotest.(check int) "everything served through churn" 40
    (Metrics.serves (E.metrics t));
  Alcotest.(check bool) "node 6 in" true (Tr_proto.Membership.is_member (E.state t 6));
  Alcotest.(check bool) "node 1 out" false (Tr_proto.Membership.is_member (E.state t 1));
  Alcotest.(check bool) "node 7 joined then left" false
    (Tr_proto.Membership.is_member (E.state t 7))

let test_membership_invalid_schedules () =
  let expect_invalid name make_fn =
    Alcotest.(check bool) name true
      (try
         let module P = (val (make_fn () : (module Node_intf.PROTOCOL
                                             with type state = Tr_proto.Membership.state
                                              and type msg = Tr_proto.Membership.msg))) in
         let module E = Engine.Make (P) in
         ignore (E.create (Engine.default_config ~n:6 ~seed:0));
         false
       with Invalid_argument _ -> true)
  in
  expect_invalid "contact cannot leave" (fun () ->
      Tr_proto.Membership.make ~leaves:[ (0, 5.0) ] ());
  expect_invalid "initial member cannot join" (fun () ->
      Tr_proto.Membership.make ~initial_members:4 ~joins:[ (2, 5.0) ] ());
  expect_invalid "contact must be member" (fun () ->
      Tr_proto.Membership.make ~initial_members:2 ~contact:5 ())

(* ---------------- cross-protocol properties ---------------- *)

let all_protocols =
  List.map
    (fun e -> (e.Tokenring.Registry.name, e.Tokenring.Registry.protocol))
    Tokenring.Registry.all

let test_every_protocol_serves_everything () =
  List.iter
    (fun (name, p) ->
      let o =
        run_with p ~n:16 ~seed:8 ~workload:(poisson 12.0)
          ~stop:(Engine.First_of [ Engine.After_serves 80; Engine.At_time 60000.0 ])
          ()
      in
      if serves o < 80 then
        Alcotest.failf "%s starved: only %d serves" name (serves o))
    all_protocols

let test_every_protocol_single_shot () =
  List.iter
    (fun (name, p) ->
      let o = single_request p ~n:16 ~node:9 in
      if serves o <> 1 then Alcotest.failf "%s failed to serve one request" name)
    all_protocols

let prop_membership_random_churn =
  QCheck.Test.make ~name:"membership survives random join/leave schedules"
    ~count:12
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let rng = Tr_sim.Rng.create seed in
      let n = 10 in
      let initial = 5 in
      (* Random joiners from the dormant pool, random leavers from the
         non-contact initial members, at staggered random times. *)
      let joins =
        List.filter (fun _ -> Tr_sim.Rng.bool rng) [ 5; 6; 7; 8; 9 ]
        |> List.mapi (fun i node -> (node, 15.0 +. (20.0 *. float_of_int i)))
      in
      ignore initial;
      let leaves =
        List.filter (fun _ -> Tr_sim.Rng.bool rng) [ 1; 2; 3 ]
        |> List.mapi (fun i node -> (node, 25.0 +. (30.0 *. float_of_int i)))
      in
      let module P =
        (val Tr_proto.Membership.make ~initial_members:5 ~joins ~leaves ())
      in
      let module E = Engine.Make (P) in
      (* Requests only at nodes that are members throughout: 0 and 4. *)
      let config =
        {
          (Engine.default_config ~n ~seed) with
          workload =
            Workload.Script
              (List.init 20 (fun i ->
                   (10.0 +. (8.0 *. float_of_int i), if i mod 2 = 0 then 0 else 4)));
        }
      in
      let t = E.create config in
      E.run t
        ~stop:(Engine.First_of [ Engine.After_serves 20; Engine.At_time 5000.0 ]);
      Metrics.serves (E.metrics t) >= 20)

let prop_metric_invariants =
  QCheck.Test.make ~name:"metric invariants across protocols and loads" ~count:10
    QCheck.(pair (int_range 1 500) (int_range 2 30))
    (fun (seed, mean) ->
      List.for_all
        (fun (_, p) ->
          let o =
            run_with p ~n:16 ~seed
              ~workload:(poisson (float_of_int mean))
              ~stop:
                (Engine.First_of
                   [ Engine.After_serves 50; Engine.At_time 40000.0 ])
              ()
          in
          let m = o.Tokenring.Runner.metrics in
          let resp = Metrics.responsiveness m in
          let wait = Metrics.waiting m in
          Tr_stats.Summary.min resp >= 0.0
          && Tr_stats.Summary.min wait >= 0.0
          && Metrics.serves m <= Metrics.serves m + Metrics.total_pending m
          && Metrics.cheap_messages m
             <= Metrics.token_messages m + Metrics.control_messages m
          && Metrics.total_possessions m >= 0)
        all_protocols)

let prop_every_protocol_random_burst =
  QCheck.Test.make ~name:"all protocols survive random bursts" ~count:8
    QCheck.(int_range 1 1000)
    (fun seed ->
      List.for_all
        (fun (_, p) ->
          let o =
            run_with p ~n:16 ~seed
              ~workload:(Workload.Burst { period = 25.0; size = 5 })
              ~stop:
                (Engine.First_of
                   [ Engine.After_serves 40; Engine.At_time 50000.0 ])
              ()
          in
          serves o >= 40)
        all_protocols)

(* ---------------- trap queue ---------------- *)

(* The trap queue as first written, appending with [@] and keeping an
   [ISet] for membership: the reference the two-list queue must match
   operation for operation. *)
module Ref_traps = struct
  module ISet = Set.Make (Int)

  type t = { fifo : int list; members : ISet.t }

  let empty = { fifo = []; members = ISet.empty }
  let is_empty t = t.fifo = []
  let mem t r = ISet.mem r t.members

  let push t r =
    if mem t r then t
    else { fifo = t.fifo @ [ r ]; members = ISet.add r t.members }

  let pop t =
    match t.fifo with
    | [] -> None
    | r :: rest -> Some (r, { fifo = rest; members = ISet.remove r t.members })

  let to_list t = t.fifo
  let size t = List.length t.fifo
end

module Traps = Tr_proto.Proto_util.Traps

let check_traps what ~probes q r =
  Alcotest.(check (list int)) (what ^ " to_list") (Ref_traps.to_list r)
    (Traps.to_list q);
  Alcotest.(check int) (what ^ " size") (Ref_traps.size r) (Traps.size q);
  Alcotest.(check bool) (what ^ " is_empty") (Ref_traps.is_empty r)
    (Traps.is_empty q);
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (what ^ " mem") (Ref_traps.mem r id) (Traps.mem q id))
    probes

(* Pop both to empty; each pop must agree. Run on an old version, it
   also checks persistence: newer versions were made from it since. *)
let drain_traps what q r =
  let rec go q r =
    match (Traps.pop q, Ref_traps.pop r) with
    | None, None -> ()
    | Some (x, q), Some (y, r) ->
        Alcotest.(check int) (what ^ " pop") y x;
        go q r
    | _ -> Alcotest.fail (what ^ ": one queue emptied first")
  in
  go q r

let test_traps_model () =
  let rng = Rng.create 41 in
  (* Ids < 1024; half come from a window of 32 so that pushes of a
     member, which must be no-ops, are frequent. *)
  let draw () = if Rng.bool rng then Rng.int rng 32 else Rng.int rng 1024 in
  let q = ref Traps.empty and r = ref Ref_traps.empty in
  let saved = ref [] in
  for step = 1 to 20_000 do
    (* Mostly pushes in the first half, mostly pops in the second. *)
    let push_bias = if step < 10_000 then 6 else 4 in
    let id =
      if Rng.int rng 10 < push_bias then begin
        let id = draw () in
        q := Traps.push !q id;
        r := Ref_traps.push !r id;
        id
      end
      else
        match (Traps.pop !q, Ref_traps.pop !r) with
        | None, None -> -1
        | Some (x, q'), Some (y, r') ->
            Alcotest.(check int) "pop" y x;
            q := q';
            r := r';
            x
        | _ -> Alcotest.fail "one queue emptied first"
    in
    check_traps "step" ~probes:[ id; draw () ] !q !r;
    if step mod 500 = 0 then saved := (!q, !r) :: !saved
  done;
  List.iter
    (fun (q, r) ->
      check_traps "old version" ~probes:[ draw (); draw () ] q r;
      drain_traps "old version" q r)
    !saved;
  drain_traps "final" !q !r

(* ---------------- behaviour at benchmark scale ---------------- *)

(* Binsearch and directed at N = 1024 under Figure 9's load, the scale
   the benchmark runs at (the goldens are n = 8 or quick sweeps). The
   expected values were captured from the list-append trap queue and the
   boxed engine clock; any change to a decision the simulator takes
   moves at least one of them. Floats are compared exactly. *)
let pinned_at_scale protocol ~events ~tokens ~controls ~forwards ~p50 ~p99
    ~mean () =
  let o =
    run_with protocol ~n:1024 ~seed:7 ~workload:(poisson 10.0)
      ~stop:(Engine.After_serves 20_000) ()
  in
  let m = o.Tokenring.Runner.metrics in
  let wait q = Tr_stats.Quantile.quantile (Metrics.waiting_quantiles m) q in
  let exact = Alcotest.float 0.0 in
  Alcotest.(check int) "serves" 20_000 (serves o);
  Alcotest.(check int) "events" events o.Tokenring.Runner.events;
  Alcotest.(check int) "token messages" tokens (Metrics.token_messages m);
  Alcotest.(check int) "control messages" controls (Metrics.control_messages m);
  Alcotest.(check int) "search forwards" forwards (Metrics.search_forwards m);
  Alcotest.check exact "waiting p50" p50 (wait 0.5);
  Alcotest.check exact "waiting p99" p99 (wait 0.99);
  Alcotest.check exact "mean responsiveness" mean (mean_resp o)

let test_binsearch_pinned_at_scale =
  pinned_at_scale Tr_proto.Binsearch.protocol ~events:402_449 ~tokens:201_622
    ~controls:180_825 ~forwards:180_822 ~p50:0x1.3fc45392d8ep+5
    ~p99:0x1.e5232ce0965cfp+6 ~mean:0x1.2ed9a452e34f6p+3

let test_directed_pinned_at_scale =
  pinned_at_scale Tr_proto.Directed.protocol ~events:618_302 ~tokens:201_699
    ~controls:396_592 ~forwards:198_296 ~p50:0x1.fcfa00a897p+5
    ~p99:0x1.8683e0d724414p+7 ~mean:0x1.3da1ea4f17659p+3

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "proto"
    [
      ( "ring",
        [
          Alcotest.test_case "wait = distance" `Quick test_ring_wait_equals_distance;
          Alcotest.test_case "linear scaling" `Quick test_ring_linear_scaling;
          Alcotest.test_case "no control messages" `Quick test_ring_no_control_messages;
          Alcotest.test_case "possession balance" `Quick test_ring_possession_balance;
        ] );
      ( "binsearch",
        [
          Alcotest.test_case "log wait" `Quick test_binsearch_log_wait;
          Alcotest.test_case "log forwards (Lemma 6)" `Quick
            test_binsearch_forwards_logarithmic;
          Alcotest.test_case "beats ring under load" `Quick
            test_binsearch_beats_ring_under_load;
          Alcotest.test_case "trap FIFO (Theorem 2)" `Quick test_binsearch_trap_fifo;
          Alcotest.test_case "all served" `Quick test_binsearch_all_requests_served;
          Alcotest.test_case "state introspection" `Quick
            test_binsearch_state_introspection;
        ]
        @ qsuite [ prop_binsearch_liveness_random_seeds; prop_binsearch_deterministic ]
      );
      ( "variants",
        [
          Alcotest.test_case "throttle reduces messages" `Quick
            test_throttle_fewer_messages;
          Alcotest.test_case "directed ~2x messages" `Quick
            test_directed_doubles_messages;
          Alcotest.test_case "seq-search Θ(n) messages" `Quick
            test_seq_search_linear_messages;
          Alcotest.test_case "seq-search liveness" `Quick test_seq_search_still_serves;
        ] );
      ( "cleanup",
        [
          Alcotest.test_case "gc-rotation liveness" `Quick
            test_gc_rotation_serves_and_helps;
          Alcotest.test_case "gc-rotation fewer stale loans" `Quick
            test_gc_rotation_fewer_stale_loans;
          Alcotest.test_case "gc-inverse liveness" `Quick test_gc_inverse_serves;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "hot path unchanged" `Quick
            test_adaptive_matches_binsearch_under_load;
          Alcotest.test_case "idle savings" `Quick test_adaptive_saves_idle_messages;
          Alcotest.test_case "idle responsiveness" `Quick
            test_adaptive_responsiveness_still_good_when_idle;
          Alcotest.test_case "parked state visible" `Quick
            test_adaptive_parks_state_visible;
        ] );
      ( "pushpull",
        [
          Alcotest.test_case "parks token" `Quick test_pushpull_parks_token;
          Alcotest.test_case "parked immediately" `Quick
            test_pushpull_parked_immediately;
          Alcotest.test_case "under load" `Quick test_pushpull_under_load;
        ] );
      ( "failure",
        [
          Alcotest.test_case "no crash baseline" `Quick test_failsafe_no_crash_baseline;
          Alcotest.test_case "non-holder crash" `Quick test_failsafe_nonholder_crash;
          Alcotest.test_case "holder crash regenerates" `Quick
            test_failsafe_holder_crash_regenerates;
          Alcotest.test_case "two crashes" `Quick test_failsafe_two_crashes;
        ] );
      ( "failsafe-binsearch",
        [
          Alcotest.test_case "baseline" `Quick test_failsafe_search_baseline;
          Alcotest.test_case "still logarithmic" `Quick
            test_failsafe_search_still_logarithmic;
          Alcotest.test_case "holder crash" `Quick test_failsafe_search_holder_crash;
          Alcotest.test_case "in-flight loss masked" `Quick
            test_failsafe_search_inflight_loss_masked;
          Alcotest.test_case "borrower crash" `Quick
            test_failsafe_search_borrower_crash;
        ] );
      ( "tree",
        [
          Alcotest.test_case "liveness" `Quick test_tree_serves;
          Alcotest.test_case "message bound" `Quick test_tree_message_bound;
          Alcotest.test_case "concentrates load" `Quick test_tree_concentrates_load;
          Alcotest.test_case "single request" `Quick test_tree_single_request;
        ] );
      ( "suzuki-kasami",
        [
          Alcotest.test_case "liveness" `Quick test_sk_liveness;
          Alcotest.test_case "broadcast cost" `Quick test_sk_broadcast_cost;
          Alcotest.test_case "parks when idle" `Quick test_sk_parks_when_idle;
          Alcotest.test_case "fifo grants" `Quick test_sk_fifo_grants;
        ] );
      ( "fairness-links",
        [
          Alcotest.test_case "ring waiting fairness" `Quick
            test_ring_waiting_fairness;
          Alcotest.test_case "heterogeneous links" `Quick
            test_binsearch_on_heterogeneous_links;
          Alcotest.test_case "tree less fair" `Quick
            test_tree_waiting_less_fair_than_ring;
        ] );
      ( "membership",
        [
          Alcotest.test_case "defaults to ring" `Quick test_membership_defaults_to_ring;
          Alcotest.test_case "join" `Quick test_membership_join;
          Alcotest.test_case "leave" `Quick test_membership_leave;
          Alcotest.test_case "churn" `Quick test_membership_churn;
          Alcotest.test_case "invalid schedules" `Quick
            test_membership_invalid_schedules;
        ]
        @ qsuite [ prop_membership_random_churn ] );
      ( "traps",
        [ Alcotest.test_case "model and persistence" `Quick test_traps_model ]
      );
      ( "scale",
        [
          Alcotest.test_case "binsearch N=1024 pinned" `Quick
            test_binsearch_pinned_at_scale;
          Alcotest.test_case "directed N=1024 pinned" `Quick
            test_directed_pinned_at_scale;
        ] );
      ( "cross-protocol",
        [
          Alcotest.test_case "everyone serves" `Quick
            test_every_protocol_serves_everything;
          Alcotest.test_case "single shot" `Quick test_every_protocol_single_shot;
        ]
        @ qsuite [ prop_every_protocol_random_burst; prop_metric_invariants ] );
    ]
