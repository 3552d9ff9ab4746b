(* Unit and property tests for Tr_sim: RNG, priority queue, network
   model, workloads, metrics semantics, traces, and the event engine. *)

open Tr_sim

let check_float = Alcotest.(check (float 1e-9))

(* ---------------- Rng ---------------- *)

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_changes_stream () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 20 do
    if not (Int64.equal (Rng.bits64 a) (Rng.bits64 b)) then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_rng_int_invalid () =
  let r = Rng.create 0 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound <= 0")
    (fun () -> ignore (Rng.int r 0))

let test_rng_exponential_mean () =
  let r = Rng.create 7 in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.exponential r ~mean:5.0 in
    if x <= 0.0 then Alcotest.fail "exponential must be positive";
    total := !total +. x
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean ~ 5" true (mean > 4.7 && mean < 5.3)

let test_rng_shuffle_permutation () =
  let r = Rng.create 3 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_split_independent () =
  let a = Rng.create 11 in
  let b = Rng.split a in
  let xa = Rng.bits64 a and xb = Rng.bits64 b in
  Alcotest.(check bool) "split streams differ" false (Int64.equal xa xb)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int within [0,bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let x = Rng.int r bound in
      x >= 0 && x < bound)

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"Rng.float within [0,bound)" ~count:500
    QCheck.(pair small_int (float_range 0.001 1000.0))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let x = Rng.float r bound in
      x >= 0.0 && x < bound)

(* ---------------- Pqueue ---------------- *)

let test_pqueue_ordering () =
  let q = Pqueue.create () in
  List.iter (fun t -> Pqueue.push q ~time:t t) [ 3.0; 1.0; 2.0; 0.5 ];
  let order = List.init 4 (fun _ -> Option.get (Pqueue.pop q)) in
  Alcotest.(check (list (float 1e-9)))
    "sorted" [ 0.5; 1.0; 2.0; 3.0 ]
    (List.map fst order);
  Alcotest.(check bool) "drained" true (Pqueue.is_empty q)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun p -> Pqueue.push q ~time:1.0 p) [ "a"; "b"; "c" ];
  let payloads = List.init 3 (fun _ -> snd (Option.get (Pqueue.pop q))) in
  Alcotest.(check (list string)) "insertion order on equal keys"
    [ "a"; "b"; "c" ] payloads

let test_pqueue_peek_clear () =
  let q = Pqueue.create () in
  Alcotest.(check (option (float 1e-9))) "peek empty" None (Pqueue.peek_time q);
  Pqueue.push q ~time:2.0 ();
  Alcotest.(check (option (float 1e-9))) "peek" (Some 2.0) (Pqueue.peek_time q);
  Pqueue.clear q;
  Alcotest.(check int) "cleared" 0 (Pqueue.length q)

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pops come out sorted" ~count:200
    QCheck.(list_of_size Gen.(0 -- 100) (float_bound_exclusive 1000.0))
    (fun times ->
      let q = Pqueue.create () in
      List.iter (fun t -> Pqueue.push q ~time:t ()) times;
      let rec drain acc =
        match Pqueue.pop q with
        | None -> List.rev acc
        | Some (t, ()) -> drain (t :: acc)
      in
      let out = drain [] in
      List.sort Float.compare times = out)

(* Reference model: a stable sorted association list. Times are drawn
   from a tiny grid so equal keys are common and the FIFO tie-break is
   exercised on every run, interleaved with pops and peeks. *)
let prop_pqueue_model =
  QCheck.Test.make ~name:"pqueue matches sorted-list model" ~count:300
    QCheck.(list_of_size Gen.(0 -- 200) (option (int_range 0 5)))
    (fun ops ->
      let q = Pqueue.create () in
      let model = ref [] in
      let next_id = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | Some grid ->
              let time = float_of_int grid in
              Pqueue.push q ~time !next_id;
              let rec ins = function
                | (t', id') :: rest when t' <= time -> (t', id') :: ins rest
                | rest -> (time, !next_id) :: rest
              in
              model := ins !model;
              incr next_id
          | None -> (
              match (Pqueue.pop q, !model) with
              | None, [] -> ()
              | Some (t, id), (t', id') :: rest when t = t' && id = id' ->
                  model := rest
              | _ -> ok := false));
          match (Pqueue.peek_time q, !model) with
          | None, [] -> ()
          | Some t, (t', _) :: _ when t = t' -> ()
          | _ -> ok := false)
        ops;
      !ok && Pqueue.length q = List.length !model)

(* Popping must blank the vacated slot: a queue that stays alive (here
   via its keeper entry) must not pin payloads it already handed out. *)
let test_pqueue_popped_slot_released () =
  let q = Pqueue.create () in
  Pqueue.push q ~time:2.0 "keeper";
  let w = Weak.create 1 in
  let () =
    let payload = String.init 32 (fun i -> Char.chr (65 + (i mod 26))) in
    Weak.set w 0 (Some payload);
    Pqueue.push q ~time:1.0 payload
  in
  (match Pqueue.pop q with
  | Some (t, _) -> check_float "popped the early entry" 1.0 t
  | None -> Alcotest.fail "queue was non-empty");
  ignore (Sys.opaque_identity (Array.make 64 0));
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "popped payload collected" true (Weak.get w 0 = None);
  Alcotest.(check int) "keeper still queued" 1 (Pqueue.length q)

(* [clear] empties the queue but deliberately does NOT reset the
   sequence counter (per-run numbering comes from a fresh queue, as
   Engine.create makes one); FIFO tie order must survive a clear. *)
let test_pqueue_clear_keeps_fifo () =
  let q = Pqueue.create () in
  List.iter (fun p -> Pqueue.push q ~time:1.0 p) [ "old1"; "old2" ];
  Pqueue.clear q;
  Alcotest.(check bool) "empty after clear" true (Pqueue.is_empty q);
  List.iter (fun p -> Pqueue.push q ~time:1.0 p) [ "x"; "y"; "z" ];
  let payloads = List.init 3 (fun _ -> snd (Option.get (Pqueue.pop q))) in
  Alcotest.(check (list string)) "ties still FIFO after clear"
    [ "x"; "y"; "z" ] payloads

(* ---------------- Network ---------------- *)

let test_network_constant_delay () =
  let net = Network.create ~reliable_delay:(Network.Constant 2.5) () in
  let rng = Rng.create 0 in
  check_float "constant" 2.5
    (Network.sample_delay net rng Network.Reliable ~src:0 ~dst:1)

let test_network_uniform_delay_bounds () =
  let net = Network.create ~cheap_delay:(Network.Uniform (1.0, 3.0)) () in
  let rng = Rng.create 5 in
  for _ = 1 to 100 do
    let d = Network.sample_delay net rng Network.Cheap ~src:0 ~dst:1 in
    if d < 1.0 || d > 3.0 then Alcotest.failf "delay %g out of range" d
  done

let test_network_per_link_delay () =
  let net =
    Network.create
      ~reliable_delay:
        (Network.Per_link (fun ~src ~dst -> if src = 0 && dst = 1 then 7.0 else 1.0))
      ()
  in
  let rng = Rng.create 0 in
  check_float "slow link" 7.0
    (Network.sample_delay net rng Network.Reliable ~src:0 ~dst:1);
  check_float "normal link" 1.0
    (Network.sample_delay net rng Network.Reliable ~src:1 ~dst:0)

let test_network_drop_probability () =
  let never = Network.create ~cheap_drop_probability:0.0 () in
  let always = Network.create ~cheap_drop_probability:1.0 () in
  let rng = Rng.create 1 in
  Alcotest.(check bool) "never drops" false
    (Network.dropped never rng Network.Cheap ~src:0 ~dst:1);
  Alcotest.(check bool) "always drops cheap" true
    (Network.dropped always rng Network.Cheap ~src:0 ~dst:1);
  Alcotest.(check bool) "reliable immune to loss" false
    (Network.dropped always rng Network.Reliable ~src:0 ~dst:1)

let test_network_partition () =
  let net = Network.create ~partitioned:(fun s d -> s = 0 && d = 1) () in
  let rng = Rng.create 1 in
  Alcotest.(check bool) "partitioned link drops reliable" true
    (Network.dropped net rng Network.Reliable ~src:0 ~dst:1);
  Alcotest.(check bool) "other links fine" false
    (Network.dropped net rng Network.Reliable ~src:1 ~dst:0)

let test_network_invalid () =
  Alcotest.check_raises "bad probability"
    (Invalid_argument "Network.create: drop probability outside [0,1]")
    (fun () -> ignore (Network.create ~cheap_drop_probability:1.5 ()))

(* ---------------- Workload ---------------- *)

let test_workload_validation () =
  let rng = Rng.create 0 in
  let expect_invalid name spec =
    Alcotest.(check bool)
      name true
      (try
         ignore (Workload.make spec ~n:4 ~rng);
         false
       with Invalid_argument _ -> true)
  in
  expect_invalid "bad mean" (Workload.Global_poisson { mean_interarrival = 0.0 });
  expect_invalid "bad node" (Workload.Continuous { node = 9 });
  expect_invalid "bad burst" (Workload.Burst { period = 1.0; size = 9 });
  expect_invalid "bad bias"
    (Workload.Hotspot { mean_interarrival = 1.0; hot = 0; bias = 2.0 });
  expect_invalid "unsorted script" (Workload.Script [ (2.0, 1); (1.0, 0) ])

let test_workload_script_batches () =
  let rng = Rng.create 0 in
  let w =
    Workload.make (Workload.Script [ (1.0, 0); (1.0, 2); (5.0, 1) ]) ~n:4 ~rng
  in
  (match Workload.first w with
  | Some (t, nodes) ->
      check_float "time" 1.0 t;
      Alcotest.(check (list int)) "simultaneous batch" [ 0; 2 ] nodes
  | None -> Alcotest.fail "expected first batch");
  (match Workload.next w ~after:1.0 with
  | Some (t, nodes) ->
      check_float "second" 5.0 t;
      Alcotest.(check (list int)) "single" [ 1 ] nodes
  | None -> Alcotest.fail "expected second batch");
  Alcotest.(check bool) "exhausted" true (Workload.next w ~after:5.0 = None)

let test_workload_poisson_monotone () =
  let rng = Rng.create 9 in
  let w =
    Workload.make (Workload.Global_poisson { mean_interarrival = 2.0 }) ~n:8 ~rng
  in
  let rec walk last remaining =
    if remaining = 0 then ()
    else
      match Workload.next w ~after:last with
      | Some (t, [ node ]) ->
          if t <= last then Alcotest.fail "time must advance";
          if node < 0 || node >= 8 then Alcotest.fail "node out of range";
          walk t (remaining - 1)
      | Some _ -> Alcotest.fail "poisson emits single nodes"
      | None -> Alcotest.fail "poisson is endless"
  in
  let t0, _ = Option.get (Workload.first w) in
  walk t0 50

let test_workload_burst_distinct () =
  let rng = Rng.create 4 in
  let w = Workload.make (Workload.Burst { period = 3.0; size = 4 }) ~n:6 ~rng in
  match Workload.first w with
  | Some (t, nodes) ->
      check_float "period" 3.0 t;
      Alcotest.(check int) "size" 4 (List.length nodes);
      Alcotest.(check int) "distinct" 4
        (List.length (List.sort_uniq compare nodes))
  | None -> Alcotest.fail "burst has arrivals"

let test_workload_hotspot_bias () =
  let rng = Rng.create 2 in
  let w =
    Workload.make
      (Workload.Hotspot { mean_interarrival = 1.0; hot = 3; bias = 0.8 })
      ~n:8 ~rng
  in
  let hot = ref 0 and total = 500 in
  let last = ref 0.0 in
  for _ = 1 to total do
    match Workload.next w ~after:!last with
    | Some (t, [ node ]) ->
        if node = 3 then incr hot;
        last := t
    | _ -> Alcotest.fail "hotspot emits single nodes"
  done;
  let share = float_of_int !hot /. float_of_int total in
  Alcotest.(check bool) "hot node gets ~80%+" true (share > 0.7)

let test_workload_per_node_poisson () =
  let rng = Rng.create 6 in
  let w =
    Workload.make (Workload.Per_node_poisson { mean_interarrival = 5.0 }) ~n:3
      ~rng
  in
  let counts = Array.make 3 0 in
  let last = ref (-1.0) in
  for _ = 1 to 300 do
    match Workload.next w ~after:!last with
    | Some (t, [ node ]) ->
        if t < !last then Alcotest.fail "time went backwards";
        counts.(node) <- counts.(node) + 1;
        last := t
    | _ -> Alcotest.fail "per-node poisson emits single nodes"
  done;
  Array.iter
    (fun c -> if c < 60 then Alcotest.failf "node starved: %d arrivals" c)
    counts

let test_workload_continuous () =
  let rng = Rng.create 1 in
  let w = Workload.make (Workload.Continuous { node = 2 }) ~n:4 ~rng in
  Alcotest.(check bool) "single initial arrival" true
    (Workload.first w = Some (0.0, [ 2 ]));
  Alcotest.(check bool) "no scheduled repeats" true
    (Workload.next w ~after:0.0 = None);
  Alcotest.(check bool) "rerequest flag" true
    (Workload.wants_immediate_rerequest w 2);
  Alcotest.(check bool) "only that node" false
    (Workload.wants_immediate_rerequest w 1)

(* ---------------- Metrics ---------------- *)

let test_metrics_responsiveness_semantics () =
  let m = Metrics.create ~n:4 in
  (* Busy window: r1 at t=1, r2 at t=2; serves at t=5 and t=9. The first
     sample measures from the window opening (t=1); the second from the
     previous service (t=5), because demand never drained. *)
  Metrics.on_request m ~time:1.0 ~node:0;
  Metrics.on_request m ~time:2.0 ~node:1;
  Metrics.on_serve m ~time:5.0 ~node:0;
  Metrics.on_serve m ~time:9.0 ~node:1;
  let q = Metrics.responsiveness_quantiles m in
  check_float "first sample" 4.0 (Tr_stats.Quantile.quantile q 0.0);
  check_float "second sample" 4.0 (Tr_stats.Quantile.quantile q 1.0);
  check_float "mean waiting" 5.5 (Tr_stats.Summary.mean (Metrics.waiting m))

let test_metrics_idle_gap_resets_window () =
  let m = Metrics.create ~n:2 in
  Metrics.on_request m ~time:1.0 ~node:0;
  Metrics.on_serve m ~time:2.0 ~node:0;
  (* System idle in (2, 10): the next window opens at the request. *)
  Metrics.on_request m ~time:10.0 ~node:1;
  Metrics.on_serve m ~time:12.0 ~node:1;
  let q = Metrics.responsiveness_quantiles m in
  check_float "second window" 2.0 (Tr_stats.Quantile.quantile q 1.0)

let test_metrics_serve_without_request () =
  let m = Metrics.create ~n:2 in
  Alcotest.(check bool) "raises" true
    (try
       Metrics.on_serve m ~time:1.0 ~node:0;
       false
     with Invalid_argument _ -> true)

let test_metrics_fifo_waiting () =
  let m = Metrics.create ~n:1 in
  Metrics.on_request m ~time:1.0 ~node:0;
  Metrics.on_request m ~time:5.0 ~node:0;
  Metrics.on_serve m ~time:6.0 ~node:0;
  (* served the t=1 request: waited 5; t=5 request still queued *)
  check_float "oldest first" 5.0 (Tr_stats.Summary.last (Metrics.waiting m));
  Alcotest.(check (option (float 1e-9)))
    "next oldest" (Some 5.0)
    (Metrics.oldest_arrival m ~node:0)

(* Both FIFOs against Stdlib.Queue over a seeded run of pushes and pops:
   the queues grow several times over and their heads wrap around the
   buffer again and again. *)
let test_fifo_model () =
  let rng = Rng.create 17 in
  let ints = Fifo.Int.create () and floats = Fifo.Float.create () in
  let model = Queue.create () in
  for step = 1 to 20_000 do
    (* Mostly pushes in the first half, mostly pops in the second: the
       length climbs past several capacities, then drains. *)
    let push_bias = if step < 10_000 then 6 else 4 in
    if Queue.is_empty model || Rng.int rng 10 < push_bias then begin
      let x = Rng.int rng 1_000_000 in
      Queue.push x model;
      Fifo.Int.push ints x;
      Fifo.Float.push floats (float_of_int x /. 7.0)
    end
    else begin
      let x = Queue.pop model in
      Alcotest.(check int) "int peek" x (Fifo.Int.peek ints);
      Alcotest.(check int) "int pop" x (Fifo.Int.pop ints);
      check_float "float pop" (float_of_int x /. 7.0) (Fifo.Float.pop floats)
    end;
    Alcotest.(check int) "int length" (Queue.length model) (Fifo.Int.length ints);
    Alcotest.(check int) "float length" (Queue.length model)
      (Fifo.Float.length floats)
  done;
  while not (Fifo.Int.is_empty ints) do
    ignore (Fifo.Int.pop ints)
  done;
  Fifo.Float.clear floats;
  Alcotest.(check bool) "emptied" true
    (Fifo.Int.is_empty ints && Fifo.Float.is_empty floats);
  Alcotest.check_raises "empty int pop"
    (Invalid_argument "Fifo.Int.peek: empty") (fun () ->
      ignore (Fifo.Int.pop ints));
  Alcotest.check_raises "empty float peek"
    (Invalid_argument "Fifo.Float.peek: empty") (fun () ->
      ignore (Fifo.Float.peek floats))

(* Metrics against a naive reference on a seeded request/serve
   sequence. The reference keeps each node's arrivals in a list and
   finds the earliest outstanding request by scanning them all. Bursts
   pile many requests onto a node, so the per-node queues and the global
   arrival log both grow and wrap. With [disorder] some arrivals are
   stamped before the latest one, which sends Metrics down its scan
   path; without, it must take the log path and still agree exactly. *)
let metrics_vs_reference ~disorder ~seed =
  let n = 6 in
  let rng = Rng.create seed in
  let m = Metrics.create ~n in
  let pending = Array.make n [] in
  let last_service = ref neg_infinity in
  let resp = ref [] and waits = ref [] in
  let now = ref 0.0 in
  for _ = 1 to 5_000 do
    now := !now +. Rng.float rng 1.0;
    let outstanding = Array.exists (fun l -> l <> []) pending in
    if (not outstanding) || Rng.int rng 10 < 5 then begin
      let node = Rng.int rng n in
      let burst = if Rng.int rng 20 = 0 then 12 else 1 in
      for _ = 1 to burst do
        let time =
          if disorder && Rng.int rng 4 = 0 then !now -. Rng.float rng 5.0
          else !now
        in
        pending.(node) <- pending.(node) @ [ time ];
        Metrics.on_request m ~time ~node
      done
    end
    else begin
      let rec pick () =
        let node = Rng.int rng n in
        if pending.(node) = [] then pick () else node
      in
      let node = pick () in
      let arrival = List.hd pending.(node) in
      pending.(node) <- List.tl pending.(node);
      let earliest =
        Array.fold_left (List.fold_left Float.min) arrival pending
      in
      let time = !now in
      resp := (time -. Float.max earliest !last_service) :: !resp;
      waits := (time -. arrival) :: !waits;
      last_service := time;
      Metrics.on_serve m ~time ~node
    end
  done;
  let sorted l = Array.of_list (List.sort Float.compare l) in
  let samples q = Tr_stats.Quantile.to_sorted_array q in
  Alcotest.(check (array (float 0.0)))
    "responsiveness samples" (sorted !resp)
    (samples (Metrics.responsiveness_quantiles m));
  Alcotest.(check (array (float 0.0)))
    "waiting samples" (sorted !waits)
    (samples (Metrics.waiting_quantiles m));
  Array.iteri
    (fun node l ->
      Alcotest.(check int) "pending per node" (List.length l)
        (Metrics.pending m ~node))
    pending

let test_metrics_log_matches_reference () =
  metrics_vs_reference ~disorder:false ~seed:3

let test_metrics_scan_matches_reference () =
  metrics_vs_reference ~disorder:true ~seed:4

let test_metrics_messages_and_possessions () =
  let m = Metrics.create ~n:3 in
  Metrics.on_message m Network.Reliable Metrics.Token_msg;
  Metrics.on_message m Network.Cheap Metrics.Control_msg;
  Metrics.on_message m Network.Cheap Metrics.Token_msg;
  Alcotest.(check int) "token" 2 (Metrics.token_messages m);
  Alcotest.(check int) "control" 1 (Metrics.control_messages m);
  Alcotest.(check int) "cheap channel" 2 (Metrics.cheap_messages m);
  Metrics.on_token_possession m ~node:1;
  Metrics.on_token_possession m ~node:1;
  Metrics.on_token_possession m ~node:2;
  Alcotest.(check int) "max possessions" 2 (Metrics.max_possessions m);
  check_float "imbalance" 2.0 (Metrics.possession_imbalance m)

let test_metrics_waiting_fairness () =
  let m = Metrics.create ~n:3 in
  Alcotest.(check bool) "nan before serves" true
    (Float.is_nan (Metrics.waiting_fairness m));
  (* Two nodes wait equally -> index 1. *)
  Metrics.on_request m ~time:0.0 ~node:0;
  Metrics.on_serve m ~time:2.0 ~node:0;
  Metrics.on_request m ~time:10.0 ~node:1;
  Metrics.on_serve m ~time:12.0 ~node:1;
  check_float "equal waits" 1.0 (Metrics.waiting_fairness m);
  (* A third node waiting much longer drags the index below 1. *)
  Metrics.on_request m ~time:20.0 ~node:2;
  Metrics.on_serve m ~time:40.0 ~node:2;
  Alcotest.(check bool) "skew detected" true (Metrics.waiting_fairness m < 0.7);
  check_float "per-node summary" 20.0
    (Tr_stats.Summary.mean (Metrics.waiting_by_node m ~node:2))

(* ---------------- Trace ---------------- *)

let test_trace_disabled () =
  let t = Trace.create ~enabled:false () in
  Trace.record t ~time:1.0 (Trace.Request { node = 0 });
  Alcotest.(check int) "nothing recorded" 0 (Trace.length t)

let test_trace_possessions () =
  let t = Trace.create () in
  Trace.record t ~time:1.0 (Trace.Token_at { node = 0 });
  Trace.record t ~time:2.0 (Trace.Request { node = 1 });
  Trace.record t ~time:3.0 (Trace.Token_at { node = 1 });
  Alcotest.(check (list (pair (float 1e-9) int)))
    "possessions"
    [ (1.0, 0); (3.0, 1) ]
    (Trace.token_possessions t)

let test_trace_series () =
  let t = Trace.create () in
  Trace.record t ~time:1.0 (Trace.Request { node = 0 });
  Trace.record t ~time:2.0 (Trace.Request { node = 1 });
  Trace.record t ~time:3.0 (Trace.Served { node = 0; waited = 2.0 });
  Trace.record t ~time:5.0 (Trace.Served { node = 1; waited = 3.0 });
  Alcotest.(check (list (pair (float 1e-9) int)))
    "pending"
    [ (1.0, 1); (2.0, 2); (3.0, 1); (5.0, 0) ]
    (Trace.pending_series t);
  Alcotest.(check (list (pair (float 1e-9) int)))
    "served" [ (3.0, 1); (5.0, 2) ] (Trace.served_series t);
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "running mean (window 2)"
    [ (3.0, 2.0); (5.0, 2.5) ]
    (Trace.running_mean_waiting t ~window:2)

let test_trace_running_mean_window_slides () =
  let t = Trace.create () in
  List.iteri
    (fun i w ->
      Trace.record t ~time:(float_of_int i) (Trace.Served { node = 0; waited = w }))
    [ 10.0; 20.0; 30.0; 40.0 ];
  let last = List.nth (Trace.running_mean_waiting t ~window:2) 3 in
  Alcotest.(check (pair (float 1e-9) (float 1e-9)))
    "last two only" (3.0, 35.0) last

(* Accessors must not rebuild the entry list on every call (the old list
   representation re-reversed it each time): repeated [events] calls
   return the memoized list itself, and recording invalidates it. *)
let test_trace_events_memoized () =
  let t = Trace.create () in
  for i = 1 to 100 do
    Trace.record t ~time:(float_of_int i) (Trace.Request { node = i })
  done;
  let first = Trace.events t in
  Alcotest.(check bool) "second call returns the memoized list" true
    (Trace.events t == first);
  let bytes_before = Gc.allocated_bytes () in
  for _ = 1 to 50 do
    ignore (Sys.opaque_identity (Trace.events t))
  done;
  let per_call = (Gc.allocated_bytes () -. bytes_before) /. 50.0 in
  Alcotest.(check bool) "memoized calls allocate ~nothing" true
    (per_call < 128.0);
  Trace.record t ~time:101.0 (Trace.Request { node = 0 });
  Alcotest.(check bool) "recording invalidates the memo" true
    (Trace.events t != first);
  Alcotest.(check int) "still complete" 101 (List.length (Trace.events t))

let test_trace_ring_window () =
  let t = Trace.create ~window:3 () in
  Alcotest.(check (option int)) "window exposed" (Some 3) (Trace.ring_window t);
  for i = 1 to 5 do
    Trace.record t ~time:(float_of_int i) (Trace.Request { node = i })
  done;
  Alcotest.(check int) "total ever recorded" 5 (Trace.length t);
  Alcotest.(check int) "bounded retention" 3 (Trace.stored_length t);
  Alcotest.(check int) "dropped count" 2 (Trace.dropped t);
  let nodes =
    List.map
      (fun { Trace.event; _ } ->
        match event with Trace.Request { node } -> node | _ -> -1)
      (Trace.events t)
  in
  Alcotest.(check (list int)) "keeps the most recent, in order" [ 3; 4; 5 ]
    nodes

let test_trace_window_invalid () =
  Alcotest.(check bool) "window 0 rejected" true
    (try
       ignore (Trace.create ~window:0 ());
       false
     with Invalid_argument _ -> true)

(* ---------------- Engine ---------------- *)

(* A minimal ping protocol: node 0 sends Ping around the ring forever;
   each node serves local requests on receipt. *)
module Ping = struct
  type state = { seen : int }
  type msg = Ping of int

  let name = "ping"
  let describe = "test protocol"
  let classify (Ping _) = Metrics.Token_msg
  let label (Ping k) = Printf.sprintf "ping%d" k

  let init (ctx : msg Node_intf.ctx) =
    if ctx.self = 0 then ctx.send ~dst:(Node_intf.succ_node ~n:ctx.n 0) (Ping 1);
    { seen = 0 }

  let on_message (ctx : msg Node_intf.ctx) state ~src:_ (Ping k) =
    ctx.possession ();
    while ctx.pending () > 0 do
      ctx.serve ()
    done;
    ctx.send ~dst:(Node_intf.succ_node ~n:ctx.n ctx.self) (Ping (k + 1));
    { seen = state.seen + 1 }

  let on_timer _ctx state ~key:_ = state
  let on_request _ctx state = state
end

module E = Engine.Make (Ping)

let test_engine_unit_delay_rotation () =
  let t = E.create (Engine.default_config ~n:4 ~seed:0) in
  E.run t ~stop:(Engine.At_time 10.0);
  (* One hop per unit: the init send plus one per delivery through t=10. *)
  Alcotest.(check int) "token messages" 11 (Metrics.token_messages (E.metrics t));
  Alcotest.(check bool) "clock within bound" true (E.now t <= 10.0)

let test_engine_serves_and_stops () =
  let config =
    {
      (Engine.default_config ~n:4 ~seed:0) with
      workload = Workload.Script [ (2.5, 2); (3.5, 3) ];
    }
  in
  let t = E.create config in
  E.run t ~stop:(Engine.After_serves 2);
  Alcotest.(check int) "both served" 2 (Metrics.serves (E.metrics t));
  let w = Metrics.waiting (E.metrics t) in
  (* Each request waits at most one full revolution of the ping. *)
  Alcotest.(check bool) "waited for next visit" true
    (Tr_stats.Summary.max w <= 4.0)

let test_engine_determinism () =
  let run seed =
    let config =
      {
        (Engine.default_config ~n:5 ~seed) with
        workload = Workload.Global_poisson { mean_interarrival = 3.0 };
      }
    in
    let t = E.create config in
    E.run t ~stop:(Engine.After_serves 50);
    (E.now t, Metrics.token_messages (E.metrics t))
  in
  Alcotest.(check (pair (float 1e-9) int)) "same seed same run" (run 5) (run 5);
  Alcotest.(check bool) "different seed differs" true (run 5 <> run 6)

let test_engine_crash_blackholes () =
  let config =
    { (Engine.default_config ~n:3 ~seed:0) with crashes = [ (4.5, 2) ] }
  in
  let t = E.create config in
  E.run t ~stop:(Engine.At_time 20.0);
  Alcotest.(check bool) "crashed flag" true (E.crashed t 2);
  (* The ping dies when it hits the crashed node. *)
  Alcotest.(check bool) "rotation stopped" true
    (Metrics.token_messages (E.metrics t) < 8)

let test_engine_request_now () =
  let t = E.create (Engine.default_config ~n:4 ~seed:0) in
  E.run t ~stop:(Engine.At_time 1.5);
  E.request_now t ~node:3;
  E.run t ~stop:(Engine.After_serves 1);
  Alcotest.(check int) "served the manual request" 1 (Metrics.serves (E.metrics t))

module Timers = struct
  type state = { fired : int list }
  type msg = Never [@warning "-37"] (* the protocol never sends *)

  let name = "timers"
  let describe = "timer test protocol"
  let classify Never = Metrics.Control_msg
  let label Never = "never"

  let init (ctx : msg Node_intf.ctx) =
    if ctx.self = 0 then begin
      ctx.set_timer ~delay:1.0 ~key:1;
      ctx.set_timer ~delay:2.0 ~key:2;
      ctx.set_timer ~delay:3.0 ~key:1
    end;
    { fired = [] }

  let on_message _ctx state ~src:_ Never = state

  let on_timer (ctx : msg Node_intf.ctx) state ~key =
    (* Cancelling inside a handler voids the later key-1 timer. *)
    if key = 2 then ctx.cancel_timers ~key:1;
    { fired = key :: state.fired }

  let on_request _ctx state = state
end

module Rogue = struct
  type state = unit
  type msg = Out

  let name = "rogue"
  let describe = "sends out of range"
  let classify Out = Metrics.Control_msg
  let label Out = "out"

  let init (ctx : msg Node_intf.ctx) =
    if ctx.self = 0 then ctx.send ~dst:99 Out;
    ()

  let on_message _ctx state ~src:_ Out = state
  let on_timer _ctx state ~key:_ = state
  let on_request _ctx state = state
end

let test_engine_rejects_bad_send () =
  let module ER = Engine.Make (Rogue) in
  Alcotest.(check bool) "out-of-range dst raises at init" true
    (try
       ignore (ER.create (Engine.default_config ~n:4 ~seed:0));
       false
     with Invalid_argument _ -> true)

module NegTimer = struct
  type state = unit
  type msg = Never2 [@warning "-37"]

  let name = "neg-timer"
  let describe = "sets a negative timer"
  let classify Never2 = Metrics.Control_msg
  let label Never2 = "never"

  let init (ctx : msg Node_intf.ctx) =
    if ctx.self = 0 then ctx.set_timer ~delay:(-1.0) ~key:1;
    ()

  let on_message _ctx state ~src:_ Never2 = state
  let on_timer _ctx state ~key:_ = state
  let on_request _ctx state = state
end

let test_engine_rejects_negative_timer () =
  let module EN = Engine.Make (NegTimer) in
  Alcotest.(check bool) "negative delay raises" true
    (try
       ignore (EN.create (Engine.default_config ~n:2 ~seed:0));
       false
     with Invalid_argument _ -> true)

let test_engine_n_too_small () =
  Alcotest.(check bool) "n < 2 rejected" true
    (try
       ignore (E.create (Engine.default_config ~n:1 ~seed:0));
       false
     with Invalid_argument _ -> true)

let test_engine_timer_cancellation () =
  let module ET = Engine.Make (Timers) in
  let t = ET.create (Engine.default_config ~n:2 ~seed:0) in
  ET.run t ~stop:(Engine.At_time 10.0);
  Alcotest.(check (list int)) "t=3 key-1 cancelled by key-2 at t=2" [ 2; 1 ]
    (ET.state t 0).Timers.fired

let test_engine_events_counter () =
  let t = E.create (Engine.default_config ~n:4 ~seed:0) in
  Alcotest.(check int) "no events before run" 0 (E.events_processed t);
  E.run t ~stop:(Engine.At_time 10.0);
  (* Unit-delay rotation: exactly one delivery per time unit. *)
  Alcotest.(check int) "ten deliveries" 10 (E.events_processed t);
  E.run t ~stop:(Engine.At_time 15.0);
  Alcotest.(check int) "counter accumulates across runs" 15
    (E.events_processed t)

let test_engine_trace_window () =
  let config =
    {
      (Engine.default_config ~n:4 ~seed:0) with
      trace = true;
      trace_window = Some 5;
    }
  in
  let t = E.create config in
  E.run t ~stop:(Engine.At_time 20.0);
  let trace = E.trace t in
  Alcotest.(check (option int)) "ring window wired" (Some 5)
    (Trace.ring_window trace);
  Alcotest.(check bool) "recorded more than the window" true
    (Trace.length trace > 5);
  Alcotest.(check int) "retention bounded" 5 (Trace.stored_length trace)

(* Protocols use small positive timer keys; a key beyond the initial
   scalar-table bound must grow the table, not corrupt epochs. *)
module BigKey = struct
  type state = { fired : int list }
  type msg = Never3 [@warning "-37"]

  let name = "big-key"
  let describe = "uses a timer key past the initial keyspace"
  let classify Never3 = Metrics.Control_msg
  let label Never3 = "never"

  let init (ctx : msg Node_intf.ctx) =
    if ctx.self = 0 then begin
      ctx.set_timer ~delay:1.0 ~key:97;
      ctx.set_timer ~delay:2.0 ~key:97;
      ctx.set_timer ~delay:3.0 ~key:2
    end;
    { fired = [] }

  let on_message _ctx state ~src:_ Never3 = state

  let on_timer (ctx : msg Node_intf.ctx) state ~key =
    (* First key-97 firing cancels the second one. *)
    if key = 97 && state.fired = [] then ctx.cancel_timers ~key:97;
    { fired = key :: state.fired }

  let on_request _ctx state = state
end

let test_engine_large_timer_key () =
  let module EB = Engine.Make (BigKey) in
  let t = EB.create (Engine.default_config ~n:2 ~seed:0) in
  EB.run t ~stop:(Engine.At_time 10.0);
  Alcotest.(check (list int)) "key-97 fires once, key-2 unaffected" [ 2; 97 ]
    (EB.state t 0).BigKey.fired

(* Allocation of the event path and of set-up, for BinarySearch at
   N = 1024 under Figure 9's load (the benchmark's sim workload). Words
   are minor + major - promoted, so an array allocated straight into the
   major heap counts too. The bounds hold for the dev build, which
   compiles with -opaque (no cross-module inlining). There the list-append
   trap queue, the boxed clock and the eager timer table read 56 words
   per event and 113 per node; the current code reads about 22 and 96. *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let test_engine_allocation () =
  let module P = (val Tr_proto.Binsearch.protocol) in
  let module EB = Engine.Make (P) in
  let n = 1024 in
  let config =
    {
      (Engine.default_config ~n ~seed:7) with
      workload = Workload.Global_poisson { mean_interarrival = 10.0 };
    }
  in
  (* The first engine in a process also pays one-time costs; the bound
     is on the cost every later [create] pays. *)
  ignore (Sys.opaque_identity (EB.create config));
  let w0 = words () in
  let t = EB.create config in
  let per_node = (words () -. w0) /. float_of_int n in
  EB.run t ~stop:(Engine.After_serves 5_000);
  let e0 = EB.events_processed t and w0 = words () in
  EB.run t ~stop:(Engine.After_serves 25_000);
  let per_event =
    (words () -. w0) /. float_of_int (EB.events_processed t - e0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per event in steady state (bound 35)"
       per_event)
    true (per_event < 35.0);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per node in create (bound 100)" per_node)
    true (per_node < 100.0)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_changes_stream;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        ]
        @ qsuite [ prop_rng_int_bounds; prop_rng_float_bounds ] );
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick test_pqueue_ordering;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "peek/clear" `Quick test_pqueue_peek_clear;
          Alcotest.test_case "popped slot released" `Quick
            test_pqueue_popped_slot_released;
          Alcotest.test_case "clear keeps fifo" `Quick
            test_pqueue_clear_keeps_fifo;
        ]
        @ qsuite [ prop_pqueue_sorted; prop_pqueue_model ] );
      ( "network",
        [
          Alcotest.test_case "constant delay" `Quick test_network_constant_delay;
          Alcotest.test_case "uniform bounds" `Quick test_network_uniform_delay_bounds;
          Alcotest.test_case "per-link delay" `Quick test_network_per_link_delay;
          Alcotest.test_case "drop probability" `Quick test_network_drop_probability;
          Alcotest.test_case "partition" `Quick test_network_partition;
          Alcotest.test_case "invalid" `Quick test_network_invalid;
        ] );
      ( "workload",
        [
          Alcotest.test_case "validation" `Quick test_workload_validation;
          Alcotest.test_case "script batches" `Quick test_workload_script_batches;
          Alcotest.test_case "poisson monotone" `Quick test_workload_poisson_monotone;
          Alcotest.test_case "burst distinct" `Quick test_workload_burst_distinct;
          Alcotest.test_case "hotspot bias" `Quick test_workload_hotspot_bias;
          Alcotest.test_case "per-node poisson" `Quick test_workload_per_node_poisson;
          Alcotest.test_case "continuous" `Quick test_workload_continuous;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "responsiveness semantics" `Quick
            test_metrics_responsiveness_semantics;
          Alcotest.test_case "idle gap resets window" `Quick
            test_metrics_idle_gap_resets_window;
          Alcotest.test_case "serve without request" `Quick
            test_metrics_serve_without_request;
          Alcotest.test_case "fifo waiting" `Quick test_metrics_fifo_waiting;
          Alcotest.test_case "messages/possessions" `Quick
            test_metrics_messages_and_possessions;
          Alcotest.test_case "waiting fairness" `Quick test_metrics_waiting_fairness;
          Alcotest.test_case "arrival log matches reference" `Quick
            test_metrics_log_matches_reference;
          Alcotest.test_case "out-of-order scan matches reference" `Quick
            test_metrics_scan_matches_reference;
        ] );
      ("fifo", [ Alcotest.test_case "model" `Quick test_fifo_model ]);
      ( "trace",
        [
          Alcotest.test_case "disabled" `Quick test_trace_disabled;
          Alcotest.test_case "possessions" `Quick test_trace_possessions;
          Alcotest.test_case "series" `Quick test_trace_series;
          Alcotest.test_case "running-mean window" `Quick
            test_trace_running_mean_window_slides;
          Alcotest.test_case "events memoized" `Quick test_trace_events_memoized;
          Alcotest.test_case "ring window" `Quick test_trace_ring_window;
          Alcotest.test_case "window invalid" `Quick test_trace_window_invalid;
        ] );
      ( "engine",
        [
          Alcotest.test_case "unit delay rotation" `Quick
            test_engine_unit_delay_rotation;
          Alcotest.test_case "serves and stops" `Quick test_engine_serves_and_stops;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "crash blackholes" `Quick test_engine_crash_blackholes;
          Alcotest.test_case "request_now" `Quick test_engine_request_now;
          Alcotest.test_case "timer cancellation" `Quick
            test_engine_timer_cancellation;
          Alcotest.test_case "rejects bad send" `Quick test_engine_rejects_bad_send;
          Alcotest.test_case "rejects negative timer" `Quick
            test_engine_rejects_negative_timer;
          Alcotest.test_case "n too small" `Quick test_engine_n_too_small;
          Alcotest.test_case "events counter" `Quick test_engine_events_counter;
          Alcotest.test_case "trace window" `Quick test_engine_trace_window;
          Alcotest.test_case "large timer key" `Quick
            test_engine_large_timer_key;
          Alcotest.test_case "allocation bounded" `Quick
            test_engine_allocation;
        ] );
    ]
