module Summary = Tr_stats.Summary
module Quantile = Tr_stats.Quantile
module P2 = Tr_stats.P2

type msg_class = Token_msg | Control_msg

(* Streaming (O(1)-memory) percentile estimates of one sample stream —
   the tail statistics large-N sweeps read when exact sample retention
   would be wasteful. *)
type sketches = { q50 : P2.t; q90 : P2.t; q99 : P2.t }

let make_sketches () =
  { q50 = P2.create ~p:0.5; q90 = P2.create ~p:0.9; q99 = P2.create ~p:0.99 }

let sketch_add s x =
  P2.add s.q50 x;
  P2.add s.q90 x;
  P2.add s.q99 x

(* The two float fields updated on every event live in an all-float
   record, which OCaml stores flat: as fields of [t] every store would
   box. *)
type clocks = { mutable last_arrival : float; mutable last_service_time : float }

type t = {
  n : int;
  pending : Fifo.Float.t array; (* arrival times, FIFO per node *)
  (* Global arrival log with lazy deletion, as two queues in lockstep:
     the node and its per-node request index. While arrivals come in
     non-decreasing time order (true under the engine, which processes
     events chronologically), the log's front — after discarding entries
     whose request was already served — names the earliest outstanding
     arrival, and that request heads its node's [pending] queue, so the
     responsiveness window lookup is amortised O(1) instead of an O(n)
     scan per serve. If a caller ever feeds out-of-order arrivals
     directly, [fifo_monotone] trips and we fall back to the scan, so
     the value is exact either way. *)
  arrivals_node : Fifo.Int.t;
  arrivals_idx : Fifo.Int.t;
  arrival_idx : int array; (* arrivals recorded per node *)
  served_idx : int array; (* serves recorded per node *)
  mutable fifo_monotone : bool;
  clocks : clocks;
  mutable total_pending : int;
  mutable serves : int;
  responsiveness : Summary.t;
  responsiveness_q : Quantile.t;
  responsiveness_sk : sketches;
  waiting : Summary.t;
  waiting_q : Quantile.t;
  waiting_sk : sketches;
  waiting_per_node : Summary.t array;
  mutable token_messages : int;
  mutable control_messages : int;
  mutable cheap_messages : int;
  mutable search_forwards : int;
  possessions : int array;
  mutable total_possessions : int;
}

let create ~n =
  if n < 1 then invalid_arg "Metrics.create: n < 1";
  {
    n;
    pending = Array.init n (fun _ -> Fifo.Float.create ());
    arrivals_node = Fifo.Int.create ();
    arrivals_idx = Fifo.Int.create ();
    arrival_idx = Array.make n 0;
    served_idx = Array.make n 0;
    fifo_monotone = true;
    clocks = { last_arrival = neg_infinity; last_service_time = neg_infinity };
    total_pending = 0;
    serves = 0;
    responsiveness = Summary.create ();
    responsiveness_q = Quantile.create ();
    responsiveness_sk = make_sketches ();
    waiting = Summary.create ();
    waiting_q = Quantile.create ();
    waiting_sk = make_sketches ();
    waiting_per_node = Array.init n (fun _ -> Summary.create ());
    token_messages = 0;
    control_messages = 0;
    cheap_messages = 0;
    search_forwards = 0;
    possessions = Array.make n 0;
    total_possessions = 0;
  }

let n t = t.n

let on_request t ~time ~node =
  Fifo.Float.push t.pending.(node) time;
  if time < t.clocks.last_arrival then t.fifo_monotone <- false
  else t.clocks.last_arrival <- time;
  Fifo.Int.push t.arrivals_node node;
  Fifo.Int.push t.arrivals_idx t.arrival_idx.(node);
  t.arrival_idx.(node) <- t.arrival_idx.(node) + 1;
  t.total_pending <- t.total_pending + 1

(* O(n) fallback. *)
let scan_earliest t =
  let best = ref infinity in
  Array.iter
    (fun q ->
      if not (Fifo.Float.is_empty q) then begin
        let arrival = Fifo.Float.peek q in
        if arrival < !best then best := arrival
      end)
    t.pending;
  !best

let[@inline] earliest_outstanding t =
  if not t.fifo_monotone then scan_earliest t
  else begin
    while
      (not (Fifo.Int.is_empty t.arrivals_node))
      && Fifo.Int.peek t.arrivals_idx
         < t.served_idx.(Fifo.Int.peek t.arrivals_node)
    do
      ignore (Fifo.Int.pop t.arrivals_node);
      ignore (Fifo.Int.pop t.arrivals_idx)
    done;
    if Fifo.Int.is_empty t.arrivals_node then infinity
    else Fifo.Float.peek t.pending.(Fifo.Int.peek t.arrivals_node)
  end

let on_serve t ~time ~node =
  let q = t.pending.(node) in
  if Fifo.Float.is_empty q then
    invalid_arg "Metrics.on_serve: no outstanding request at node";
  let arrival = Fifo.Float.pop q in
  t.served_idx.(node) <- t.served_idx.(node) + 1;
  (* [arrival] has already been popped, but it still bounds the window:
     the demand window opened at the earliest outstanding request,
     which is [min arrival (earliest remaining)]. *)
  let earliest = earliest_outstanding t in
  let window_open = if arrival <= earliest then arrival else earliest in
  let last = t.clocks.last_service_time in
  let window_open = if window_open >= last then window_open else last in
  (* Box each sample once: closure-mode ocamlopt would otherwise box a
     let-bound float afresh at every call that takes it. *)
  let sample = Sys.opaque_identity (time -. window_open) in
  Summary.add t.responsiveness sample;
  Quantile.add t.responsiveness_q sample;
  sketch_add t.responsiveness_sk sample;
  let waited = Sys.opaque_identity (time -. arrival) in
  Summary.add t.waiting waited;
  Quantile.add t.waiting_q waited;
  sketch_add t.waiting_sk waited;
  Summary.add t.waiting_per_node.(node) waited;
  t.total_pending <- t.total_pending - 1;
  t.serves <- t.serves + 1;
  t.clocks.last_service_time <- time

let on_message t channel cls =
  (match cls with
  | Token_msg -> t.token_messages <- t.token_messages + 1
  | Control_msg -> t.control_messages <- t.control_messages + 1);
  match channel with
  | Network.Cheap -> t.cheap_messages <- t.cheap_messages + 1
  | Network.Reliable -> ()

let on_token_possession t ~node =
  t.possessions.(node) <- t.possessions.(node) + 1;
  t.total_possessions <- t.total_possessions + 1

let on_search_forward t = t.search_forwards <- t.search_forwards + 1
let pending t ~node = Fifo.Float.length t.pending.(node)

let oldest_arrival t ~node =
  let q = t.pending.(node) in
  if Fifo.Float.is_empty q then None else Some (Fifo.Float.peek q)
let total_pending t = t.total_pending
let serves t = t.serves
let responsiveness t = t.responsiveness
let responsiveness_quantiles t = t.responsiveness_q
let responsiveness_sketches t = t.responsiveness_sk
let waiting t = t.waiting
let waiting_quantiles t = t.waiting_q
let waiting_sketches t = t.waiting_sk
let token_messages t = t.token_messages
let control_messages t = t.control_messages
let cheap_messages t = t.cheap_messages
let search_forwards t = t.search_forwards
let possessions t ~node = t.possessions.(node)
let total_possessions t = t.total_possessions
let max_possessions t = Array.fold_left Stdlib.max 0 t.possessions

let waiting_by_node t ~node = t.waiting_per_node.(node)

let waiting_fairness t =
  let means =
    Array.to_list t.waiting_per_node
    |> List.filter_map (fun s ->
           if Summary.count s > 0 then Some (Summary.mean s) else None)
  in
  match means with
  | [] -> nan
  | _ ->
      let k = float_of_int (List.length means) in
      let sum = List.fold_left ( +. ) 0.0 means in
      let sum_sq = List.fold_left (fun acc x -> acc +. (x *. x)) 0.0 means in
      if sum_sq = 0.0 then 1.0 else sum *. sum /. (k *. sum_sq)

let possession_imbalance t =
  if t.total_possessions = 0 then nan
  else
    let mean = float_of_int t.total_possessions /. float_of_int t.n in
    float_of_int (max_possessions t) /. mean

let report ppf t =
  Format.fprintf ppf "serves: %d (pending %d)@\n" t.serves t.total_pending;
  Format.fprintf ppf "responsiveness: %a@\n" Summary.pp t.responsiveness;
  Format.fprintf ppf "waiting:        %a@\n" Summary.pp t.waiting;
  Format.fprintf ppf "messages: token=%d control=%d (cheap-channel=%d)@\n"
    t.token_messages t.control_messages t.cheap_messages;
  Format.fprintf ppf "search forwards: %d@\n" t.search_forwards;
  Format.fprintf ppf "possessions: total=%d max=%d imbalance=%.3g@\n"
    t.total_possessions (max_possessions t) (possession_imbalance t);
  Format.fprintf ppf "waiting fairness (Jain): %.3f@\n" (waiting_fairness t)
