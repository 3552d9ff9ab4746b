type stop =
  | At_time of float
  | After_serves of int
  | After_token_messages of int
  | First_of of stop list

type config = {
  n : int;
  seed : int;
  network : Network.t;
  workload : Workload.spec;
  trace : bool;
  trace_window : int option;
  crashes : (float * int) list;
  chaos : Tr_chaos.Injector.t option;
}

let default_config ~n ~seed =
  {
    n;
    seed;
    network = Network.default;
    workload = Workload.Nothing;
    trace = false;
    trace_window = None;
    crashes = [];
    chaos = None;
  }

(* [stop] trees compile to three scalar limits: [stop_reached] is an OR
   over leaves, and OR of [clock > l_i] (resp. [serves >= k_i]) is
   exactly [clock > min l_i] (resp. [>= min k_i]); [within_horizon]'s
   [for_all] over [First_of] takes the same minimum over [At_time]
   leaves. Checking per event is then three scalar compares with no list
   walk and no closure. *)
type compiled_stop = {
  time_limit : float; (* infinity when no At_time leaf *)
  serves_limit : int; (* max_int when no After_serves leaf *)
  token_limit : int; (* max_int when no After_token_messages leaf *)
}

let rec compile_stop acc = function
  | At_time limit -> { acc with time_limit = Stdlib.min acc.time_limit limit }
  | After_serves k -> { acc with serves_limit = Stdlib.min acc.serves_limit k }
  | After_token_messages k ->
      { acc with token_limit = Stdlib.min acc.token_limit k }
  | First_of stops -> List.fold_left compile_stop acc stops

let compile_stop stop =
  compile_stop
    { time_limit = infinity; serves_limit = max_int; token_limit = max_int }
    stop

module Make (P : Node_intf.PROTOCOL) = struct
  (* Events are pooled mutable records, not immutable variants: the run
     loop releases each event back to a free list right after copying
     its fields out, so the steady-state Deliver/Timer cycle allocates
     nothing. [tag] discriminates; only the fields of the active tag are
     meaningful. *)
  type event_tag = Deliver | Timer | Arrival | Crash

  type event = {
    mutable tag : event_tag;
    mutable src : int; (* Deliver src; Timer/Crash node *)
    mutable dst : int; (* Deliver dst; Timer key *)
    mutable epoch : int; (* Timer *)
    mutable channel : Network.channel;
    mutable msg : P.msg; (* meaningful iff tag = Deliver *)
    mutable nodes : int list; (* meaningful iff tag = Arrival *)
  }

  (* Placeholder for the [msg] field of non-Deliver events; an immediate,
     never read (the dispatch switch only touches [msg] when the tag is
     [Deliver], and every [Deliver] sets it). *)
  let no_msg : P.msg = Obj.magic 0

  (* The clock is stored on every event. In a one-field all-float record
     it is stored flat; as a float field of [t], a mixed record, every
     store would allocate a box. *)
  type clock = { mutable time : float }

  type t = {
    config : config;
    (* [states] and [ctxs] are populated during [create]; handlers always
       access them through [t], so mutation is visible to every closure. *)
    mutable states : P.state array;
    mutable ctxs : P.msg Node_intf.ctx array;
    queue : event Pqueue.t;
    clock : clock;
    net_rng : Rng.t;
    workload : Workload.t;
    metrics : Metrics.t;
    trace : Trace.t;
    crashed : bool array;
    (* Timer epochs, scalar-keyed: slot [node * keyspace + key]. The
       table is empty (keyspace 0) until the first [cancel_timers], so a
       protocol that never cancels never pays for it; it grows
       (rebuilding) whenever a key >= the current bound is cancelled.
       Existing protocols use keys 1..5. *)
    mutable timer_epochs : int array;
    mutable keyspace : int;
    (* Free list of event records for reuse. *)
    mutable pool : event array;
    mutable pool_len : int;
    mutable events_processed : int;
    mutable initialized : bool;
  }

  let now t = t.clock.time
  let metrics t = t.metrics
  let trace t = t.trace
  let state t i = t.states.(i)
  let crashed t i = t.crashed.(i)
  let events_processed t = t.events_processed

  (* The later of two times: [Stdlib.max]'s own [a >= b] test, without
     the polymorphic call, so a NaN in [b] still wins as it does there. *)
  let[@inline] later (a : float) b = if a >= b then a else b

  (* ---------------- event pool ---------------- *)

  let fresh_event () =
    {
      tag = Crash;
      src = 0;
      dst = 0;
      epoch = 0;
      channel = Network.Reliable;
      msg = no_msg;
      nodes = [];
    }

  let acquire t =
    if t.pool_len = 0 then fresh_event ()
    else begin
      t.pool_len <- t.pool_len - 1;
      t.pool.(t.pool_len)
    end

  let release t e =
    (* Drop payload references so pooled slots pin nothing. *)
    e.msg <- no_msg;
    e.nodes <- [];
    if t.pool_len = Array.length t.pool then begin
      let bigger = Array.make (Stdlib.max 16 (2 * t.pool_len)) e in
      Array.blit t.pool 0 bigger 0 t.pool_len;
      t.pool <- bigger
    end;
    t.pool.(t.pool_len) <- e;
    t.pool_len <- t.pool_len + 1

  (* ---------------- timer epochs ---------------- *)

  let grow_keyspace t key =
    let keyspace' = ref (Stdlib.max 8 (2 * t.keyspace)) in
    while key >= !keyspace' do
      keyspace' := 2 * !keyspace'
    done;
    let keyspace' = !keyspace' in
    let table = Array.make (t.config.n * keyspace') 0 in
    for node = 0 to t.config.n - 1 do
      for k = 0 to t.keyspace - 1 do
        table.((node * keyspace') + k) <- t.timer_epochs.((node * t.keyspace) + k)
      done
    done;
    t.timer_epochs <- table;
    t.keyspace <- keyspace'

  let timer_epoch t ~node ~key =
    if key < t.keyspace then t.timer_epochs.((node * t.keyspace) + key) else 0

  let bump_timer_epoch t ~node ~key =
    if key >= t.keyspace then grow_keyspace t key;
    let i = (node * t.keyspace) + key in
    t.timer_epochs.(i) <- t.timer_epochs.(i) + 1

  let check_timer_key key =
    if key < 0 then invalid_arg "Engine: negative timer key"

  (* ---------------- node contexts ---------------- *)

  let push_deliver t ~time ~src ~dst ~channel msg =
    let e = acquire t in
    e.tag <- Deliver;
    e.src <- src;
    e.dst <- dst;
    e.channel <- channel;
    e.msg <- msg;
    Pqueue.push t.queue ~time e

  let make_ctx t ~now ~search_forward node : P.msg Node_intf.ctx =
    let rng = Rng.create ((t.config.seed * 1_000_003) + node) in
    let send ?(channel = Network.Reliable) ~dst msg =
      if dst < 0 || dst >= t.config.n then
        invalid_arg "Engine: send destination out of range";
      Metrics.on_message t.metrics channel (P.classify msg);
      if Trace.enabled t.trace then
        Trace.record t.trace ~time:t.clock.time
          (Trace.Sent { src = node; dst; channel; label = P.label msg });
      (* Chaos interposition, delivery side: the injector decides drop /
         duplicate / extra delay / corrupt for every protocol send. The
         simulator has no bytes, so a corrupted message is modelled as
         detect-and-drop — the abstract reading of the live decoder
         discarding a mangled frame and resyncing. *)
      let chaos_action =
        match t.config.chaos with
        | None -> None
        | Some inj ->
            Some
              (Tr_chaos.Injector.on_send inj ~now:t.clock.time ~src:node ~dst)
      in
      let chaos_dropped =
        match chaos_action with
        | Some a -> a.Tr_chaos.Injector.drop || a.Tr_chaos.Injector.corrupt
        | None -> false
      in
      if
        chaos_dropped
        || Network.dropped t.config.network t.net_rng channel ~src:node ~dst
      then begin
        if Trace.enabled t.trace then
          Trace.record t.trace ~time:t.clock.time
            (Trace.Dropped { src = node; dst; label = P.label msg })
      end
      else begin
        let delay =
          Network.sample_delay t.config.network t.net_rng channel ~src:node
            ~dst
        in
        let time = t.clock.time +. delay in
        match chaos_action with
        | None -> push_deliver t ~time ~src:node ~dst ~channel msg
        | Some a ->
            for _ = 1 to a.Tr_chaos.Injector.copies do
              push_deliver t
                ~time:(time +. a.Tr_chaos.Injector.extra_delay)
                ~src:node ~dst ~channel msg
            done
      end
    in
    let set_timer ~delay ~key =
      if delay < 0.0 then invalid_arg "Engine: negative timer delay";
      check_timer_key key;
      let delay =
        match t.config.chaos with
        | None -> delay
        | Some inj ->
            delay *. Tr_chaos.Injector.timer_scale inj ~now:t.clock.time ~node
      in
      let e = acquire t in
      e.tag <- Timer;
      e.src <- node;
      e.dst <- key;
      e.epoch <- timer_epoch t ~node ~key;
      Pqueue.push t.queue ~time:(t.clock.time +. delay) e
    in
    let cancel_timers ~key =
      check_timer_key key;
      bump_timer_epoch t ~node ~key
    in
    let serve () =
      match Metrics.oldest_arrival t.metrics ~node with
      | None ->
          invalid_arg
            (Printf.sprintf "Engine: node %d served with no pending request"
               node)
      | Some arrival ->
          Metrics.on_serve t.metrics ~time:t.clock.time ~node;
          if Trace.enabled t.trace then
            Trace.record t.trace ~time:t.clock.time
              (Trace.Served { node; waited = t.clock.time -. arrival });
          (* A [Continuous] competitor re-requests the moment it is served
             (Theorem 3's adversary). *)
          if Workload.wants_immediate_rerequest t.workload node then begin
            let e = acquire t in
            e.tag <- Arrival;
            e.nodes <- [ node ];
            Pqueue.push t.queue ~time:t.clock.time e
          end
    in
    {
      Node_intf.self = node;
      n = t.config.n;
      now;
      rng;
      send;
      set_timer;
      cancel_timers;
      serve;
      pending = (fun () -> Metrics.pending t.metrics ~node);
      possession =
        (fun () ->
          Metrics.on_token_possession t.metrics ~node;
          if Trace.enabled t.trace then
            Trace.record t.trace ~time:t.clock.time (Trace.Token_at { node }));
      search_forward;
      note =
        (fun thunk ->
          if Trace.enabled t.trace then
            Trace.record t.trace ~time:t.clock.time
              (Trace.Note { node; text = thunk () }));
    }

  let create config =
    if config.n < 2 then invalid_arg "Engine.create: n < 2";
    let workload =
      Workload.make config.workload ~n:config.n
        ~rng:(Rng.create (config.seed lxor 0x5DEECE66D))
    in
    let t =
      {
        config;
        states = [||];
        ctxs = [||];
        queue = Pqueue.create ();
        clock = { time = 0.0 };
        net_rng = Rng.create (config.seed lxor 0x2545F491);
        workload;
        metrics = Metrics.create ~n:config.n;
        trace = Trace.create ~enabled:config.trace ?window:config.trace_window ();
        crashed = Array.make config.n false;
        timer_epochs = [||];
        keyspace = 0;
        pool = [||];
        pool_len = 0;
        events_processed = 0;
        initialized = false;
      }
    in
    (* Set-up allocation is kept small on purpose. A lean run leaves a
       small major heap behind it, so the next [create] pays to grow the
       heap for whatever it allocates. At N = 1024 (binsearch, the
       benchmark's sim workload) an eager [n * 8]-word timer table plus
       per-node copies of these two closures took set-up from ~0.30 to
       ~0.38 ms. *)
    let now () = t.clock.time in
    let search_forward () = Metrics.on_search_forward t.metrics in
    t.ctxs <-
      Array.init config.n (fun node -> make_ctx t ~now ~search_forward node);
    t.states <- Array.init config.n (fun node -> P.init t.ctxs.(node));
    t

  let push_arrival t ~time nodes =
    let e = acquire t in
    e.tag <- Arrival;
    e.nodes <- nodes;
    Pqueue.push t.queue ~time e

  let schedule_first_arrival t =
    match Workload.first t.workload with
    | None -> ()
    | Some (time, nodes) -> push_arrival t ~time nodes

  let schedule_next_arrival t ~after =
    match Workload.next t.workload ~after with
    | None -> ()
    | Some (time, nodes) ->
        push_arrival t ~time:(later time t.clock.time) nodes

  let schedule_crashes t =
    List.iter
      (fun (time, node) ->
        if node < 0 || node >= t.config.n then
          invalid_arg "Engine: crash node out of range";
        let e = acquire t in
        e.tag <- Crash;
        e.src <- node;
        Pqueue.push t.queue ~time e)
      t.config.crashes

  let initialize t =
    if not t.initialized then begin
      t.initialized <- true;
      schedule_first_arrival t;
      schedule_crashes t
    end

  (* Churn: a node inside a down-window is unreachable — deliveries to
     it are destroyed (that is the fault being injected: a token sent to
     a churned node is lost). *)
  let chaos_down t node =
    match t.config.chaos with
    | None -> false
    | Some inj -> Tr_chaos.Injector.node_down inj ~now:t.clock.time ~node

  let deliver t ~src ~dst ~msg =
    if not (t.crashed.(dst) || chaos_down t dst) then begin
      if Trace.enabled t.trace then
        Trace.record t.trace ~time:t.clock.time
          (Trace.Delivered { src; dst; label = P.label msg });
      t.states.(dst) <- P.on_message t.ctxs.(dst) t.states.(dst) ~src msg
    end

  let fire_timer t ~node ~key ~epoch =
    if (not t.crashed.(node)) && epoch >= timer_epoch t ~node ~key then begin
      (* Unlike deliveries, a down node's timers are parked, not lost:
         they re-fire when the node rejoins, so timeout-driven recovery
         (token regeneration) resumes against its stale state. *)
      let resume =
        match t.config.chaos with
        | None -> t.clock.time
        | Some inj -> Tr_chaos.Injector.down_until inj ~now:t.clock.time ~node
      in
      if resume > t.clock.time then begin
        let e = acquire t in
        e.tag <- Timer;
        e.src <- node;
        e.dst <- key;
        e.epoch <- epoch;
        Pqueue.push t.queue ~time:(resume +. 1e-9) e
      end
      else t.states.(node) <- P.on_timer t.ctxs.(node) t.states.(node) ~key
    end

  let arrive t nodes =
    let live node = not (t.crashed.(node) || chaos_down t node) in
    List.iter
      (fun node ->
        if live node then begin
          Metrics.on_request t.metrics ~time:t.clock.time ~node;
          if Trace.enabled t.trace then
            Trace.record t.trace ~time:t.clock.time (Trace.Request { node });
          t.states.(node) <- P.on_request t.ctxs.(node) t.states.(node)
        end)
      nodes

  let crash t node =
    t.crashed.(node) <- true;
    Trace.record t.trace ~time:t.clock.time (Trace.Crashed { node })

  let run t ~stop =
    initialize t;
    let { time_limit; serves_limit; token_limit } = compile_stop stop in
    let continue = ref true in
    while !continue do
      if
        t.clock.time > time_limit
        || Metrics.serves t.metrics >= serves_limit
        || Metrics.token_messages t.metrics >= token_limit
        (* Horizon check: with an [At_time] bound we must not pop events
           past it, so the clock never overshoots a time-limited run. *)
        || Pqueue.is_empty t.queue
        || Pqueue.top_time_exn t.queue > time_limit
      then continue := false
      else begin
        let time = Pqueue.top_time_exn t.queue in
        let e = Pqueue.pop_exn t.queue in
        t.events_processed <- t.events_processed + 1;
        t.clock.time <- later t.clock.time time;
        (* Copy the fields out, recycle the record, then dispatch — the
           handler's own sends may reuse it immediately. *)
        match e.tag with
        | Deliver ->
            let src = e.src and dst = e.dst and msg = e.msg in
            release t e;
            deliver t ~src ~dst ~msg
        | Timer ->
            let node = e.src and key = e.dst and epoch = e.epoch in
            release t e;
            fire_timer t ~node ~key ~epoch
        | Crash ->
            let node = e.src in
            release t e;
            crash t node
        | Arrival ->
            let nodes = e.nodes in
            release t e;
            let batch_time = t.clock.time in
            arrive t nodes;
            schedule_next_arrival t ~after:batch_time
      end
    done

  let request_now t ~node =
    if node < 0 || node >= t.config.n then
      invalid_arg "Engine.request_now: node out of range";
    initialize t;
    push_arrival t ~time:t.clock.time [ node ]
end
