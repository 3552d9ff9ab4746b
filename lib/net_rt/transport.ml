open Tr_wire

type stats = {
  frames_sent : int Atomic.t;
  bytes_sent : int Atomic.t;
  frames_received : int Atomic.t;
  decode_errors : int Atomic.t;
  resync_skips : int Atomic.t;
  reconnects : int Atomic.t;
  frames_dropped : int Atomic.t;
  out_hwm_bytes : int Atomic.t;
  write_syscalls : int Atomic.t;
  read_syscalls : int Atomic.t;
  wait_calls : int Atomic.t;
  fds_ready : int Atomic.t;
  fds_registered : int Atomic.t;
}

let make_stats () =
  {
    frames_sent = Atomic.make 0;
    bytes_sent = Atomic.make 0;
    frames_received = Atomic.make 0;
    decode_errors = Atomic.make 0;
    resync_skips = Atomic.make 0;
    reconnects = Atomic.make 0;
    frames_dropped = Atomic.make 0;
    out_hwm_bytes = Atomic.make 0;
    write_syscalls = Atomic.make 0;
    read_syscalls = Atomic.make 0;
    wait_calls = Atomic.make 0;
    fds_ready = Atomic.make 0;
    fds_registered = Atomic.make 0;
  }

(* A coherent point-in-time copy: every counter read exactly once, so a
   report racing live shards (or their teardown) can never observe a
   counter twice with different values or tear a row mid-print. *)
type snapshot = {
  snap_frames_sent : int;
  snap_bytes_sent : int;
  snap_frames_received : int;
  snap_decode_errors : int;
  snap_resync_skips : int;
  snap_reconnects : int;
  snap_frames_dropped : int;
  snap_out_hwm_bytes : int;
  snap_write_syscalls : int;
  snap_read_syscalls : int;
  snap_wait_calls : int;
  snap_fds_ready : int;
  snap_fds_registered : int;
}

let snapshot_of_stats s =
  {
    snap_frames_sent = Atomic.get s.frames_sent;
    snap_bytes_sent = Atomic.get s.bytes_sent;
    snap_frames_received = Atomic.get s.frames_received;
    snap_decode_errors = Atomic.get s.decode_errors;
    snap_resync_skips = Atomic.get s.resync_skips;
    snap_reconnects = Atomic.get s.reconnects;
    snap_frames_dropped = Atomic.get s.frames_dropped;
    snap_out_hwm_bytes = Atomic.get s.out_hwm_bytes;
    snap_write_syscalls = Atomic.get s.write_syscalls;
    snap_read_syscalls = Atomic.get s.read_syscalls;
    snap_wait_calls = Atomic.get s.wait_calls;
    snap_fds_ready = Atomic.get s.fds_ready;
    snap_fds_registered = Atomic.get s.fds_registered;
  }

type shard = {
  wait_fn : timeout_s:float -> on_ready:(int -> unit) -> unit;
  wake_fn : unit -> unit;
}

type t = {
  name : string;
  readiness : string;
  stats : stats;
  send : src:int -> dst:int -> delay:float -> string -> unit;
  send_frame : src:int -> dst:int -> delay:float -> Buffer.t -> unit;
  poll : owner:int -> upto:float -> (Frame.view -> unit) -> unit;
  shard : owners:int list -> shard;
  close : unit -> unit;
}

let name t = t.name
let readiness_backend t = t.readiness
let stats t = t.stats
let snapshot t = snapshot_of_stats t.stats
let send t = t.send
let send_frame t = t.send_frame
let poll t ?(upto = infinity) ~owner f = t.poll ~owner ~upto f

let shard t ~owners = t.shard ~owners

let wait sh ?(on_ready = fun _ -> ()) ~timeout_s () =
  sh.wait_fn ~timeout_s ~on_ready

let wake sh = sh.wake_fn ()

let count_decode_error t = Atomic.incr t.stats.decode_errors
let close t = t.close ()

(* Upper bound on any readiness sleep: a safety net against a lost
   wake-up, far above the hot-path cadence and far below human patience. *)
let max_wait_s = 0.25

(* Pull every complete payload view out of [dec]. Views borrow the
   decoder's buffer; that is safe here because nothing feeds [dec]
   until the callback returns. *)
let rec drain_decoder stats dec f =
  match Frame.Decoder.next_view dec with
  | Frame.Decoder.View v ->
      Atomic.incr stats.frames_received;
      f v;
      drain_decoder stats dec f
  | Frame.Decoder.Skip_view _ ->
      Atomic.incr stats.resync_skips;
      drain_decoder stats dec f
  | Frame.Decoder.Await_view -> ()

let check_node ~what ~n i =
  if i < 0 || i >= n then
    invalid_arg (Printf.sprintf "Transport: %s node %d out of range" what i)

(* ------------------------------------------------------------------ *)
(* Loopback                                                            *)
(* ------------------------------------------------------------------ *)

module Loopback = struct
  (* Longest nap, in units, of a wait with nothing due: a frame another
     domain queues mid-sleep cannot cut it short (there is no descriptor
     to wake on), so this bounds how late such a frame is noticed. *)
  let sleep_cap_units = 0.5

  (* One per shard handle. Senders on any domain post [(due, owner)] for
     every frame addressed to one of its owners; the handle's waits move
     the posts into a due-time heap, so a wait costs O(frames arrived +
     owners due), never O(owners). *)
  type index = {
    arrivals : (float * int) Mailbox.t;
    due : int Tr_sim.Pqueue.t;  (** Owner domain only. *)
  }

  type node = {
    (* Cross-domain side: producers push (due, frame). *)
    inbox : (float * string) Mailbox.t;
    (* Owner-shard side: deliveries ordered by due time. *)
    pending : string Tr_sim.Pqueue.t;
    mutable index : index option;  (** Set once, when a handle claims it. *)
  }

  let make_node () =
    { inbox = Mailbox.create (); pending = Tr_sim.Pqueue.create (); index = None }

  (* Move everything the other domains queued into the owner's heap. *)
  let settle node =
    List.iter
      (fun (due, frame) -> Tr_sim.Pqueue.push node.pending ~time:due frame)
      (Mailbox.drain node.inbox)

  let create ~clock ~n =
    let stats = make_stats () in
    let nodes = Array.init n (fun _ -> make_node ()) in
    let push ~src ~dst ~delay frame =
      check_node ~what:"send src" ~n src;
      check_node ~what:"send dst" ~n dst;
      Atomic.incr stats.frames_sent;
      ignore (Atomic.fetch_and_add stats.bytes_sent (String.length frame));
      let due = Clock.now clock +. Float.max 0.0 delay in
      let node = nodes.(dst) in
      Mailbox.push node.inbox (due, frame);
      match node.index with
      | Some ix -> Mailbox.push ix.arrivals (due, dst)
      | None -> ()
    in
    let send ~src ~dst ~delay frame = push ~src ~dst ~delay frame in
    (* The frame must outlive the mailbox hop, so crossing domains costs
       exactly one string per frame — and that string is then decoded in
       place ([decode_exact]), never copied again. *)
    let send_frame ~src ~dst ~delay buf =
      push ~src ~dst ~delay (Buffer.contents buf)
    in
    let poll ~owner ~upto f =
      check_node ~what:"poll owner" ~n owner;
      let node = nodes.(owner) in
      settle node;
      let now = Float.min (Clock.now clock) upto in
      let rec deliver () =
        if
          (not (Tr_sim.Pqueue.is_empty node.pending))
          && Tr_sim.Pqueue.top_time_exn node.pending <= now
        then begin
          let frame = Tr_sim.Pqueue.pop_exn node.pending in
          (match Frame.decode_exact frame with
          | Ok v ->
              Atomic.incr stats.frames_received;
              f v
          | Error _ -> Atomic.incr stats.resync_skips);
          deliver ()
        end
      in
      deliver ()
    in
    (* Index the posts, then report every owner with a delivery due by
       now. An owner with several due frames may be reported more than
       once. *)
    let report ix on_ready =
      List.iter
        (fun (due, i) -> Tr_sim.Pqueue.push ix.due ~time:due i)
        (Mailbox.drain ix.arrivals);
      let now = Clock.now clock in
      let reported = ref false in
      while
        (not (Tr_sim.Pqueue.is_empty ix.due))
        && Tr_sim.Pqueue.top_time_exn ix.due <= now
      do
        on_ready (Tr_sim.Pqueue.pop_exn ix.due);
        reported := true
      done;
      !reported
    in
    (* A handle claims its owners, so sends to them post to its index.
       Frames queued before the claim are indexed here, once. *)
    let shard ~owners =
      let claimed =
        List.map
          (fun i ->
            check_node ~what:"shard owner" ~n i;
            let node = nodes.(i) in
            if node.index <> None then
              invalid_arg
                (Printf.sprintf
                   "Transport.shard: node %d already belongs to a shard" i);
            (i, node))
          owners
      in
      let ix = { arrivals = Mailbox.create (); due = Tr_sim.Pqueue.create () } in
      List.iter
        (fun (i, node) ->
          if node.index = None then begin
            node.index <- Some ix;
            settle node;
            match Tr_sim.Pqueue.peek_time node.pending with
            | Some t -> Tr_sim.Pqueue.push ix.due ~time:t i
            | None -> ()
          end)
        claimed;
      let unit_s = Clock.unit_s clock in
      (* A hop lasts one unit, often a few microseconds: the waiting
         domain's sleeps must not overrun by more than a sliver of it. *)
      let slack_set = ref false in
      let wait_fn ~timeout_s ~on_ready =
        if (not (report ix on_ready)) && timeout_s > 0.0 then begin
          if not !slack_set then begin
            Clock.bound_oversleep clock;
            slack_set := true
          end;
          let until_due =
            match Tr_sim.Pqueue.peek_time ix.due with
            | Some t -> (t -. Clock.now clock) *. unit_s
            | None -> infinity
          in
          let nap =
            Float.min
              (Float.min timeout_s until_due)
              (Float.min max_wait_s (sleep_cap_units *. unit_s))
          in
          if nap > 0.0 then Unix.sleepf nap;
          ignore (report ix on_ready)
        end
      in
      { wait_fn; wake_fn = ignore }
    in
    {
      name = "loopback";
      readiness = "none";
      stats;
      send;
      send_frame;
      poll;
      shard;
      close = (fun () -> ());
    }
end

(* ------------------------------------------------------------------ *)
(* Sockets (TCP / Unix-domain)                                         *)
(* ------------------------------------------------------------------ *)

module Sockets = struct
  let backoff_min = 0.01
  let backoff_max = 1.0

  (* Cap on bytes queued behind an unreachable peer. Past this, new
     frames are dropped whole (never split — that would corrupt the
     framing) and counted in [frames_dropped]. *)
  let high_water = 4 * 1024 * 1024

  (* [write(2)] cannot pass MSG_NOSIGNAL, so a write to a peer that
     closed its end raises SIGPIPE and the default handler kills the
     whole process before [tear_down] can run. Ignore it once,
     process-wide, so the failure surfaces as EPIPE instead. *)
  let ignore_sigpipe =
    lazy
      (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
       with Invalid_argument _ | Sys_error _ -> ())

  (* Nagle's algorithm would hold our (already-coalesced) small writes
     back waiting for acks; batching happens in [conn_out], not in the
     kernel, so tell TCP to ship immediately. *)
  let set_nodelay fd =
    try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

  (* Unix.file_descr is an int on every Unix OCaml port; it is the
     position of an fd's entry in the fd->peer index. *)
  external fd_int : Unix.file_descr -> int = "%identity"

  type conn_in = {
    fd : Unix.file_descr;
    dec : Frame.Decoder.t;
    mutable ready : bool;  (** Queued in its node's [ready_ins]. *)
  }

  (* Outgoing frames coalesce into one flat buffer, flushed with a
     single [write] per poll. [bounds] remembers each queued frame's
     length so a torn-down connection can drop its partially-written
     head frame whole — resuming mid-frame on a fresh connection would
     open the stream with garbage and force a resync at the receiver. *)
  type conn_out = {
    dst : int;
    addr : Unix.sockaddr;
    mutable fd : Unix.file_descr option;
    mutable out : Bytes.t;  (** Unwritten bytes live in [out_pos..out_len). *)
    mutable out_pos : int;
    mutable out_len : int;
    bounds : Tr_sim.Fifo.Int.t;  (** Byte length of each queued frame, in order. *)
    mutable head_off : int;  (** Bytes of the head frame already written. *)
    mutable backoff : float;
    mutable retry_at : float;  (** Wall time before which we won't dial. *)
    mutable in_busy : bool;  (** Queued in its node's [busy]. *)
    mutable in_retry : bool;  (** Queued in its shard set's [retry_outs]. *)
  }

  let queued co = co.out_len - co.out_pos

  (* A node is {e tracked} once its owning shard first calls [wait]: its
     fds then live in that shard's readiness set and [poll] touches only
     what the last wait reported ready — O(ready), not O(connections).
     Only a tracked node can be polled, so every connection it accepts
     or dials is registered in that set from birth. [ready_ins] and
     [busy] are stacks over arrays, so queueing work allocates nothing
     once they have grown to the node's fan-in and fan-out. *)
  type node = {
    id : int;
    listen : Unix.file_descr;
    nodelay : bool;
    mutable ins : conn_in list;
    outs : (int, conn_out) Hashtbl.t;  (** Keyed by destination node id. *)
    mutable last_out : conn_out option;
        (** The latest destination, looked up without hashing. *)
    mutable claimed : bool;  (** Belongs to a {!shard} handle. *)
    mutable tracked : shard_set option;
    mutable accept_ready : bool;
    mutable ready_ins : conn_in array;
    mutable n_ready : int;
    mutable busy : conn_out array;  (** Conns with unflushed bytes. *)
    mutable n_busy : int;
  }

  (* One per shard handle, built by its first wait: the readiness set
     all the shard's fds are registered in, with the fd->peer index that
     turns a ready fd back into work in O(1). *)
  and shard_set = {
    rd : Readiness.t;
    mutable fdx : entry array;  (** Indexed by fd; [Free] if unregistered. *)
    sbuf : Bytes.t;  (** Shared read buffer — one per shard, not per node. *)
    mutable retry_outs : (node * conn_out) list;
        (** Down peers with queued bytes, waiting out their backoff. *)
    selfwake : Wakeup.t;
        (** The shard's one wake pipe: {!wake} callers on any domain
            write here to interrupt its sleep. *)
    mutable on_ready : int -> unit;  (** The running wait's callback. *)
    mutable dead_outs : conn_out list;
  }

  (* A shard handle. The wake pipe exists from creation, so a wake sent
     before the shard's first wait is not lost: the pipe registers
     level-triggered and that wait returns at once. The set itself is
     built by that first wait, on the shard's own domain. *)
  and handle = {
    wakeup : Wakeup.t;
    members : node list;
    mutable hset : shard_set option;
  }

  and entry =
    | Free
    | Listener of node
    | In of node * conn_in
    | Out of node * conn_out
    | SelfWake

  let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

  (* Append [x] to the stack [a] holding [len] entries, growing it if
     full; returns the stack to store back. *)
  let stack_push a len x =
    let a =
      if len < Array.length a then a
      else begin
        let bigger = Array.make (Stdlib.max 4 (2 * len)) x in
        Array.blit a 0 bigger 0 len;
        bigger
      end
    in
    a.(len) <- x;
    a

  let mark_busy node co =
    if not co.in_busy then begin
      co.in_busy <- true;
      node.busy <- stack_push node.busy node.n_busy co;
      node.n_busy <- node.n_busy + 1
    end

  (* Registration keeps the [fds_registered] gauge honest: an fd counts
     once, however often its interest mask changes. Removal must happen
     before the fd is closed: the number is free for reuse from the
     moment of [close], and the next socket to get it must find its slot
     empty. *)
  let reg stats set fd entry ~read ~write =
    let key = fd_int fd in
    let len = Array.length set.fdx in
    if key >= len then begin
      let bigger = Array.make (Stdlib.max (2 * len) (key + 1)) Free in
      Array.blit set.fdx 0 bigger 0 len;
      set.fdx <- bigger
    end;
    (match set.fdx.(key) with
    | Free ->
        set.fdx.(key) <- entry;
        Atomic.incr stats.fds_registered
    | _ -> ());
    Readiness.set set.rd fd ~read ~write

  let unreg stats set fd =
    let key = fd_int fd in
    if key < Array.length set.fdx then
      match set.fdx.(key) with
      | Free -> ()
      | _ ->
          set.fdx.(key) <- Free;
          Atomic.decr stats.fds_registered;
          Readiness.remove set.rd fd

  let reset_if_empty co =
    if queued co = 0 then begin
      co.out_pos <- 0;
      co.out_len <- 0
    end

  let tear_down stats set co =
    (match co.fd with
    | Some fd ->
        unreg stats set fd;
        close_quietly fd
    | None -> ());
    co.fd <- None;
    if co.head_off > 0 then begin
      (* Drop the half-written head frame whole; its tail must not open
         the next connection mid-frame. *)
      let head = Tr_sim.Fifo.Int.pop co.bounds in
      co.out_pos <- co.out_pos + (head - co.head_off);
      co.head_off <- 0;
      Atomic.incr stats.frames_dropped;
      reset_if_empty co
    end;
    co.backoff <- Float.min backoff_max (Float.max backoff_min (2.0 *. co.backoff));
    co.retry_at <- Unix.gettimeofday () +. co.backoff;
    Atomic.incr stats.reconnects

  let dial stats set node co =
    let fd = Unix.socket (Unix.domain_of_sockaddr co.addr) Unix.SOCK_STREAM 0 in
    Unix.set_nonblock fd;
    (match co.addr with
    | Unix.ADDR_INET _ -> set_nodelay fd
    | Unix.ADDR_UNIX _ -> ());
    let connected () =
      co.fd <- Some fd;
      (* Write interest from the start: dialing only ever happens with
         bytes queued, and a connect still in progress completes as a
         writability event. *)
      reg stats set fd (Out (node, co)) ~read:false ~write:true
    in
    match Unix.connect fd co.addr with
    | () -> connected ()
    | exception Unix.Unix_error ((EINPROGRESS | EWOULDBLOCK | EAGAIN | EINTR), _, _)
      ->
        connected ()
    | exception Unix.Unix_error (_, _, _) ->
        close_quietly fd;
        co.fd <- None;
        tear_down stats set co

  (* Make room for [len] more bytes in the coalescing buffer. *)
  let reserve co len =
    if co.out_len + len > Bytes.length co.out then begin
      if co.out_pos > 0 then begin
        Bytes.blit co.out co.out_pos co.out 0 (queued co);
        co.out_len <- queued co;
        co.out_pos <- 0
      end;
      if co.out_len + len > Bytes.length co.out then begin
        let cap = ref (Stdlib.max 4096 (2 * Bytes.length co.out)) in
        while co.out_len + len > !cap do
          cap := 2 * !cap
        done;
        let bigger = Bytes.create !cap in
        Bytes.blit co.out 0 bigger 0 co.out_len;
        co.out <- bigger
      end
    end

  (* Account [wrote] flushed bytes against the frame-boundary queue. *)
  let rec pop_bounds co w =
    if w > 0 then begin
      let rem = Tr_sim.Fifo.Int.peek co.bounds - co.head_off in
      if w >= rem then begin
        ignore (Tr_sim.Fifo.Int.pop co.bounds);
        co.head_off <- 0;
        pop_bounds co (w - rem)
      end
      else co.head_off <- co.head_off + w
    end

  let advance co wrote =
    co.out_pos <- co.out_pos + wrote;
    pop_bounds co wrote;
    reset_if_empty co

  (* One [write] covering every queued frame; a partial write means the
     kernel buffer is full, so stop rather than spin. Sends between two
     polls therefore cost at most one syscall total. *)
  let rec flush stats set node co =
    if queued co > 0 then
      match co.fd with
      | None ->
          if Unix.gettimeofday () >= co.retry_at then begin
            dial stats set node co;
            if co.fd <> None then flush stats set node co
          end
      | Some fd ->
          let wrote = Fdio.write fd co.out co.out_pos (queued co) in
          Atomic.incr stats.write_syscalls;
          if wrote >= 0 then begin
            co.backoff <- backoff_min;
            advance co wrote
          end
          (* Still connecting, or the kernel buffer is full: the bytes
             stay queued for the next poll. *)
          else if not (Fdio.transient wrote) then tear_down stats set co

  let unlink_quietly path = try Unix.unlink path with Unix.Unix_error _ -> ()

  let make_listener addr =
    (match addr with
    | Unix.ADDR_UNIX path -> unlink_quietly path
    | Unix.ADDR_INET _ -> ());
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    (match addr with
    | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
    | Unix.ADDR_UNIX _ -> ());
    Unix.bind fd addr;
    Unix.listen fd 1024;
    Unix.set_nonblock fd;
    fd

  let mark_ready node ci =
    if not ci.ready then begin
      ci.ready <- true;
      node.ready_ins <- stack_push node.ready_ins node.n_ready ci;
      node.n_ready <- node.n_ready + 1
    end

  let accept_all stats set node =
    let rec go () =
      match Unix.accept ~cloexec:true node.listen with
      | fd, _ ->
          Unix.set_nonblock fd;
          if node.nodelay then set_nodelay fd;
          let ci = { fd; dec = Frame.Decoder.create (); ready = false } in
          node.ins <- ci :: node.ins;
          (* Level-triggered registration: bytes that raced in before
             this point still report readable on the next wait. A dialer
             writes as soon as it connects, so they usually have: mark
             the connection ready so this same poll reads them. *)
          reg stats set fd (In (node, ci)) ~read:true ~write:false;
          mark_ready node ci;
          go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    in
    go ()

  (* Read everything available on one inbound connection. Returns false
     when the connection is finished (EOF or error) and should drop —
     the caller deregisters before closing. *)
  let rec read_conn stats buf (ci : conn_in) f =
    let k = Fdio.read ci.fd buf 0 (Bytes.length buf) in
    Atomic.incr stats.read_syscalls;
    if k > 0 then begin
      Frame.Decoder.feed_sub ci.dec buf ~pos:0 ~len:k;
      drain_decoder stats ci.dec f;
      if k = Bytes.length buf then read_conn stats buf ci f else true
    end
    else k < 0 && Fdio.transient k

  let drop_in stats set node (ci : conn_in) =
    unreg stats set ci.fd;
    close_quietly ci.fd;
    node.ins <- List.filter (fun c -> c != ci) node.ins

  (* Touch only what readiness reported (accept_ready, ready_ins) plus
     connections with unflushed bytes (busy). Write interest tracks the
     busy state so an idle cluster registers no write-side events at
     all. Nothing below queues more ready or busy work while the stacks
     are walked. *)
  let poll_tracked stats set node f =
    if node.accept_ready then begin
      node.accept_ready <- false;
      accept_all stats set node
    end;
    let n_ready = node.n_ready in
    node.n_ready <- 0;
    for j = 0 to n_ready - 1 do
      let ci = node.ready_ins.(j) in
      ci.ready <- false;
      if not (read_conn stats set.sbuf ci f) then drop_in stats set node ci
    done;
    let n_busy = node.n_busy in
    node.n_busy <- 0;
    for j = 0 to n_busy - 1 do
      let co = node.busy.(j) in
      flush stats set node co;
      if queued co = 0 then begin
        co.in_busy <- false;
        match co.fd with
        | Some fd -> Readiness.set set.rd fd ~read:false ~write:false
        | None -> ()
      end
      else begin
        node.busy.(node.n_busy) <- co;
        node.n_busy <- node.n_busy + 1;
        match co.fd with
        | Some fd -> Readiness.set set.rd fd ~read:false ~write:true
        | None ->
            if not co.in_retry then begin
              co.in_retry <- true;
              set.retry_outs <- (node, co) :: set.retry_outs
            end
      end
    done

  (* Where a ready fd's event goes. Built once per set: the running
     wait's callback and dead connections pass through the set's
     mutable fields, so a wait allocates no closure. *)
  let dispatch set ~fd ~readable ~writable =
    match set.fdx.(fd) with
    | Free -> ()
    | SelfWake -> Wakeup.drain set.selfwake
    | Listener node ->
        if readable then begin
          node.accept_ready <- true;
          set.on_ready node.id
        end
    | In (node, ci) ->
        if readable && not ci.ready then begin
          mark_ready node ci;
          set.on_ready node.id
        end
    | Out (node, co) ->
        if queued co = 0 then
          (* Zero interest, yet an event: only ERR/HUP can land here —
             the peer closed an idle connection. Drop it (deferred) or
             level-triggered epoll reports it on every wait. *)
          set.dead_outs <- co :: set.dead_outs
        else if writable then set.on_ready node.id

  let blit_string frame dst off =
    Bytes.blit_string frame 0 dst off (String.length frame)

  let blit_buffer buf dst off = Buffer.blit buf 0 dst off (Buffer.length buf)

  (* Monotone max of any single peer's backlog — how close the run came
     to the high-water drop threshold. *)
  let rec bump_hwm stats v =
    let cur = Atomic.get stats.out_hwm_bytes in
    if v > cur && not (Atomic.compare_and_set stats.out_hwm_bytes cur v) then
      bump_hwm stats v

  let create ?readiness ~clock:_ ~n ~owned ~addrs () =
    Lazy.force ignore_sigpipe;
    (* High-N clusters hit the default soft RLIMIT_NOFILE long before
       they hit any real resource limit; raise it once per process. *)
    ignore (Readiness.raise_nofile ());
    let rd_backend =
      match readiness with
      | Some b -> Readiness.resolve ~source:"forced" b
      | None -> Readiness.default_backend ()
    in
    if Array.length addrs <> n then
      invalid_arg "Transport.sockets: addrs array must have one entry per node";
    List.iter (fun i -> check_node ~what:"owned" ~n i) owned;
    let stats = make_stats () in
    let hosted = Array.make n None in
    List.iter
      (fun i ->
        hosted.(i) <-
          Some
            {
              id = i;
              listen = make_listener addrs.(i);
              nodelay =
                (match addrs.(i) with
                | Unix.ADDR_INET _ -> true
                | Unix.ADDR_UNIX _ -> false);
              ins = [];
              outs = Hashtbl.create 4;
              last_out = None;
              claimed = false;
              tracked = None;
              accept_ready = false;
              ready_ins = [||];
              n_ready = 0;
              busy = [||];
              n_busy = 0;
            })
      owned;
    let host ~what i =
      match hosted.(i) with
      | Some node -> node
      | None ->
          invalid_arg
            (Printf.sprintf "Transport.sockets: %s node %d is not hosted here"
               what i)
    in
    let out_conn node dst =
      match node.last_out with
      | Some co when co.dst = dst -> co
      | _ ->
          let co =
            match Hashtbl.find_opt node.outs dst with
            | Some co -> co
            | None ->
                let co =
                  {
                    dst;
                    addr = addrs.(dst);
                    fd = None;
                    out = Bytes.create 4096;
                    out_pos = 0;
                    out_len = 0;
                    bounds = Tr_sim.Fifo.Int.create ();
                    head_off = 0;
                    backoff = backoff_min;
                    retry_at = 0.0;
                    in_busy = false;
                    in_retry = false;
                  }
                in
                Hashtbl.replace node.outs dst co;
                co
          in
          node.last_out <- Some co;
          co
    in
    (* Enqueue only — the coalesced buffer is flushed once per [poll],
       so a burst of sends inside one loop iteration shares a single
       write syscall. [blit src dst_buf dst_off] copies the frame; it is
       a top-level function, so a send builds no closure. *)
    let enqueue ~src ~dst ~len blit frame =
      check_node ~what:"send dst" ~n dst;
      let node = host ~what:"send src" src in
      let co = out_conn node dst in
      if queued co + len > high_water then Atomic.incr stats.frames_dropped
      else begin
        Atomic.incr stats.frames_sent;
        ignore (Atomic.fetch_and_add stats.bytes_sent len);
        reserve co len;
        blit frame co.out co.out_len;
        co.out_len <- co.out_len + len;
        Tr_sim.Fifo.Int.push co.bounds len;
        bump_hwm stats (queued co);
        mark_busy node co
      end
    in
    let send ~src ~dst ~delay:_ frame =
      enqueue ~src ~dst ~len:(String.length frame) blit_string frame
    in
    let send_frame ~src ~dst ~delay:_ buf =
      enqueue ~src ~dst ~len:(Buffer.length buf) blit_buffer buf
    in
    let poll ~owner ~upto:_ f =
      (* Socket arrival times are physical: any buffered byte arrived in
         the past, so an [upto] bound can never exclude it. *)
      let node = host ~what:"poll owner" owner in
      match node.tracked with
      | Some set -> poll_tracked stats set node f
      | None ->
          invalid_arg
            (Printf.sprintf
               "Transport.poll: node %d has no shard handle that has waited"
               owner)
    in
    (* The list exists only so close can release the pipes and sets. *)
    let handles_mu = Mutex.create () in
    let handles = ref [] in
    let make_set selfwake =
      let set =
        {
          rd = Readiness.create ~backend:rd_backend ();
          fdx = Array.make 256 Free;
          sbuf = Bytes.create 65536;
          retry_outs = [];
          selfwake;
          on_ready = ignore;
          dead_outs = [];
        }
      in
      (* The shard's own wake pipe rides in its set from day one. *)
      reg stats set (Wakeup.read_fd selfwake) SelfWake ~read:true ~write:false;
      set
    in
    (* Move a node into a shard's readiness set. An untracked node was
       never polled, so it has no connections yet: only its listener
       registers, and its first poll accepts whatever dialed in early.
       Sends queued before adoption already sit in [busy]. *)
    let track_node set node =
      node.tracked <- Some set;
      reg stats set node.listen (Listener node) ~read:true ~write:false;
      node.accept_ready <- true
    in
    (* Down peers with queued bytes wake their owner when the backoff
       expires; until then they bound the sleep, which this returns. *)
    let retry_due set timeout =
      let now = Unix.gettimeofday () in
      let timeout = ref timeout in
      set.retry_outs <-
        List.filter
          (fun (node, co) ->
            if co.fd <> None || queued co = 0 then begin
              co.in_retry <- false;
              false
            end
            else if co.retry_at <= now then begin
              co.in_retry <- false;
              mark_busy node co;
              set.on_ready node.id;
              timeout := 0.0;
              false
            end
            else begin
              timeout := Float.min !timeout (co.retry_at -. now);
              true
            end)
          set.retry_outs;
      !timeout
    in
    (* Block in the shard's readiness set until one of its fds is ready;
       each event is dispatched through the fd index and surfaced to the
       caller as an [on_ready owner] activation, so the shard loop knows
       exactly which nodes to poll. Nothing here walks the owner list:
       the cost is O(ready) plus the retry queue. *)
    let wait_set set dispatch ~timeout_s ~on_ready =
      set.on_ready <- on_ready;
      let timeout =
        if timeout_s <= 0.0 then 0.0
        else if timeout_s >= max_wait_s then max_wait_s
        else timeout_s
      in
      let timeout =
        match set.retry_outs with [] -> timeout | _ -> retry_due set timeout
      in
      Atomic.incr stats.wait_calls;
      let ready = Readiness.wait set.rd ~timeout_s:timeout dispatch in
      (* Idle-Out connections torn down by the peer are dropped only now:
         Readiness.wait's callback must not mutate the set, and an eager
         remove would swap-compact the poll backend's dense arrays
         mid-iteration. *)
      (match set.dead_outs with
      | [] -> ()
      | dead ->
          set.dead_outs <- [];
          List.iter
            (fun co ->
              match co.fd with
              | Some cfd ->
                  unreg stats set cfd;
                  close_quietly cfd;
                  co.fd <- None
              | None -> ())
            dead);
      set.on_ready <- ignore;
      if ready > 0 then ignore (Atomic.fetch_and_add stats.fds_ready ready)
    in
    (* The owner walk happens here, once: ranges, hosting and exclusive
       membership are checked at creation, and the first wait adopts the
       members, after which a wait never touches them again. *)
    let shard ~owners =
      let nodes =
        List.map
          (fun i ->
            check_node ~what:"shard owner" ~n i;
            let node = host ~what:"shard owner" i in
            if node.claimed then
              invalid_arg
                (Printf.sprintf
                   "Transport.shard: node %d already belongs to a shard" i);
            node)
          owners
      in
      (* Claim only once every owner passed: a refused handle holds
         nothing. A repeated owner counts once. *)
      let members =
        List.filter
          (fun node ->
            let fresh = not node.claimed in
            node.claimed <- true;
            fresh)
          nodes
      in
      let h =
        {
          wakeup =
            Wakeup.create ~reads:stats.read_syscalls
              ~writes:stats.write_syscalls ();
          members;
          hset = None;
        }
      in
      Mutex.lock handles_mu;
      handles := h :: !handles;
      Mutex.unlock handles_mu;
      let adopt () =
        let set = make_set h.wakeup in
        List.iter (track_node set) h.members;
        h.hset <- Some set;
        set
      in
      let armed = ref None in
      let wait_fn ~timeout_s ~on_ready =
        let set, d =
          match !armed with
          | Some sd -> sd
          | None ->
              let set = adopt () in
              let sd = (set, dispatch set) in
              armed := Some sd;
              sd
        in
        wait_set set d ~timeout_s ~on_ready
      in
      { wait_fn; wake_fn = (fun () -> Wakeup.wake h.wakeup) }
    in
    let close () =
      Array.iter
        (function
          | None -> ()
          | Some node ->
              close_quietly node.listen;
              List.iter (fun (ci : conn_in) -> close_quietly ci.fd) node.ins;
              Hashtbl.iter
                (fun _ co ->
                  match co.fd with Some fd -> close_quietly fd | None -> ())
                node.outs;
              (match addrs.(node.id) with
              | Unix.ADDR_UNIX path -> unlink_quietly path
              | Unix.ADDR_INET _ -> ()))
        hosted;
      Mutex.lock handles_mu;
      let hs = !handles in
      handles := [];
      Mutex.unlock handles_mu;
      List.iter
        (fun h ->
          (match h.hset with Some set -> Readiness.close set.rd | None -> ());
          Wakeup.close h.wakeup)
        hs
    in
    let name =
      if n > 0 then
        match addrs.(0) with
        | Unix.ADDR_UNIX _ -> "unix"
        | Unix.ADDR_INET _ -> "tcp"
      else "tcp"
    in
    {
      name;
      readiness = Readiness.backend_name rd_backend;
      stats;
      send;
      send_frame;
      poll;
      shard;
      close;
    }
end

let loopback ~clock ~n = Loopback.create ~clock ~n

let sockets ?readiness ~clock ~n ~owned ~addrs () =
  Sockets.create ?readiness ~clock ~n ~owned ~addrs ()

let uds_addrs ~dir ~n =
  Array.init n (fun i ->
      Unix.ADDR_UNIX (Filename.concat dir (Printf.sprintf "node-%d.sock" i)))

let tcp_addrs ?(host = "127.0.0.1") ~base_port ~n () =
  let ip = Unix.inet_addr_of_string host in
  Array.init n (fun i -> Unix.ADDR_INET (ip, base_port + i))
