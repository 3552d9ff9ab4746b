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
  spin_hits : int Atomic.t;
  spin_misses : int Atomic.t;
  sqes_submitted : int Atomic.t;
  inproc_frames : int Atomic.t;
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
    spin_hits = Atomic.make 0;
    spin_misses = Atomic.make 0;
    sqes_submitted = Atomic.make 0;
    inproc_frames = Atomic.make 0;
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
  snap_spin_hits : int;
  snap_spin_misses : int;
  snap_sqes_submitted : int;
  snap_inproc_frames : int;
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
    snap_spin_hits = Atomic.get s.spin_hits;
    snap_spin_misses = Atomic.get s.spin_misses;
    snap_sqes_submitted = Atomic.get s.sqes_submitted;
    snap_inproc_frames = Atomic.get s.inproc_frames;
  }

type shard = {
  wait_fn : timeout_s:float -> on_ready:(int -> unit) -> unit;
  wake_fn : unit -> unit;
}

type t = {
  name : string;
  readiness : string;
  stats : stats;
  poll_driven : bool;
  send : src:int -> dst:int -> delay:float -> string -> unit;
  send_frame : src:int -> dst:int -> delay:float -> Buffer.t -> unit;
  poll : owner:int -> upto:float -> (Frame.view -> unit) -> unit;
  next_due : owner:int -> float option;
  shard : owners:int list -> shard;
  close : unit -> unit;
}

let name t = t.name
let readiness_backend t = t.readiness
let stats t = t.stats
let snapshot t = snapshot_of_stats t.stats
let poll_driven t = t.poll_driven
let send t = t.send
let send_frame t = t.send_frame
let poll t ?(upto = infinity) ~owner f = t.poll ~owner ~upto f
let next_due t = t.next_due

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
let drain_decoder stats dec f =
  let rec go () =
    match Frame.Decoder.next_view dec with
    | Frame.Decoder.View v ->
        Atomic.incr stats.frames_received;
        f v;
        go ()
    | Frame.Decoder.Skip_view _ ->
        Atomic.incr stats.resync_skips;
        go ()
    | Frame.Decoder.Await_view -> ()
  in
  go ()

let check_node ~what ~n i =
  if i < 0 || i >= n then
    invalid_arg (Printf.sprintf "Transport: %s node %d out of range" what i)

(* ------------------------------------------------------------------ *)
(* Loopback                                                            *)
(* ------------------------------------------------------------------ *)

module Loopback = struct
  type node = {
    (* Cross-domain side: producers push (due, frame). *)
    inbox : (float * string) Mailbox.t;
    (* Owner-shard side: deliveries ordered by due time. *)
    pending : string Tr_sim.Pqueue.t;
  }

  let make_node () = { inbox = Mailbox.create (); pending = Tr_sim.Pqueue.create () }

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
      ignore src;
      Atomic.incr stats.frames_sent;
      ignore (Atomic.fetch_and_add stats.bytes_sent (String.length frame));
      let due = Clock.now clock +. Float.max 0.0 delay in
      Mailbox.push nodes.(dst).inbox (due, frame)
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
    let next_due ~owner =
      check_node ~what:"next_due owner" ~n owner;
      let node = nodes.(owner) in
      settle node;
      Tr_sim.Pqueue.peek_time node.pending
    in
    (* Nothing to block on: a wait is a capped sleep, and a wake cannot
       cut it short. *)
    let shard ~owners =
      List.iter (fun i -> check_node ~what:"shard owner" ~n i) owners;
      {
        wait_fn =
          (fun ~timeout_s ~on_ready:_ ->
            if timeout_s > 0.0 then Unix.sleepf (Float.min timeout_s max_wait_s));
        wake_fn = ignore;
      }
    in
    {
      name = "loopback";
      readiness = "none";
      stats;
      poll_driven = false;
      send;
      send_frame;
      poll;
      next_due;
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

  (* [Unix.write] cannot pass MSG_NOSIGNAL, so a write to a peer that
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

  (* Unix.file_descr is an int on every Unix OCaml port; the fd->peer
     index is keyed by it, and completion-mode accepts return raw fds. *)
  external fd_int : Unix.file_descr -> int = "%identity"
  external fd_of_int : int -> Unix.file_descr = "%identity"

  type conn_in = {
    fd : Unix.file_descr;
    dec : Frame.Decoder.t;
    mutable ready : bool;  (** Queued in its node's [ready_ins]. *)
    mutable rd_id : int;  (** Completion mode: in-flight read/poll key. *)
    mutable rd_slot : int;
        (** Completion mode: owned arena slot, [-1] none (poll
            fallback), [-2] connection dead. *)
  }

  (* Outgoing frames coalesce into one flat buffer, flushed with a
     single [write] per poll. [bounds] remembers each queued frame's
     length so a torn-down connection can drop its partially-written
     head frame whole — resuming mid-frame on a fresh connection would
     open the stream with garbage and force a resync at the receiver. *)
  type conn_out = {
    addr : Unix.sockaddr;
    mutable fd : Unix.file_descr option;
    mutable out : Bytes.t;  (** Unwritten bytes live in [out_pos..out_len). *)
    mutable out_pos : int;
    mutable out_len : int;
    bounds : int Queue.t;  (** Byte length of each queued frame, in order. *)
    mutable head_off : int;  (** Bytes of the head frame already written. *)
    mutable backoff : float;
    mutable retry_at : float;  (** Wall time before which we won't dial. *)
    mutable in_busy : bool;  (** Queued in its node's [busy]. *)
    mutable in_retry : bool;  (** Queued in its shard set's [retry_outs]. *)
    mutable wr_id : int;  (** Completion mode: in-flight write key. *)
    mutable wr_slot : int;  (** Completion mode: owned arena slot or -1. *)
    mutable wr_len : int;  (** Length of the in-flight write. *)
    mutable po_id : int;  (** Completion mode: in-flight POLLOUT key. *)
  }

  let queued co = co.out_len - co.out_pos

  (* A node is {e tracked} once its owning shard first calls [wait]: its
     fds then live in that shard's readiness set and [poll] touches only
     what the last wait reported ready — O(ready), not O(connections).
     Untracked nodes (raw bench pumps that never wait) keep the legacy
     scan-everything poll. *)
  type node = {
    id : int;
    listen : Unix.file_descr;
    nodelay : bool;
    mutable ins : conn_in list;
    outs : (int, conn_out) Hashtbl.t;  (** Keyed by destination node id. *)
    readbuf : Bytes.t Lazy.t;  (** Untracked mode only; tracked reads share
                                   the shard set's buffer. *)
    mutable claimed : bool;  (** Belongs to a {!shard} handle. *)
    mutable tracked : shard_set option;
    tracked_pub : shard_set option Atomic.t;
        (** [tracked], republished for cross-domain readers: in-process
            senders on other domains must see the adoption (or be seen —
            see the salvage in [track_node]); a plain mutable read gives
            neither guarantee. *)
    mutable accept_ready : bool;
    mutable ready_ins : conn_in list;
    mutable busy : conn_out list;  (** Conns with unflushed bytes. *)
    mutable accept_id : int;  (** Completion mode: in-flight accept key. *)
    ipc : string Mailbox.t;  (** In-process fast path: inbound frames. *)
    ipc_queued : bool Atomic.t;  (** Queued in its shard's [ipc_pending]. *)
  }

  (* One per shard handle, built by its first wait: either a readiness
     set all the shard's fds are registered in (with the fd->peer index
     that turns a ready fd back into work in O(1)), or a completion ring
     where the pending operations themselves carry the peer (keyed
     through [utab]). *)
  and shard_set = {
    rd : rd_impl;
    fdx : (int, entry) Hashtbl.t;  (** Readiness mode only. *)
    sbuf : Bytes.t;  (** Shared read buffer — one per shard, not per node. *)
    mutable retry_outs : (node * conn_out) list;
        (** Down peers with queued bytes, waiting out their backoff. *)
    selfwake : Wakeup.t;
        (** The shard's one wake pipe: {!wake} callers and in-process
            senders on other domains write here to interrupt its sleep. *)
    idle : bool Atomic.t;
        (** True only while blocked in the kernel — the Dekker flag of
            the in-process wake protocol: senders push the frame first,
            then wake only if the receiver had already declared idle. *)
    ipc_pending : node Mailbox.t;
        (** Hosted nodes with undrained in-process frames. *)
    mutable ewma_gap : float;  (** Recent inter-event gap estimate (s). *)
    mutable last_event : float;
    (* Completion mode state. *)
    mutable rearm_accepts : node list;  (** Accept arms to retry at wait. *)
    mutable wake_armed : bool;  (** A poll on [selfwake] is in flight. *)
    mutable next_key : int;  (** Submission keys; 0 reserved. *)
    utab : (int, uent) Hashtbl.t;  (** In-flight op by submission key. *)
    mutable last_enters : int;
        (** Ring counters already folded into the shared stats — preps
            between waits (and SQ-full flushes) are charged at the next
            wait by diffing the ring's cumulative counters. *)
    mutable wait_skips : int;
        (** Consecutive kernel waits elided because in-process work was
            already in hand (bounded in readiness mode so socket fds are
            still visited; unbounded in completion mode, where an empty
            SQ and CQ make the elided enter provably a no-op). *)
    mutable last_sqes : int;
  }

  and rd_impl = Rdy of Readiness.t | Cmp of Completion.t

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
    | Listener of node
    | In of node * conn_in
    | Out of node * conn_out
    | SelfWake

  (* What an in-flight completion-mode submission was. *)
  and uent =
    | U_accept of node
    | U_read of node * conn_in
    | U_pollin of node * conn_in
    | U_write of node * conn_out
    | U_pollout of node * conn_out
    | U_wake

  let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

  (* Registration keeps the [fds_registered] gauge honest: an fd counts
     once, however often its interest mask changes. Removal must happen
     before the fd is closed (epoll auto-forgets closed fds, but the
     poll/select sets would otherwise scan a dead descriptor). *)
  let reg stats set fd entry ~read ~write =
    match set.rd with
    | Cmp _ -> () (* completion mode: interest is submission-driven *)
    | Rdy rd ->
        let key = fd_int fd in
        if not (Hashtbl.mem set.fdx key) then begin
          Hashtbl.replace set.fdx key entry;
          Atomic.incr stats.fds_registered
        end;
        Readiness.set rd fd ~read ~write

  let unreg stats set fd =
    match set.rd with
    | Cmp _ -> ()
    | Rdy rd ->
        let key = fd_int fd in
        if Hashtbl.mem set.fdx key then begin
          Hashtbl.remove set.fdx key;
          Atomic.decr stats.fds_registered;
          Readiness.remove rd fd
        end

  let reset_if_empty co =
    if queued co = 0 then begin
      co.out_pos <- 0;
      co.out_len <- 0
    end

  let tear_down stats tracked co =
    (match co.fd with
    | Some fd ->
        (match tracked with Some set -> unreg stats set fd | None -> ());
        close_quietly fd
    | None -> ());
    co.fd <- None;
    if co.head_off > 0 then begin
      (* Drop the half-written head frame whole; its tail must not open
         the next connection mid-frame. *)
      let head = Queue.pop co.bounds in
      co.out_pos <- co.out_pos + (head - co.head_off);
      co.head_off <- 0;
      Atomic.incr stats.frames_dropped;
      reset_if_empty co
    end;
    co.backoff <- Float.min backoff_max (Float.max backoff_min (2.0 *. co.backoff));
    co.retry_at <- Unix.gettimeofday () +. co.backoff;
    Atomic.incr stats.reconnects

  let dial stats node co =
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
      match node.tracked with
      | Some set -> reg stats set fd (Out (node, co)) ~read:false ~write:true
      | None -> ()
    in
    match Unix.connect fd co.addr with
    | () -> connected ()
    | exception Unix.Unix_error ((EINPROGRESS | EWOULDBLOCK | EAGAIN | EINTR), _, _)
      ->
        connected ()
    | exception Unix.Unix_error (_, _, _) ->
        close_quietly fd;
        co.fd <- None;
        tear_down stats node.tracked co

  (* Append [len] frame bytes to the coalescing buffer. [blit dst dstoff]
     writes them; the caller has already counted the frame. *)
  let append co ~len blit =
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
    end;
    blit co.out co.out_len;
    co.out_len <- co.out_len + len;
    Queue.add len co.bounds

  (* Account [wrote] flushed bytes against the frame-boundary queue. *)
  let advance co wrote =
    co.out_pos <- co.out_pos + wrote;
    let rec pop w =
      if w > 0 then begin
        let head = Queue.peek co.bounds in
        let rem = head - co.head_off in
        if w >= rem then begin
          ignore (Queue.pop co.bounds);
          co.head_off <- 0;
          pop (w - rem)
        end
        else co.head_off <- co.head_off + w
      end
    in
    pop wrote;
    reset_if_empty co

  (* One [write] covering every queued frame; a partial write means the
     kernel buffer is full, so stop rather than spin. Sends between two
     polls therefore cost at most one syscall total. *)
  let rec flush stats node co =
    if queued co > 0 then
      match co.fd with
      | None ->
          if Unix.gettimeofday () >= co.retry_at then begin
            dial stats node co;
            if co.fd <> None then flush stats node co
          end
      | Some fd -> (
          match Unix.write fd co.out co.out_pos (queued co) with
          | wrote ->
              Atomic.incr stats.write_syscalls;
              co.backoff <- backoff_min;
              advance co wrote
          | exception
              Unix.Unix_error
                ( (EAGAIN | EWOULDBLOCK | EINTR | ENOTCONN | EINPROGRESS | EALREADY),
                  _,
                  _ ) ->
              (* Still connecting, or the kernel buffer is full; the bytes
                 stay queued for the next poll. *)
              Atomic.incr stats.write_syscalls
          | exception Unix.Unix_error (_, _, _) ->
              Atomic.incr stats.write_syscalls;
              tear_down stats node.tracked co)

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

  let accept_all stats node =
    let rec go () =
      match Unix.accept ~cloexec:true node.listen with
      | fd, _ ->
          Unix.set_nonblock fd;
          if node.nodelay then set_nodelay fd;
          let ci =
            {
              fd;
              dec = Frame.Decoder.create ();
              ready = false;
              rd_id = 0;
              rd_slot = -1;
            }
          in
          node.ins <- ci :: node.ins;
          (* Level-triggered registration: bytes that raced in before
             this point still report readable on the next wait. A dialer
             writes as soon as it connects, so they usually have: mark
             the connection ready so this same poll reads them. *)
          (match node.tracked with
          | Some set ->
              reg stats set fd (In (node, ci)) ~read:true ~write:false;
              ci.ready <- true;
              node.ready_ins <- ci :: node.ready_ins
          | None -> ());
          go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    in
    go ()

  (* Read everything available on one inbound connection. Returns false
     when the connection is finished (EOF or error) and should drop —
     the caller deregisters before closing. *)
  let read_conn stats buf (ci : conn_in) f =
    let rec go () =
      match Unix.read ci.fd buf 0 (Bytes.length buf) with
      | 0 ->
          Atomic.incr stats.read_syscalls;
          false
      | k ->
          Atomic.incr stats.read_syscalls;
          Frame.Decoder.feed_sub ci.dec buf ~pos:0 ~len:k;
          drain_decoder stats ci.dec f;
          if k = Bytes.length buf then go () else true
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
          Atomic.incr stats.read_syscalls;
          true
      | exception Unix.Unix_error (_, _, _) ->
          Atomic.incr stats.read_syscalls;
          false
    in
    go ()

  let drop_in stats node (ci : conn_in) =
    (match node.tracked with Some set -> unreg stats set ci.fd | None -> ());
    close_quietly ci.fd;
    node.ins <- List.filter (fun c -> c != ci) node.ins

  (* Legacy poll: scan every connection the node has. Only nodes whose
     shard never waits (raw pumps) pay this. *)
  let poll_untracked stats node f =
    accept_all stats node;
    let buf = Lazy.force node.readbuf in
    node.ins <-
      List.filter
        (fun ci ->
          let keep = read_conn stats buf ci f in
          if not keep then close_quietly ci.fd;
          keep)
        node.ins;
    Hashtbl.iter (fun _ co -> flush stats node co) node.outs

  (* In-process fast path: decode frames other co-resident nodes pushed
     straight into this node's mailbox — no fd, no syscall, no shard
     buffer. [decode_exact] decodes the one-hop string in place. *)
  let drain_ipc stats node f =
    match Mailbox.drain node.ipc with
    | [] -> ()
    | frames ->
        List.iter
          (fun frame ->
            match Frame.decode_exact frame with
            | Ok v ->
                Atomic.incr stats.frames_received;
                f v
            | Error _ -> Atomic.incr stats.resync_skips)
          frames

  (* Tracked poll: touch only what readiness reported (accept_ready,
     ready_ins) plus connections with unflushed bytes (busy). Write
     interest tracks the busy state so an idle cluster registers no
     write-side events at all. *)
  let poll_tracked stats set node f =
    let rd = match set.rd with Rdy rd -> rd | Cmp _ -> assert false in
    if node.accept_ready then begin
      node.accept_ready <- false;
      accept_all stats node
    end;
    (match node.ready_ins with
    | [] -> ()
    | ris ->
        node.ready_ins <- [];
        List.iter
          (fun ci ->
            ci.ready <- false;
            if not (read_conn stats set.sbuf ci f) then drop_in stats node ci)
          ris);
    match node.busy with
    | [] -> ()
    | busy ->
        node.busy <- [];
        List.iter
          (fun co ->
            flush stats node co;
            if queued co = 0 then begin
              co.in_busy <- false;
              match co.fd with
              | Some fd -> Readiness.set rd fd ~read:false ~write:false
              | None -> ()
            end
            else begin
              node.busy <- co :: node.busy;
              match co.fd with
              | Some fd -> reg stats set fd (Out (node, co)) ~read:false ~write:true
              | None ->
                  if not co.in_retry then begin
                    co.in_retry <- true;
                    set.retry_outs <- (node, co) :: set.retry_outs
                  end
            end)
          busy

  (* ---------------------------------------------------------------- *)
  (* Completion mode: the shard's hot path on the uring backend.       *)
  (*                                                                   *)
  (* Instead of readiness + read/write syscalls, every operation is a  *)
  (* submission: an ACCEPT rides on each listener, a READ (into an     *)
  (* owned arena slot) rides on each inbound connection, and queued    *)
  (* output goes out as WRITE submissions from a staging slot. All of  *)
  (* a shard's submissions flush in the single io_uring_enter of its   *)
  (* wait, which also collects every completion — one syscall per      *)
  (* wait, not three per hop. Slot or SQ exhaustion degrades honestly  *)
  (* to the direct read/write path (counted as syscalls) guarded by    *)
  (* one-shot polls.                                                   *)
  (* ---------------------------------------------------------------- *)

  let fresh_key set ent =
    let k = set.next_key in
    set.next_key <- k + 1;
    Hashtbl.replace set.utab k ent;
    k

  let cancel_key set c id = Hashtbl.remove set.utab id; Completion.prep_cancel c id

  let mark_ready node ci on_ready =
    if not ci.ready then begin
      ci.ready <- true;
      node.ready_ins <- ci :: node.ready_ins
    end;
    on_ready node.id

  let arm_accept set c node =
    if node.accept_id = 0 then begin
      let k = fresh_key set (U_accept node) in
      Completion.prep_accept c node.listen k;
      node.accept_id <- k
    end

  (* Keep a READ submission outstanding on an inbound connection; when
     the arena is exhausted, degrade to a one-shot readable poll whose
     completion routes through the direct-read fallback. *)
  let arm_read set c node ci =
    if ci.rd_id = 0 && ci.rd_slot <> -2 then begin
      let slot = if ci.rd_slot >= 0 then ci.rd_slot else Completion.alloc_slot c in
      if slot >= 0 then begin
        ci.rd_slot <- slot;
        let k = fresh_key set (U_read (node, ci)) in
        Completion.prep_read c ci.fd slot k;
        ci.rd_id <- k
      end
      else begin
        let k = fresh_key set (U_pollin (node, ci)) in
        Completion.prep_poll c ci.fd 1 k;
        ci.rd_id <- k
      end
    end

  let drop_in_cmp stats set c node ci =
    if ci.rd_id <> 0 then begin
      cancel_key set c ci.rd_id;
      ci.rd_id <- 0
    end;
    if ci.rd_slot >= 0 then Completion.free_slot c ci.rd_slot;
    ci.rd_slot <- -2;
    close_quietly ci.fd;
    Atomic.decr stats.fds_registered;
    node.ins <- List.filter (fun x -> x != ci) node.ins

  let tear_down_cmp stats set c co =
    if co.wr_id <> 0 then begin
      cancel_key set c co.wr_id;
      co.wr_id <- 0
    end;
    if co.po_id <> 0 then begin
      cancel_key set c co.po_id;
      co.po_id <- 0
    end;
    if co.wr_slot >= 0 then begin
      Completion.free_slot c co.wr_slot;
      co.wr_slot <- -1
    end;
    (* [tracked = None] on purpose: there is no readiness registration
       to unwind in completion mode. *)
    tear_down stats None co

  (* Put (more of) [co]'s queued bytes in flight. At most one WRITE
     submission per connection is outstanding; its completion chains
     the next chunk until the queue drains. The no-slot fallback is the
     classic direct write, with a POLLOUT poll to finish a short
     write. *)
  let submit_write stats set c node co =
    match co.fd with
    | None -> ()
    | Some fd ->
        if co.wr_id = 0 && queued co > 0 then begin
          let slot =
            if co.wr_slot >= 0 then co.wr_slot else Completion.alloc_slot c
          in
          if slot >= 0 then begin
            co.wr_slot <- slot;
            let len = Stdlib.min (queued co) (Completion.slot_bytes c) in
            Completion.blit_to_slot c slot co.out co.out_pos len;
            let k = fresh_key set (U_write (node, co)) in
            Completion.prep_write c fd slot len k;
            co.wr_id <- k;
            co.wr_len <- len
          end
          else begin
            flush stats node co;
            if queued co > 0 && co.fd <> None && co.po_id = 0 then begin
              let k = fresh_key set (U_pollout (node, co)) in
              Completion.prep_poll c fd 2 k;
              co.po_id <- k
            end
          end
        end

  (* One completion event. Cancellations complete under the reserved
     key 0, which is never in [utab], so they fall out at the lookup. *)
  let dispatch_cqe stats set c on_ready ~key ~res =
    match Hashtbl.find_opt set.utab key with
    | None -> ()
    | Some ent -> (
        Hashtbl.remove set.utab key;
        match ent with
        | U_wake ->
            set.wake_armed <- false;
            Wakeup.drain set.selfwake
        | U_accept node -> (
            node.accept_id <- 0;
            match Completion.classify res with
            | Completion.Ok ->
                let nfd = fd_of_int res in
                if node.nodelay then set_nodelay nfd;
                let ci =
                  {
                    fd = nfd;
                    dec = Frame.Decoder.create ();
                    ready = false;
                    rd_id = 0;
                    rd_slot = -1;
                  }
                in
                node.ins <- ci :: node.ins;
                Atomic.incr stats.fds_registered;
                arm_read set c node ci;
                arm_accept set c node
            | Completion.Retry -> arm_accept set c node
            | Completion.Canceled -> ()
            | Completion.Error ->
                (* E.g. EMFILE. Retrying at the next wait keeps the
                   listener alive without a hot error loop. *)
                set.rearm_accepts <- node :: set.rearm_accepts)
        | U_read (node, ci) ->
            ci.rd_id <- 0;
            if res > 0 then begin
              Completion.blit_from_slot c ci.rd_slot set.sbuf 0 res;
              Frame.Decoder.feed_sub ci.dec set.sbuf ~pos:0 ~len:res;
              mark_ready node ci on_ready;
              arm_read set c node ci
            end
            else if res = 0 then begin
              (* EOF after whatever was already fed: deliver the tail,
                 then drop. *)
              mark_ready node ci on_ready;
              drop_in_cmp stats set c node ci
            end
            else begin
              match Completion.classify res with
              | Completion.Retry -> arm_read set c node ci
              | Completion.Canceled ->
                  if ci.rd_slot >= 0 then begin
                    Completion.free_slot c ci.rd_slot;
                    ci.rd_slot <- -1
                  end
              | Completion.Ok | Completion.Error ->
                  mark_ready node ci on_ready;
                  drop_in_cmp stats set c node ci
            end
        | U_pollin (node, ci) -> (
            ci.rd_id <- 0;
            match Completion.classify res with
            | Completion.Ok -> mark_ready node ci on_ready
            | Completion.Retry -> arm_read set c node ci
            | Completion.Canceled -> ()
            | Completion.Error ->
                mark_ready node ci on_ready;
                drop_in_cmp stats set c node ci)
        | U_write (node, co) ->
            co.wr_id <- 0;
            if res > 0 then begin
              co.backoff <- backoff_min;
              advance co res;
              if queued co = 0 then begin
                if co.wr_slot >= 0 then begin
                  Completion.free_slot c co.wr_slot;
                  co.wr_slot <- -1
                end
              end
              else submit_write stats set c node co
            end
            else begin
              match Completion.classify res with
              | Completion.Ok | Completion.Retry ->
                  (* res = 0 cannot happen for a non-empty write;
                     transient errors just resubmit the same chunk. *)
                  if queued co > 0 then begin
                    let k = fresh_key set (U_write (node, co)) in
                    Completion.prep_write c
                      (match co.fd with Some fd -> fd | None -> assert false)
                      co.wr_slot co.wr_len k;
                    co.wr_id <- k
                  end
              | Completion.Canceled ->
                  if co.wr_slot >= 0 then begin
                    Completion.free_slot c co.wr_slot;
                    co.wr_slot <- -1
                  end
              | Completion.Error -> tear_down_cmp stats set c co
            end
        | U_pollout (node, co) -> (
            co.po_id <- 0;
            match Completion.classify res with
            | Completion.Ok ->
                if queued co > 0 then begin
                  if not co.in_busy then begin
                    co.in_busy <- true;
                    node.busy <- co :: node.busy
                  end;
                  on_ready node.id
                end
            | Completion.Retry ->
                if queued co > 0 then begin
                  match co.fd with
                  | Some fd ->
                      let k = fresh_key set (U_pollout (node, co)) in
                      Completion.prep_poll c fd 2 k;
                      co.po_id <- k
                  | None -> ()
                end
            | Completion.Canceled -> ()
            | Completion.Error -> tear_down_cmp stats set c co))

  (* Completion-mode poll: reads were already decoded into each ready
     connection's decoder by the dispatcher, so delivery is a pure
     drain; poll-fallback connections do their direct read here. Busy
     outs (re)submit writes. *)
  let poll_tracked_cmp stats set c node f =
    if node.accept_ready then node.accept_ready <- false;
    (match node.ready_ins with
    | [] -> ()
    | ris ->
        node.ready_ins <- [];
        List.iter
          (fun ci ->
            ci.ready <- false;
            if ci.rd_slot <> -1 || ci.rd_id <> 0 then drain_decoder stats ci.dec f
            else if read_conn stats set.sbuf ci f then arm_read set c node ci
            else drop_in_cmp stats set c node ci)
          ris);
    match node.busy with
    | [] -> ()
    | busy ->
        node.busy <- [];
        List.iter
          (fun co ->
            co.in_busy <- false;
            if queued co > 0 && co.wr_id = 0 then begin
              (match co.fd with
              | None ->
                  if Unix.gettimeofday () >= co.retry_at then
                    dial stats node co
              | Some _ -> ());
              match co.fd with
              | Some _ ->
                  submit_write stats set c node co;
                  if co.wr_id = 0 && queued co > 0 && co.fd <> None then begin
                    (* Direct-flush fallback left bytes; stay busy so
                       the POLLOUT completion re-drives it. *)
                    co.in_busy <- true;
                    node.busy <- co :: node.busy
                  end
              | None ->
                  if not co.in_retry then begin
                    co.in_retry <- true;
                    set.retry_outs <- (node, co) :: set.retry_outs
                  end
            end)
          busy

  let env_flag name =
    match Sys.getenv_opt name with
    | Some ("1" | "true" | "yes") -> true
    | _ -> false

  let create ?readiness ?spin ?inproc ~clock:_ ~n ~owned ~addrs () =
    Lazy.force ignore_sigpipe;
    (* High-N clusters hit the default soft RLIMIT_NOFILE long before
       they hit any real resource limit; raise it once per process. *)
    ignore (Readiness.raise_nofile ());
    let rd_backend =
      match readiness with
      | Some b -> Readiness.resolve ~source:"forced" b
      | None -> Readiness.default_backend ()
    in
    let cmp_mode = rd_backend = Readiness.Uring in
    let spin_wanted =
      match spin with Some s -> s | None -> env_flag "TR_SPIN"
    in
    (* Spinning trades CPU for wake latency, which is only a trade when
       there is a spare core to burn: on a single-CPU host the idle
       shard's busy-poll steals the very cycles the working shard needs,
       and "adaptive" must include adapting to the machine. Gate loudly,
       like an unavailable readiness backend. *)
    let spin = spin_wanted && Readiness.ncpus () > 1 in
    if spin_wanted && not spin then
      Printf.eprintf
        "[transport] spin-wait requested but only one CPU is online; \
         disabling the spin window (waits block immediately)\n\
         %!";
    let inproc =
      match inproc with Some i -> i | None -> env_flag "TR_INPROC"
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
              readbuf = lazy (Bytes.create 65536);
              claimed = false;
              tracked = None;
              tracked_pub = Atomic.make None;
              accept_ready = false;
              ready_ins = [];
              busy = [];
              accept_id = 0;
              ipc = Mailbox.create ();
              ipc_queued = Atomic.make false;
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
      match Hashtbl.find_opt node.outs dst with
      | Some co -> co
      | None ->
          let co =
            {
              addr = addrs.(dst);
              fd = None;
              out = Bytes.create 4096;
              out_pos = 0;
              out_len = 0;
              bounds = Queue.create ();
              head_off = 0;
              backoff = backoff_min;
              retry_at = 0.0;
              in_busy = false;
              in_retry = false;
              wr_id = 0;
              wr_slot = -1;
              wr_len = 0;
              po_id = 0;
            }
          in
          Hashtbl.replace node.outs dst co;
          co
    in
    (* In-process delivery: the frame goes straight into the hosted
       destination's mailbox as one string (wire-format identical to
       what the socket would carry), and the destination's shard is
       woken only if it had declared itself idle — the push/idle-check
       order here mirrors the idle-set/pending-check order in [wait],
       so a wake can be skipped only when the receiver is provably
       about to see the frame anyway. *)
    let deliver_inproc dnode frame =
      Atomic.incr stats.frames_sent;
      ignore (Atomic.fetch_and_add stats.bytes_sent (String.length frame));
      Atomic.incr stats.inproc_frames;
      Mailbox.push dnode.ipc frame;
      (* Dekker pair with [track_node]: the push above and this read are
         both SC, as are the adoption's publish and its mailbox check —
         so either this sender sees the destination's shard (and
         notifies it), or the adopting shard sees the pushed frame (and
         salvages the notification). A frame sent before the
         destination's first wait cannot be silently parked. *)
      match Atomic.get dnode.tracked_pub with
      | None -> ()
      | Some dset ->
          if Atomic.compare_and_set dnode.ipc_queued false true then
            Mailbox.push dset.ipc_pending dnode;
          if Atomic.get dset.idle then Wakeup.wake dset.selfwake
    in
    (* Enqueue only — the coalesced buffer is flushed once per [poll],
       so a burst of sends inside one loop iteration shares a single
       write syscall. *)
    let enqueue ~src ~dst ~len blit =
      check_node ~what:"send dst" ~n dst;
      let node = host ~what:"send src" src in
      let co = out_conn node dst in
      if queued co + len > high_water then Atomic.incr stats.frames_dropped
      else begin
        Atomic.incr stats.frames_sent;
        ignore (Atomic.fetch_and_add stats.bytes_sent len);
        append co ~len blit;
        (* Monotone max of any single peer's backlog — how close the run
           came to the high-water drop threshold. *)
        let rec bump v =
          let cur = Atomic.get stats.out_hwm_bytes in
          if v > cur && not (Atomic.compare_and_set stats.out_hwm_bytes cur v)
          then bump v
        in
        bump (queued co);
        if not co.in_busy then begin
          co.in_busy <- true;
          node.busy <- co :: node.busy
        end
      end
    in
    let send ~src ~dst ~delay:_ frame =
      if inproc && dst >= 0 && dst < n && hosted.(dst) <> None then begin
        check_node ~what:"send src" ~n src;
        ignore (host ~what:"send src" src);
        match hosted.(dst) with
        | Some dnode -> deliver_inproc dnode frame
        | None -> assert false
      end
      else
        enqueue ~src ~dst ~len:(String.length frame) (fun dst_buf dst_off ->
            Bytes.blit_string frame 0 dst_buf dst_off (String.length frame))
    in
    let send_frame ~src ~dst ~delay:_ buf =
      if inproc && dst >= 0 && dst < n && hosted.(dst) <> None then begin
        check_node ~what:"send src" ~n src;
        ignore (host ~what:"send src" src);
        match hosted.(dst) with
        | Some dnode -> deliver_inproc dnode (Buffer.contents buf)
        | None -> assert false
      end
      else
        enqueue ~src ~dst ~len:(Buffer.length buf) (fun dst_buf dst_off ->
            Buffer.blit buf 0 dst_buf dst_off (Buffer.length buf))
    in
    let poll ~owner ~upto:_ f =
      (* Socket arrival times are physical: any buffered byte arrived in
         the past, so an [upto] bound can never exclude it. *)
      let node = host ~what:"poll owner" owner in
      if inproc then drain_ipc stats node f;
      match node.tracked with
      | Some ({ rd = Cmp c; _ } as set) -> poll_tracked_cmp stats set c node f
      | Some set -> poll_tracked stats set node f
      | None -> poll_untracked stats node f
    in
    let next_due ~owner:_ = None in
    (* The list exists only so close can release the pipes and sets. *)
    let handles_mu = Mutex.create () in
    let handles = ref [] in
    let make_set selfwake =
      let rd =
        if cmp_mode then Cmp (Completion.create ())
        else Rdy (Readiness.create ~backend:rd_backend ())
      in
      let set =
        {
          rd;
          fdx = Hashtbl.create 256;
          sbuf = Bytes.create 65536;
          retry_outs = [];
          selfwake;
          idle = Atomic.make false;
          ipc_pending = Mailbox.create ();
          ewma_gap = 1e-3;
          last_event = Unix.gettimeofday ();
          rearm_accepts = [];
          wake_armed = false;
          next_key = 1;
          utab = Hashtbl.create 256;
          last_enters = 0;
          last_sqes = 0;
          wait_skips = 0;
        }
      in
      (* The shard's own wake pipe rides in its set from day one; the
         completion backend arms it lazily at each wait instead. *)
      (match set.rd with
      | Rdy _ ->
          reg stats set (Wakeup.read_fd selfwake) SelfWake ~read:true
            ~write:false
      | Cmp _ -> ());
      set
    in
    (* Move a node into a shard's readiness set. Registration is
       once-per-fd; the conservative ready flags make the node's next
       poll sweep everything once, after which O(ready) takes over. *)
    let track_node set node =
      node.tracked <- Some set;
      Atomic.set node.tracked_pub (Some set);
      (* Salvage half of the Dekker pair in [deliver_inproc]: frames
         that arrived while this node was unadopted carried no
         notification — queue one now, before the wait that called us
         drains [ipc_pending]. *)
      if
        inproc
        && (not (Mailbox.is_empty node.ipc))
        && Atomic.compare_and_set node.ipc_queued false true
      then Mailbox.push set.ipc_pending node;
      (match set.rd with
      | Rdy _ ->
          reg stats set node.listen (Listener node) ~read:true ~write:false;
          node.accept_ready <- true;
          List.iter
            (fun (ci : conn_in) ->
              reg stats set ci.fd (In (node, ci)) ~read:true ~write:false;
              if not ci.ready then begin
                ci.ready <- true;
                node.ready_ins <- ci :: node.ready_ins
              end)
            node.ins
      | Cmp c ->
          (* Submission-driven adoption: an ACCEPT on the listener and
             a READ per existing connection. Bytes already buffered in
             the kernel complete those reads immediately, so no
             conservative ready sweep is needed. *)
          Atomic.incr stats.fds_registered;
          arm_accept set c node;
          List.iter
            (fun (ci : conn_in) ->
              Atomic.incr stats.fds_registered;
              arm_read set c node ci)
            node.ins);
      Hashtbl.iter
        (fun _ co ->
          (match co.fd with
          | Some fd ->
              reg stats set fd (Out (node, co)) ~read:false
                ~write:(queued co > 0)
          | None -> ());
          if queued co > 0 && not co.in_busy then begin
            co.in_busy <- true;
            node.busy <- co :: node.busy
          end)
        node.outs
    in
    (* Block in the shard's readiness set until one of its fds is ready;
       each event is dispatched through the fd index and surfaced to the
       caller as an [on_ready owner] activation, so the shard loop knows
       exactly which nodes to poll. Nothing here walks the owner list:
       the cost is O(ready) plus the retry and in-process queues. *)
    let wait_set set ~timeout_s ~on_ready =
      (match set.rd with
      | Rdy _ -> ()
      | Cmp c ->
          (* The wake pipe rides as a one-shot poll; its completion
             unarms in dispatch and the next wait re-arms here. *)
          if not set.wake_armed then begin
            set.wake_armed <- true;
            Completion.prep_poll c (Wakeup.read_fd set.selfwake) 1
              (fresh_key set U_wake)
          end;
          (* Listeners whose accept completed with a hard error retry
             here, once per wait, instead of respinning hot. *)
          if set.rearm_accepts <> [] then begin
            let pending = set.rearm_accepts in
            set.rearm_accepts <- [];
            List.iter (fun node -> arm_accept set c node) pending
          end);
      let timeout = ref (Float.max 0.0 (Float.min timeout_s max_wait_s)) in
      (* In-process frames need no fd: drain the senders' notifications
         into activations. Clearing [ipc_queued] before [on_ready]
         guarantees a frame pushed after the drain re-notifies. *)
      let drain_pending () =
        let woken = ref 0 in
        List.iter
          (fun (dnode : node) ->
            Atomic.set dnode.ipc_queued false;
            incr woken;
            on_ready dnode.id)
          (Mailbox.drain set.ipc_pending);
        !woken
      in
      let woken = if inproc then drain_pending () else 0 in
      if woken > 0 then timeout := 0.0;
      (* Down peers with queued bytes wake their owner when the backoff
         expires; until then they bound the sleep. *)
      if set.retry_outs <> [] then begin
        let now = Unix.gettimeofday () in
        set.retry_outs <-
          List.filter
            (fun (node, co) ->
              if co.fd <> None || queued co = 0 then begin
                co.in_retry <- false;
                false
              end
              else if co.retry_at <= now then begin
                co.in_retry <- false;
                if not co.in_busy then begin
                  co.in_busy <- true;
                  node.busy <- co :: node.busy
                end;
                on_ready node.id;
                timeout := 0.0;
                false
              end
              else begin
                timeout := Float.min !timeout (co.retry_at -. now);
                true
              end)
            set.retry_outs
      end;
      (* Adaptive spin: before paying the blocking syscall, busy-poll
         the signals visible from user space alone — the mapped CQ ring
         and the in-process mailbox — for a window sized by the recent
         inter-event gap. A hit turns the kernel wait into a free
         zero-timeout drain; a miss costs a few microseconds of CPU.
         Spinning adds zero syscalls either way, which is why only
         those two signals qualify. *)
      (if spin && !timeout > 0.0 && (cmp_mode || inproc) then begin
         let signal () =
           (inproc && not (Mailbox.is_empty set.ipc_pending))
           ||
           match set.rd with
           | Cmp c -> Completion.cq_pending c
           | Rdy _ -> false
         in
         let budget = Float.min 100e-6 (Float.max 2e-6 (4.0 *. set.ewma_gap)) in
         let t0 = Unix.gettimeofday () in
         let hit = ref (signal ()) in
         while (not !hit) && Unix.gettimeofday () -. t0 < budget do
           Domain.cpu_relax ();
           hit := signal ()
         done;
         if !hit then begin
           Atomic.incr stats.spin_hits;
           timeout := 0.0
         end
         else Atomic.incr stats.spin_misses
       end);
      (* With in-process work already in hand, the kernel visit can be
         pure overhead: there is nothing to block for (timeout 0), and
         in completion mode an empty SQ and CQ make the elided enter
         provably a no-op — an async completion landing meanwhile is
         visible in the mapped CQ from user space and forces the next
         wait in. Readiness mode cannot prove the absence of socket
         events from user space, so its skips are bounded: every 64th
         wait visits the kernel and picks up whatever accrued. *)
      let skip_kernel =
        woken > 0 && !timeout <= 0.0
        &&
        match set.rd with
        | Cmp c -> Completion.sq_pending c = 0 && not (Completion.cq_pending c)
        | Rdy _ -> set.wait_skips < 63
      in
      if skip_kernel then set.wait_skips <- set.wait_skips + 1
      else begin
      set.wait_skips <- 0;
      (* Dekker handshake with in-process senders: publish idleness,
         then re-check the mailbox. A sender pushes first and wakes only
         if it saw [idle]; whichever side loses the race, either the
         recheck sees the push or the sender sees the flag — the wake
         cannot be lost. *)
      if inproc then begin
        Atomic.set set.idle true;
        if not (Mailbox.is_empty set.ipc_pending) then timeout := 0.0
      end;
      let ready =
        match set.rd with
        | Rdy rd ->
            Atomic.incr stats.wait_calls;
            (* Idle-Out connections torn down by the peer (ERR/HUP with
               zero write interest) are collected here and dropped only
               after the dispatch loop finishes: Readiness.wait's
               callback must not mutate the set, and an eager remove
               would swap-compact the poll backend's dense arrays
               mid-iteration. *)
            let dead_outs = ref [] in
            let ready =
              Readiness.wait rd ~timeout_s:!timeout
                (fun ~fd ~readable ~writable ->
                  match Hashtbl.find_opt set.fdx fd with
                  | None -> ()
                  | Some SelfWake -> Wakeup.drain set.selfwake
                  | Some (Listener node) ->
                      if readable then begin
                        node.accept_ready <- true;
                        on_ready node.id
                      end
                  | Some (In (node, ci)) ->
                      if readable && not ci.ready then begin
                        ci.ready <- true;
                        node.ready_ins <- ci :: node.ready_ins;
                        on_ready node.id
                      end
                  | Some (Out (node, co)) ->
                      if queued co = 0 then begin
                        (* Zero interest, yet an event: only ERR/HUP can
                           land here — the peer closed an idle
                           connection. Drop it (deferred) or
                           level-triggered epoll reports it on every
                           wait. *)
                        match co.fd with
                        | Some cfd when fd_int cfd = fd ->
                            dead_outs := (cfd, co) :: !dead_outs
                        | _ -> ()
                      end
                      else if writable then on_ready node.id)
            in
            List.iter
              (fun (cfd, co) ->
                unreg stats set cfd;
                close_quietly cfd;
                co.fd <- None)
              !dead_outs;
            ready
        | Cmp c ->
            (* One enter flushes every submission queued since the last
               wait and collects every completion. [dispatch_cqe] may
               prep (re-arms, chained writes); Completion.enter keeps
               draining until the CQ is empty, so those complete in the
               same wait when they finish instantly. *)
            let timeout_ns =
              if !timeout <= 0.0 then 0
              else int_of_float (Float.round (!timeout *. 1e9))
            in
            let dispatched =
              Completion.enter c ~timeout_ns
                ~f:(dispatch_cqe stats set c on_ready)
            in
            (* Fold the ring's cumulative counters into the shared stats
               by diffing against the last wait — this charges preps and
               SQ-full flushes made outside the wait too, so
               syscalls-per-grant stays honest. *)
            let enters = Completion.enter_syscalls c
            and sqes = Completion.sqes_submitted c in
            ignore
              (Atomic.fetch_and_add stats.wait_calls
                 (enters - set.last_enters));
            ignore
              (Atomic.fetch_and_add stats.sqes_submitted
                 (sqes - set.last_sqes));
            set.last_enters <- enters;
            set.last_sqes <- sqes;
            dispatched
      in
      if inproc then begin
        Atomic.set set.idle false;
        ignore (drain_pending () : int)
      end;
      if ready > 0 then begin
        let now = Unix.gettimeofday () in
        let gap = Float.max 1e-6 (now -. set.last_event) in
        set.ewma_gap <- (0.875 *. set.ewma_gap) +. (0.125 *. gap);
        set.last_event <- now;
        ignore (Atomic.fetch_and_add stats.fds_ready ready)
      end
      end
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
      let wait_fn ~timeout_s ~on_ready =
        let set =
          match h.hset with
          | Some set -> set
          | None ->
              let set = make_set h.wakeup in
              List.iter (track_node set) h.members;
              h.hset <- Some set;
              set
        in
        wait_set set ~timeout_s ~on_ready
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
          (match h.hset with
          | Some { rd = Rdy rd; _ } -> Readiness.close rd
          | Some { rd = Cmp c; _ } -> Completion.close c
          | None -> ());
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
      poll_driven = true;
      send;
      send_frame;
      poll;
      next_due;
      shard;
      close;
    }
end

let loopback ~clock ~n = Loopback.create ~clock ~n

let sockets ?readiness ?spin ?inproc ~clock ~n ~owned ~addrs () =
  Sockets.create ?readiness ?spin ?inproc ~clock ~n ~owned ~addrs ()

let uds_addrs ~dir ~n =
  Array.init n (fun i ->
      Unix.ADDR_UNIX (Filename.concat dir (Printf.sprintf "node-%d.sock" i)))

let tcp_addrs ?(host = "127.0.0.1") ~base_port ~n () =
  let ip = Unix.inet_addr_of_string host in
  Array.init n (fun i -> Unix.ADDR_INET (ip, base_port + i))
