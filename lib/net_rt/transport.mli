(** Byte transport between live nodes, with two backends.

    A transport moves {e framed} byte strings (see {!Tr_wire.Frame}) from
    a source node to a destination node and hands complete frame payloads
    back to the destination's owning shard as borrowed {!Tr_wire.Frame.view}
    slices — no per-frame copy. It knows nothing about protocol
    messages — codecs live a layer up.

    {b Loopback} keeps the cluster in one process: each node has a
    lock-free {!Mailbox} fed by any domain, and deliveries honour a
    per-send [delay] (in clock units) through a min-heap, so the default
    one-unit hop reproduces the simulator's network model in real time.
    Delivery decodes each queued frame in place ({!Tr_wire.Frame.decode_exact});
    the only steady-state allocation is the one string that carries the
    frame across domains.

    {b Sockets} runs over TCP or Unix-domain stream sockets, one
    listener per hosted node. All I/O is non-blocking. Outgoing frames
    coalesce into a flat per-peer buffer that {!poll} flushes with a
    single [write(2)] — many frames per syscall — bounded by a 4 MiB
    high-water mark (frames past it are dropped whole and counted).
    Partial reads accumulate in an incremental frame decoder; a failed
    or refused connection backs off exponentially (10 ms doubling to
    1 s) before reconnecting, and a connection torn down mid-frame drops
    the half-written frame whole so the next connection starts on a
    frame boundary. TCP peers are set [TCP_NODELAY] — batching happens
    in the transport, not in Nagle's queue. The wire itself is the delay
    model — the [delay] argument is ignored. Creating a sockets
    transport installs a process-wide SIGPIPE ignore so a disconnected
    peer surfaces as [EPIPE] (handled by the reconnect path) instead of
    killing the process, and raises [RLIMIT_NOFILE] as far as the
    process may so high-N clusters don't trip the soft default.

    {b Readiness.} A shard waits through a {!shard} handle that fixes
    its owners once, on either backend, and every wait surfaces work as
    [on_ready owner] activations so the shard loop knows exactly which
    nodes to poll. On sockets the handle's first {!wait} moves those
    nodes' fds into a per-shard {!Readiness} set (epoll on Linux, poll
    elsewhere — see {!Readiness.backend}); fds register once and every
    subsequent wait costs O(ready), not O(connections) or O(owners). On
    loopback each send to a claimed node posts its due time to the
    handle's arrival index, and a wait turns those posts into a
    due-time heap: O(frames arrived + owners due). *)

type stats = {
  frames_sent : int Atomic.t;
  bytes_sent : int Atomic.t;
  frames_received : int Atomic.t;
  decode_errors : int Atomic.t;
      (** Envelope decode failures reported via {!count_decode_error}. *)
  resync_skips : int Atomic.t;
      (** Framing-level skips: bytes discarded to resynchronise after
          garbage, plus unknown-version frames skipped whole. *)
  reconnects : int Atomic.t;
      (** Times an outgoing connection was torn down and rescheduled. *)
  frames_dropped : int Atomic.t;
      (** Sends refused because the per-peer outgoing buffer was over its
          high-water mark, plus half-written frames discarded at
          tear-down (sockets only). *)
  out_hwm_bytes : int Atomic.t;
      (** High-water mark: the largest backlog any single peer's outgoing
          buffer reached (sockets only) — how close the run came to the
          4 MiB drop threshold, visible while it happens. *)
  write_syscalls : int Atomic.t;
      (** [write(2)] calls issued (sockets only), wake-pipe writes
          included — with batching this stays well below
          [frames_sent]. *)
  read_syscalls : int Atomic.t;
      (** [read(2)] calls issued (sockets only), wake-pipe drains
          included. *)
  wait_calls : int Atomic.t;
      (** {!wait} invocations that reached the kernel (sockets only). *)
  fds_ready : int Atomic.t;
      (** Total fds reported ready across all waits; divided by
          [wait_calls] this gives the average readiness batch — the
          O(ready) dispatch cost — independent of [fds_registered]. *)
  fds_registered : int Atomic.t;
      (** Gauge: fds currently registered across all shard readiness
          sets (listeners, connections, wake pipes). *)
}

(** One coherent reading of every counter. Each field is a single
    [Atomic.get] of the corresponding {!stats} counter, all taken in one
    call — the way to print or export totals while shard domains are
    still running (or racing to finish), instead of re-reading live
    atomics one by one mid-report. *)
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

type t

val name : t -> string
(** Backend name for report stamping: ["loopback"], ["tcp"] or ["unix"]. *)

val readiness_backend : t -> string
(** Backend driving {!wait}: ["epoll"] or ["poll"] for sockets (the
    backend actually in use after loud fallback, not the one requested);
    ["none"] for loopback. *)

val stats : t -> stats

val snapshot : t -> snapshot
(** Read every counter once, atomically enough for reporting: no
    counter is read twice, so a report printed while shards still run
    cannot show a ratio computed from two different moments of the same
    counter. *)

val snapshot_of_stats : stats -> snapshot
(** As {!snapshot}, from a bare {!stats} record — for embedders that
    hold only {!Cluster.control.transport_stats} (the service front-end
    printing periodic reports while the cluster is live, or racing its
    teardown). *)

val send : t -> src:int -> dst:int -> delay:float -> string -> unit
(** Ship one complete frame. [delay] is in clock units (loopback only).
    Never blocks; socket sends coalesce until the next {!poll} flush. *)

val send_frame : t -> src:int -> dst:int -> delay:float -> Buffer.t -> unit
(** As {!send}, straight out of an encode buffer (see
    {!Tr_wire.Codec.encode_frame}): the contents are copied out before
    returning, so the caller may reuse the buffer immediately. On the
    sockets backend this path allocates nothing. *)

val poll : t -> ?upto:float -> owner:int -> (Tr_wire.Frame.view -> unit) -> unit
(** Deliver every frame payload currently due for node [owner] to the
    callback, in arrival order, as borrowed views (valid only during the
    callback). Also flushes [owner]'s coalesced outgoing buffers — one
    write syscall per busy peer per poll. [upto] caps the delivery
    horizon in clock units (loopback only) so the caller can interleave
    timers and deliveries in due-time order; socket arrivals are
    physical and always due. On sockets this touches only the
    connections the last {!wait} reported ready, the ones it accepts
    itself (read at once: a dialer's first bytes are usually already
    there) and those with unflushed bytes — O(ready), not
    O(connections). On loopback it settles the node's own inbox, with or
    without a {!shard} handle. Must only be called from the shard that
    owns the node.
    @raise Invalid_argument on a sockets node whose shard handle has not
    waited yet. *)

type shard
(** One shard's view of a transport: its owner nodes and what it waits
    on — a readiness set and a wake pipe (sockets), or an arrival index
    (loopback). *)

val shard : t -> owners:int list -> shard
(** Fix a shard's owners once, checking each owner's range and that no
    other handle holds it. On sockets this also checks that the owner
    is hosted here and creates the shard's wake pipe; the readiness set
    itself, and the registration of the owners' fds, wait for the
    handle's first {!wait}, so they run on the waiting shard's domain.
    On loopback it indexes the frames already queued for the owners;
    later sends to them post to the handle as they happen, so create
    handles before other domains start sending.
    @raise Invalid_argument on an out-of-range owner, one already in
    another handle, or (sockets) one not hosted here. *)

val wait :
  shard -> ?on_ready:(int -> unit) -> timeout_s:float -> unit -> unit
(** Block until work may be available for the shard's owners, a
    {!wake} arrives, or [timeout_s] elapses (capped at 0.25 s as a
    lost-wakeup safety net). On sockets this blocks in the shard's
    readiness set, and its cost is O(ready): it never walks the owner
    list. Each ready event invokes [on_ready owner] (possibly several
    times per owner) telling the caller which nodes to {!poll}. The
    wake pipe rides in the same set and is drained here, only when the
    set reports it readable; it is never reported through [on_ready].
    An idle cluster burns no CPU. Pending reconnect deadlines bound the
    sleep and activate their owner when due. A signal can end the wait
    early, like a spurious wake-up. Only the shard's own domain may call
    this.

    On loopback a wait reports, through [on_ready], exactly the owners
    with a delivery due by now (an owner with several due frames may be
    reported several times). If none is due and [timeout_s] is
    positive it sleeps until the earliest of [timeout_s], the shard's
    earliest queued delivery and half a clock unit, then reports again.
    The half-unit cap exists because nothing can cut a loopback sleep
    short: it bounds how late a frame another domain queues mid-sleep
    is noticed. Its cost is O(frames arrived + owners due). *)

val wake : shard -> unit
(** Interrupt the shard's current or next {!wait}. Safe from any
    domain; one counted [write(2)] on sockets. A no-op on loopback,
    whose sleeps are capped at half a unit instead. *)

val count_decode_error : t -> unit
(** Record an envelope-level decode failure (bad codec key/version or
    malformed message) against this transport's stats. *)

val close : t -> unit

val loopback : clock:Clock.t -> n:int -> t

val sockets :
  ?readiness:Readiness.backend ->
  clock:Clock.t ->
  n:int ->
  owned:int list ->
  addrs:Unix.sockaddr array ->
  unit ->
  t
(** Host the nodes in [owned] (listeners are bound immediately); sends
    may target any node in [addrs]. [name] reports ["unix"] if the first
    address is a Unix-domain path, ["tcp"] otherwise.

    [readiness] forces a wait backend; the default honours
    [TR_READINESS] and otherwise picks the best available (epoll, then
    poll — see {!Readiness.default_backend}). Frames between co-hosted
    nodes travel over the same sockets as any other.
    @raise Invalid_argument on bad [owned] ids or array size.
    @raise Failure on an unavailable forced backend or a bad
    [TR_READINESS] value. *)

val uds_addrs : dir:string -> n:int -> Unix.sockaddr array
(** [dir/node-<i>.sock] for each node. *)

val tcp_addrs : ?host:string -> base_port:int -> n:int -> unit -> Unix.sockaddr array
(** Consecutive ports on [host] (default 127.0.0.1). *)
