(** Wake pipes.

    A shard sleeping in {!Transport.wait} is woken by writing a byte to
    its pipe; the pipe's read end rides in the shard's readiness set.
    The write side is safe from any domain. {!drain} belongs to the wait
    that reports the read end readable, not to every wake-up: it reads
    the pipe empty, so a burst of stop/load-inject wakes cannot leave
    stale readability behind (stale bytes would make every subsequent
    wait return immediately and spin the shard at 100% CPU), and an
    unreported pipe costs no read at all. *)

type t

val create : ?reads:int Atomic.t -> ?writes:int Atomic.t -> unit -> t
(** A non-blocking pipe pair. Every [read(2)] {!drain} issues bumps
    [reads], every [write(2)] {!wake} issues bumps [writes] — pass a
    transport's syscall counters so its totals include the pipe. *)

val read_fd : t -> Unix.file_descr
(** The fd to register for readability. *)

val wake : t -> unit
(** Write one wake byte. Never blocks and never raises: a full pipe
    already has readability pending, which is all a wake means. *)

val drain : t -> unit
(** Read the pipe empty: until a read comes back shorter than the
    buffer or fails ([EAGAIN] once it is empty). Owning shard only. *)

val close : t -> unit
