(** Non-blocking [read] and [write] without allocation.

    For descriptors in [O_NONBLOCK] mode only: both calls go straight
    between the kernel and the given bytes, keep the OCaml runtime lock
    (a non-blocking call cannot sleep, so no other domain waits on it)
    and allocate nothing. A result [r >= 0] is the byte count ([0] from
    [read] is end of stream); [r < 0] is [-errno]. *)

val read : Unix.file_descr -> Bytes.t -> int -> int -> int
(** [read fd buf pos len] reads at most [len] bytes into
    [buf.[pos .. pos+len-1]].
    @raise Invalid_argument if that range is not inside [buf]. *)

val write : Unix.file_descr -> Bytes.t -> int -> int -> int
(** [write fd buf pos len] writes from [buf.[pos .. pos+len-1]].
    @raise Invalid_argument if that range is not inside [buf]. *)

val transient : int -> bool
(** [transient r], for a negative result [r], holds when the stream is
    still usable: [EAGAIN]/[EWOULDBLOCK], [EINTR], or a connect still in
    progress ([ENOTCONN], [EINPROGRESS], [EALREADY]). *)
