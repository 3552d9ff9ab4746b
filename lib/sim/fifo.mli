(** Unboxed FIFO queues of ints and floats.

    Each is a growable circular buffer over a flat [int array] or
    [float array]: [push] and [pop] move a scalar between the caller and
    a slot, so a queue in steady state allocates nothing, and an entry
    that waits a long time costs no heap block for the GC to promote.
    Capacity doubles when full and never shrinks. *)

module Int : sig
  type t

  val create : unit -> t
  val length : t -> int
  val is_empty : t -> bool
  val push : t -> int -> unit

  val peek : t -> int
  (** The oldest entry. @raise Invalid_argument on an empty queue. *)

  val pop : t -> int
  (** Remove and return the oldest entry.
      @raise Invalid_argument on an empty queue. *)
end

module Float : sig
  type t

  val create : unit -> t
  val length : t -> int
  val is_empty : t -> bool
  val push : t -> float -> unit

  val peek : t -> float
  (** The oldest entry. @raise Invalid_argument on an empty queue. *)

  val pop : t -> float
  (** Remove and return the oldest entry.
      @raise Invalid_argument on an empty queue. *)

  val clear : t -> unit
end
