(** Unit-scaled monotone wall clock for the live runtime.

    Protocol timer constants are written in the paper's abstract "time
    units" (one reliable hop = one unit in the default network). The live
    runtime maps a unit to [unit_s] wall seconds, so [now] ticks in the
    same units the simulator uses and live measurements overlay directly
    on simulated ones (Figure 9's axes carry over unchanged).

    Backed by [CLOCK_MONOTONIC] against a fixed epoch. It never steps
    backwards (an NTP step moves wall time, not this clock), so [now] is
    non-decreasing across all domains without any shared state, which
    the runner's due-time ordering of timers and frame deliveries
    depends on. *)

type t

val create : ?unit_s:float -> unit -> t
(** [unit_s] defaults to [1e-3] (one time unit = 1 ms).
    @raise Invalid_argument if [unit_s] is not positive and finite. *)

val unit_s : t -> float

val now : t -> float
(** Time units elapsed since [create]. *)

val elapsed_wall : t -> float
(** Wall seconds since [create]. *)

val sleep_until : t -> float -> unit
(** [sleep_until t units] sleeps until the clock reads [units] (no-op if
    already past). *)
