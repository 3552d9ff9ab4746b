external monotonic_ns : unit -> int = "tr_rd_monotonic_ns" [@@noalloc]

type t = { epoch_ns : int; unit_s : float }

let create ?(unit_s = 1e-3) () =
  if not (Float.is_finite unit_s) || unit_s <= 0.0 then
    invalid_arg "Clock.create: unit_s must be positive and finite";
  { epoch_ns = monotonic_ns (); unit_s }

let unit_s t = t.unit_s
let elapsed_wall t = float_of_int (monotonic_ns () - t.epoch_ns) *. 1e-9
let now t = elapsed_wall t /. t.unit_s

let sleep_until t units =
  let d = (units -. now t) *. t.unit_s in
  if d > 0.0 then Unix.sleepf d
