(* Two copies of one circular buffer: a functor over the element type
   would make the slot accesses polymorphic, and a polymorphic read of a
   float array boxes its result. Capacities are powers of two, so a
   slot index is a mask, not a division. A queue starts with no buffer
   at all, so creating one per node costs one small block. *)

module Int = struct
  type t = { mutable buf : int array; mutable head : int; mutable len : int }

  let create () = { buf = [||]; head = 0; len = 0 }
  let length t = t.len
  let is_empty t = t.len = 0

  let grow t =
    let cap = Array.length t.buf in
    let bigger = Array.make (Stdlib.max 8 (2 * cap)) 0 in
    for k = 0 to t.len - 1 do
      bigger.(k) <- t.buf.((t.head + k) land (cap - 1))
    done;
    t.buf <- bigger;
    t.head <- 0

  let[@inline] push t x =
    if t.len = Array.length t.buf then grow t;
    t.buf.((t.head + t.len) land (Array.length t.buf - 1)) <- x;
    t.len <- t.len + 1

  let[@inline] peek t =
    if t.len = 0 then invalid_arg "Fifo.Int.peek: empty";
    t.buf.(t.head)

  let[@inline] pop t =
    let x = peek t in
    t.head <- (t.head + 1) land (Array.length t.buf - 1);
    t.len <- t.len - 1;
    x
end

module Float = struct
  type t = { mutable buf : float array; mutable head : int; mutable len : int }

  let create () = { buf = [||]; head = 0; len = 0 }
  let length t = t.len
  let is_empty t = t.len = 0

  let grow t =
    let cap = Array.length t.buf in
    let bigger = Array.make (Stdlib.max 8 (2 * cap)) 0.0 in
    for k = 0 to t.len - 1 do
      bigger.(k) <- t.buf.((t.head + k) land (cap - 1))
    done;
    t.buf <- bigger;
    t.head <- 0

  let[@inline] push t x =
    if t.len = Array.length t.buf then grow t;
    t.buf.((t.head + t.len) land (Array.length t.buf - 1)) <- x;
    t.len <- t.len + 1

  let[@inline] peek t =
    if t.len = 0 then invalid_arg "Fifo.Float.peek: empty";
    t.buf.(t.head)

  let[@inline] pop t =
    let x = peek t in
    t.head <- (t.head + 1) land (Array.length t.buf - 1);
    t.len <- t.len - 1;
    x

  let clear t =
    t.head <- 0;
    t.len <- 0
end
