(* See wakeup.mli. The read side is what shards register in their
   readiness set; level-triggered semantics make the race-free contract
   simple: a byte written before the shard enters its wait still wakes
   it, and draining the pipe empty when readiness reports it guarantees
   a burst of wakes cannot leave stale readability that spins the next
   wait. *)

type t = {
  r : Unix.file_descr;
  w : Unix.file_descr;
  buf : Bytes.t;
  reads : int Atomic.t;
  writes : int Atomic.t;
}

let create ?(reads = Atomic.make 0) ?(writes = Atomic.make 0) () =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  { r; w; buf = Bytes.create 4096; reads; writes }

let read_fd t = t.r

let byte = Bytes.make 1 '!'

let wake t =
  Atomic.incr t.writes;
  (* A full pipe is fine: readability is already pending, which is all
     a wake means. Any other error means we are shutting down. *)
  ignore (Fdio.write t.w byte 0 1)

(* A read shorter than the buffer took every byte the pipe held, so it
   is empty at that instant: stop there instead of paying a second read
   just to see EAGAIN. A wake landing after it is a fresh readiness
   event, which the next wait reports; so is a byte left behind by a
   failed read, since the pipe is level-triggered. *)
let rec drain t =
  Atomic.incr t.reads;
  if Fdio.read t.r t.buf 0 (Bytes.length t.buf) = Bytes.length t.buf then
    drain t

let close t =
  (try Unix.close t.r with Unix.Unix_error _ -> ());
  try Unix.close t.w with Unix.Unix_error _ -> ()
