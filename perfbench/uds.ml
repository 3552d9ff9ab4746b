(* Unix-domain socket addresses in the abstract namespace (a name that
   starts with a NUL byte). They bind without creating files, so set-up
   time does not depend on the host filesystem, and the benchmark writes
   no socket files. Names carry the process id and a per-process counter,
   so concurrent runs and successive clusters never collide. *)

let counter = ref 0

let fresh tag =
  incr counter;
  Printf.sprintf "\000perfbench-%d-%d-%s" (Unix.getpid ()) !counter tag

let addr tag = Unix.ADDR_UNIX (fresh tag)

(* One address per node for a cluster of [n]. *)
let cluster ~n =
  let base = fresh "node" in
  Array.init n (fun i -> Unix.ADDR_UNIX (Printf.sprintf "%s-%d" base i))
