(* In-memory spans for the traced run: name, id, parent, start and end
   (wall seconds). Recording only appends to growable arrays; nothing is
   formatted or written until [write] at the end of the run. Spans of one
   request share its id; [parent] is the id of the span that caused it
   ([-1] for a root). *)

type t = {
  mutable len : int;
  mutable names : string array;
  mutable ids : int array;
  mutable parents : int array;
  mutable starts : float array;
  mutable stops : float array;
}

let create () =
  let cap = 1024 in
  {
    len = 0;
    names = Array.make cap "";
    ids = Array.make cap 0;
    parents = Array.make cap 0;
    starts = Array.make cap 0.;
    stops = Array.make cap 0.;
  }

let grow t =
  let cap = 2 * Array.length t.ids in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.names <- extend t.names "";
  t.ids <- extend t.ids 0;
  t.parents <- extend t.parents 0;
  t.starts <- extend t.starts 0.;
  t.stops <- extend t.stops 0.

let add t ~name ~id ?(parent = -1) ~start ~stop () =
  if t.len = Array.length t.ids then grow t;
  let i = t.len in
  t.names.(i) <- name;
  t.ids.(i) <- id;
  t.parents.(i) <- parent;
  t.starts.(i) <- start;
  t.stops.(i) <- stop;
  t.len <- i + 1

let length t = t.len

(* Time a call as one span. *)
let time t ~name ~id ?parent f =
  let start = Unix.gettimeofday () in
  let r = f () in
  add t ~name ~id ?parent ~start ~stop:(Unix.gettimeofday ()) ();
  r

(* Tab-separated, one span per line, times in microseconds from the
   first span's start. *)
let write t path =
  let origin =
    if t.len = 0 then 0.
    else Array.fold_left Float.min infinity (Array.sub t.starts 0 t.len)
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "name\tid\tparent\tstart_us\tend_us\n";
      for i = 0 to t.len - 1 do
        Printf.fprintf oc "%s\t%d\t%d\t%.1f\t%.1f\n" t.names.(i) t.ids.(i)
          t.parents.(i)
          ((t.starts.(i) -. origin) *. 1e6)
          ((t.stops.(i) -. origin) *. 1e6)
      done)
