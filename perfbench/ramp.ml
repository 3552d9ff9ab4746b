(* The open-loop arrival schedule and its bookkeeping. Every request has a
   due time fixed by the seed before the run starts; the generator's
   lateness (sent - due) and each request's latency (response - due) are
   both measured against it, so a stalled generator cannot hide its own
   delay. Requests belong to the phase their due time falls in, however
   late the response arrives. *)

type phase = { rate : float; (* requests per second *) duration_s : float }

(* End offset of each phase, seconds from the schedule's start. *)
let edges phases =
  let acc = ref 0. in
  Array.of_list
    (List.map
       (fun p ->
         acc := !acc +. p.duration_s;
         !acc)
       phases)

(* Poisson due offsets, ascending: exponential gaps at each phase's rate,
   restarted at every phase edge (memoryless, so no bias at the edge). *)
let schedule ~seed phases =
  let rng = Random.State.make [| seed; 0x7a3b |] in
  let out = ref [] in
  let start = ref 0. in
  List.iter
    (fun p ->
      let stop = !start +. p.duration_s in
      let t = ref !start in
      let continue = ref true in
      while !continue do
        t := !t -. (log (1. -. Random.State.float rng 1.) /. p.rate);
        if !t < stop then out := !t :: !out else continue := false
      done;
      start := stop)
    phases;
  Array.of_list (List.rev !out)

(* Index of the phase a due offset falls in; offsets past the last edge
   belong to the last phase. *)
let phase_of edges due =
  let last = Array.length edges - 1 in
  let rec go i = if i >= last || due < edges.(i) then i else go (i + 1) in
  go 0

(* Seconds between when a request was due and an absolute instant
   [at]: the generator's lag when [at] is the send time, the request's
   latency when [at] is its response time. *)
let since_due ~start ~due ~at = at -. (start +. due)

(* Group per-request values by the phase of each request's due time;
   [nan] values (requests never answered) are left out. *)
let by_phase edges ~dues ~values =
  let groups = Array.make (Array.length edges) [] in
  Array.iteri
    (fun i due ->
      let v = values.(i) in
      if not (Float.is_nan v) then begin
        let p = phase_of edges due in
        groups.(p) <- v :: groups.(p)
      end)
    dues;
  Array.map List.rev groups
