(* Order statistics over the benchmark's own samples. *)

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (type 7), [nan] when empty. *)
let quantile_sorted a q =
  let m = Array.length a in
  if m = 0 then Float.nan
  else
    let h = q *. float_of_int (m - 1) in
    let lo = int_of_float h in
    let hi = Stdlib.min (m - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let quantile xs q = quantile_sorted (sorted_array xs) q

(* The mean of the samples ranked within [q - w, q + w]. Gaps read from a
   clock with a coarse step take only a few values, so an exact quantile
   of many of them reads the same step run after run; the mean over a
   band of ranks moves with the distribution. *)
let band_mean_sorted a q w =
  let m = Array.length a in
  if m = 0 then Float.nan
  else
    let rank p =
      Stdlib.max 0 (Stdlib.min (m - 1) (int_of_float (p *. float_of_int (m - 1))))
    in
    let lo = rank (q -. w) and hi = rank (q +. w) in
    let sum = ref 0. in
    for i = lo to hi do
      sum := !sum +. a.(i)
    done;
    !sum /. float_of_int (hi - lo + 1)

let median_sorted a =
  let m = Array.length a in
  if m = 0 then Float.nan
  else if m mod 2 = 1 then a.(m / 2)
  else (a.((m / 2) - 1) +. a.(m / 2)) /. 2.

let median xs = median_sorted (sorted_array xs)

(* Quartiles exactly as Python's [statistics.quantiles(data, n=4)]
   (method 'exclusive'), the estimator the benchmark's spreads are
   judged by. *)
let quartiles_sorted a =
  let ld = Array.length a in
  if ld = 0 then (Float.nan, Float.nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let n = 4 and m = ld + 1 in
    let cut i =
      let j = Stdlib.max 1 (Stdlib.min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
      /. float_of_int n
    in
    (cut 1, cut 3)

type summary = { n : int; median : float; q1 : float; q3 : float }

let summarize xs =
  let a = sorted_array xs in
  let q1, q3 = quartiles_sorted a in
  { n = Array.length a; median = median_sorted a; q1; q3 }

let mean xs =
  match xs with
  | [] -> Float.nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Nanoseconds per call of [f i] for [i] in [0, ops), over passes repeated
   for at least 50 ms; five such samples, as a list. *)
let ns_per_op ~ops f =
  List.init 5 (fun _ ->
      let calls = ref 0 in
      let t0 = Unix.gettimeofday () in
      while Unix.gettimeofday () -. t0 < 0.05 do
        for i = 0 to ops - 1 do
          f i
        done;
        calls := !calls + ops
      done;
      (Unix.gettimeofday () -. t0) /. float_of_int !calls *. 1e9)
