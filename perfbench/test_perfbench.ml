(* Tests of the benchmark's own parsing and bookkeeping: /proc/self/io
   deltas, the open-loop schedule's due-time lag and per-phase
   attribution, the quartiles its spreads are judged by, and the
   host-speed scaling. *)

let failures = ref 0

let check name ok =
  if ok then Printf.printf "ok   %s\n" name
  else begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let proc_io () =
  let sample =
    "rchar: 3980\nwchar: 12\nsyscr: 9\nsyscw: 2\nread_bytes: 0\n\
     write_bytes: 0\ncancelled_write_bytes: 0\n"
  in
  check "procio: parses syscr and syscw"
    (Procio.parse sample = Some { Procio.syscr = 9; syscw = 2 });
  check "procio: missing counter is None"
    (Procio.parse "rchar: 1\nsyscr: 4\n" = None);
  check "procio: malformed counter is None"
    (Procio.parse "syscr: x\nsyscw: 1\n" = None);
  let before = { Procio.syscr = 100; syscw = 40 } in
  let after = { Procio.syscr = 420; syscw = 146 } in
  let d = Procio.diff ~before ~after in
  check "procio: delta per counter" (d = { Procio.syscr = 320; syscw = 106 });
  check "procio: read+write delta" (Procio.rw d = 426);
  (* The live counters only move forward, and a read syscall between two
     samples shows up in the delta. *)
  match Procio.read () with
  | None -> check "procio: /proc/self/io readable" false
  | Some before -> (
      ignore (In_channel.with_open_bin "/proc/self/io" In_channel.input_all);
      match Procio.read () with
      | None -> check "procio: /proc/self/io readable" false
      | Some after ->
          let d = Procio.diff ~before ~after in
          check "procio: live delta counts our reads"
            (d.Procio.syscr >= 1 && d.Procio.syscw >= 0))

let due_time_lag () =
  let start = 1000.0 in
  check "ramp: lag is send time minus due time"
    (close (Ramp.since_due ~start ~due:2.5 ~at:1002.75) 0.25);
  (* A generator that stalls for 0.4 s sends three requests late; each
     one's latency still runs from its own due time. *)
  let dues = [| 1.0; 1.1; 1.2 |] in
  let sent = 1001.5 and granted = [| 1001.6; 1001.65; 1001.7 |] in
  let lags = Array.map (fun due -> Ramp.since_due ~start ~due ~at:sent) dues in
  let lats =
    Array.mapi (fun i due -> Ramp.since_due ~start ~due ~at:granted.(i)) dues
  in
  check "ramp: stalled generator shows as lag"
    (close lags.(0) 0.5 && close lags.(1) 0.4 && close lags.(2) 0.3);
  check "ramp: latency includes the generator's lag"
    (close lats.(0) 0.6 && close lats.(1) 0.55 && close lats.(2) 0.5)

let phases () =
  let phases =
    [
      { Ramp.rate = 2.; duration_s = 1.0 };
      { Ramp.rate = 120.; duration_s = 3.0 };
      { Ramp.rate = 2.; duration_s = 1.0 };
    ]
  in
  let edges = Ramp.edges phases in
  check "ramp: edges are cumulative" (edges = [| 1.0; 4.0; 5.0 |]);
  check "ramp: phase of a due offset"
    (Ramp.phase_of edges 0.2 = 0
    && Ramp.phase_of edges 1.0 = 1
    && Ramp.phase_of edges 3.99 = 1
    && Ramp.phase_of edges 4.5 = 2
    && Ramp.phase_of edges 9.0 = 2);
  (* Attribution follows the due time, not the response time: the
     request due at 3.9 s is answered after the edge but stays in the
     high phase; an unanswered request is left out. *)
  let dues = [| 0.5; 1.5; 3.9; 4.2; 4.6 |] in
  let values = [| 0.01; 0.02; 0.30; 0.03; Float.nan |] in
  let groups = Ramp.by_phase edges ~dues ~values in
  check "ramp: per-phase attribution by due time"
    (groups = [| [ 0.01 ]; [ 0.02; 0.30 ]; [ 0.03 ] |]);
  let a = Ramp.schedule ~seed:7 phases and b = Ramp.schedule ~seed:7 phases in
  check "ramp: same seed, same schedule" (a = b);
  check "ramp: another seed, another schedule"
    (a <> Ramp.schedule ~seed:8 phases);
  let ascending = ref true in
  Array.iteri (fun i d -> if i > 0 && d < a.(i - 1) then ascending := false) a;
  check "ramp: schedule ascending and inside the ramp"
    (!ascending && Array.for_all (fun d -> d >= 0. && d < 5.0) a);
  let high = (Ramp.by_phase edges ~dues:a ~values:a).(1) in
  (* 360 expected in the high phase; far outside 300..420 means the rates
     are applied to the wrong phases. *)
  check "ramp: high phase carries the high rate"
    (List.length high > 300 && List.length high < 420)

let quartiles () =
  let q xs = Bstats.quartiles_sorted (Bstats.sorted_array xs) in
  (* Reference values from Python's statistics.quantiles(data, n=4). *)
  check "bstats: quartiles of 1..10"
    (let a, b = q (List.init 10 (fun i -> float_of_int (i + 1))) in
     close a 2.75 && close b 8.25);
  check "bstats: quartiles of 1..5"
    (let a, b = q [ 5.; 4.; 3.; 2.; 1. ] in
     close a 1.5 && close b 4.5);
  check "bstats: quartiles of two values"
    (let a, b = q [ 3.; 1. ] in
     close a 0.5 && close b 3.5);
  check "bstats: median" (close (Bstats.median [ 4.; 1.; 3.; 2. ]) 2.5);
  let a = Array.init 101 float_of_int in
  check "bstats: band mean around a quantile"
    (close (Bstats.band_mean_sorted a 0.5 0.02) 50.
    && close (Bstats.band_mean_sorted a 0.99 0.01) 99.
    && close (Bstats.band_mean_sorted a 0.5 0.) 50.);
  check "bstats: band mean clipped at the ends"
    (close (Bstats.band_mean_sorted a 1.0 0.02) 99.)

let host_speed () =
  let nominal = Hostspeed.nominal_ms in
  (* On a host half as fast the probe takes twice as long, a rate reads
     half and a time twice; scaled, both read as on the reference host. *)
  check "hostspeed: a rate on a slow host scales back"
    (close (Hostspeed.scale_rate ~ref_ms:(2. *. nominal) 500.) 1000.);
  check "hostspeed: a time on a slow host scales back"
    (close (Hostspeed.scale_time ~ref_ms:(2. *. nominal) 0.2) 0.1);
  check "hostspeed: nothing moves on the reference host"
    (close (Hostspeed.scale_rate ~ref_ms:nominal 7.) 7.
    && close (Hostspeed.scale_time ~ref_ms:nominal 7.) 7.);
  let ms = Hostspeed.probe () in
  check "hostspeed: the probe reads a positive time"
    (Float.is_finite ms && ms > 0.);
  let steps = ref [] in
  let out =
    Hostspeed.paired ~more:(fun k -> k < 3) (fun k ->
        steps := k :: !steps;
        10 * k)
  in
  check "hostspeed: paired runs each step once, in order"
    (List.rev !steps = [ 0; 1; 2 ] && List.map fst out = [ 0; 10; 20 ]);
  check "hostspeed: each step gets a probe reading"
    (List.for_all (fun (_, ms) -> Float.is_finite ms && ms > 0.) out)

let () =
  proc_io ();
  due_time_lag ();
  phases ();
  quartiles ();
  host_speed ();
  if !failures > 0 then begin
    Printf.printf "%d failed\n" !failures;
    exit 1
  end
