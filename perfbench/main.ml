(* The repository benchmark driver: runs one workload for a fixed time,
   checks its outputs, and prints every metric by name with its unit.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              --end-to-end name:unit,... --per-layer name:unit,...
              [--rev REV] [--nproc N]

   With --trace 0 the final line carries the end-to-end metrics; with
   --trace 1 it carries the per-layer metrics, and the run also measures
   the workload a second time with spans recorded, writes the spans to
   spans.tsv in the working directory, and reports the difference between
   the two passes as the tracing overhead. *)

let workloads =
  [
    ("ring-uds-1024", (W_ring.run, "grants_per_s"));
    ("mutex-ramp", (W_mutex.run, "grant_p50_ms"));
    ("sim-binsearch-1024", (W_sim.run, "events_per_s"));
    ("walk-faults", (W_walk.run, "grants_per_s"));
  ]

let parse_wanted s =
  List.filter_map
    (fun item ->
      match String.index_opt item ':' with
      | Some i ->
          let len = String.length item - i - 1 in
          Some (String.sub item 0 i, String.sub item (i + 1) len)
      | None ->
          if item = "" then None else invalid_arg ("bad metric spec " ^ item))
    (String.split_on_char ',' s)

(* Throughput reads better when higher; everything else here (times,
   latencies, recovery) reads better when lower. *)
let higher_is_better name = name = "grants_per_s" || name = "events_per_s"

let report_overhead r ~headline ~untraced ~traced =
  let cost name a b =
    if higher_is_better name then (a -. b) /. a else (b -. a) /. a
  in
  List.iter2
    (fun (name, unit_, a) (_, _, b) ->
      let a = Bstats.median a and b = Bstats.median b in
      Printf.printf
        "tracing overhead %-20s untraced %.6g %s, traced %.6g %s: %+.1f%% \
         cost\n"
        name a unit_ b unit_
        (100. *. cost name a b);
      if name = headline then
        Report.add1 r ~name:"trace.overhead_share" ~unit_:"share"
          (cost name a b))
    untraced traced

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and e2e = ref "" and layers = ref "" in
  let rev = ref "unknown" and nproc = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--end-to-end", Arg.Set_string e2e, "name:unit,...");
      ("--per-layer", Arg.Set_string layers, "name:unit,...");
      ("--rev", Arg.Set_string rev, "REV");
      ("--nproc", Arg.Set_string nproc, "N");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run, headline =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline
          ("unknown workload '" ^ !workload ^ "'; known: "
          ^ String.concat ", " (List.map fst workloads));
        exit 2
  in
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  let traced = !trace = 1 in
  let r = Report.create () and spans = Spans.create () in
  Printf.printf "workload %s, seed %d, %.0f s, trace %d\n%!" !workload !seed
    !seconds !trace;
  let overhead = run ~seed:!seed ~seconds:!seconds ~trace:traced r spans in
  Option.iter
    (fun (untraced, traced) -> report_overhead r ~headline ~untraced ~traced)
    overhead;
  if traced then begin
    Spans.write spans "spans.tsv";
    Printf.printf "%d spans written to spans.tsv\n" (Spans.length spans)
  end;
  Report.emit r
    ~provenance:
      [
        ("workload", !workload);
        ("seed", string_of_int !seed);
        ("seconds", Printf.sprintf "%g" !seconds);
        ("trace", string_of_int !trace);
        ("nproc", !nproc);
        ("ocaml", Sys.ocaml_version);
        ("rev", !rev);
        ("host", Unix.gethostname ());
      ]
    ~wanted:(parse_wanted (if traced then !layers else !e2e))
    ~missing_is_zero:traced
