(* One run's results: named metrics with their samples, output checks,
   and the attempted/failed tally, printed as human lines, a provenance
   record, and the final one-line JSON result. *)

type metric = { name : string; unit_ : string; samples : float list }

type t = {
  mutable metrics : metric list;  (* newest first *)
  mutable checks : (string * bool) list;  (* newest first *)
  mutable attempted : int;
  mutable failed : int;
}

let create () = { metrics = []; checks = []; attempted = 0; failed = 0 }

(* A metric's value is the median of its samples: one sample per
   repetition inside the run, or a single measured value. *)
let add r ~name ~unit_ samples =
  r.metrics <- { name; unit_; samples } :: r.metrics

let add1 r ~name ~unit_ v = add r ~name ~unit_ [ v ]

(* A check named more than once passes only if every instance passed. *)
let check r name ok =
  (match List.assoc_opt name r.checks with
  | Some prev ->
      r.checks <- (name, prev && ok) :: List.remove_assoc name r.checks
  | None -> r.checks <- (name, ok) :: r.checks);
  if not ok then Printf.printf "CHECK FAILED: %s\n%!" name

let tally r ~attempted ~failed =
  r.attempted <- r.attempted + attempted;
  r.failed <- r.failed + failed

let find r name = List.find_opt (fun m -> m.name = name) r.metrics

let value r name =
  match find r name with
  | Some m -> Bstats.median m.samples
  | None -> Float.nan

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.15g" v else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let obj fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"

let print_human r =
  List.iter
    (fun m ->
      let s = Bstats.summarize m.samples in
      Printf.printf "  %-40s %14.6g %-8s (median of %d; q1 %.6g, q3 %.6g)\n"
        m.name s.Bstats.median m.unit_ s.Bstats.n s.Bstats.q1 s.Bstats.q3)
    (List.rev r.metrics)

(* [wanted] is the (name, unit) list the run must report, in order.
   A wanted metric the workload did not measure fails the run when
   [missing_is_zero] is false; otherwise it reads 0 — the workload did no
   work in that layer. A measured value that is not finite, or a unit that
   differs from the declared one, also fails the run. *)
let emit r ~provenance ~wanted ~missing_is_zero =
  print_human r;
  let problems = ref [] in
  let results =
    List.map
      (fun (name, unit_) ->
        match find r name with
        | Some m ->
            let v = Bstats.median m.samples in
            if not (Float.is_finite v) then
              problems := (name ^ " is not finite") :: !problems;
            if m.unit_ <> unit_ then
              problems :=
                Printf.sprintf "%s measured in %s, declared in %s" name m.unit_
                  unit_
                :: !problems;
            (name, unit_, (if Float.is_finite v then v else 0.), Some m)
        | None ->
            if not missing_is_zero then
              problems := (name ^ " was not measured") :: !problems
            else
              Printf.printf "  %-40s not exercised by this workload (0)\n"
                name;
            (name, unit_, 0., None))
      wanted
  in
  List.iter (fun p -> Printf.printf "PROBLEM: %s\n" p) (List.rev !problems);
  let correct = !problems = [] && List.for_all snd r.checks in
  let spread (_, unit_, _, m) =
    match m with
    | None -> obj [ ("unit", json_string unit_); ("n", "0") ]
    | Some m ->
        let s = Bstats.summarize m.samples in
        obj
          [
            ("unit", json_string unit_);
            ("median", json_float s.Bstats.median);
            ("q1", json_float s.Bstats.q1);
            ("q3", json_float s.Bstats.q3);
            ("n", string_of_int s.Bstats.n);
          ]
  in
  print_endline
    (obj
       [
         ( "provenance",
           obj (List.map (fun (k, v) -> (k, json_string v)) provenance) );
         ( "checks",
           obj
             (List.rev_map
                (fun (k, ok) -> (k, if ok then "true" else "false"))
                r.checks) );
         ( "spread",
           obj
             (List.map (fun ((name, _, _, _) as x) -> (name, spread x)) results)
         );
       ]);
  print_endline
    (obj
       [
         ("correct", if correct then "true" else "false");
         ("attempted", string_of_int (Stdlib.max 1 r.attempted));
         ("failed", string_of_int r.failed);
         ( "metrics",
           obj
             (List.map
                (fun (name, unit_, v, _) ->
                  ( name,
                    obj [ ("value", json_float v); ("unit", json_string unit_) ]
                  ))
                results) );
       ])
