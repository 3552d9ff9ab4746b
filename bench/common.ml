(* Helpers shared by the bench drivers: repeat statistics in the JSON
   reports' median-and-quartiles form, and /proc readers. *)

module Quantile = Tr_stats.Quantile

let sample xs =
  let q = Quantile.create () in
  Quantile.add_many q xs;
  q

(* ["name": median, "name_q1": q1, "name_q3": q3] over a row's repeats. *)
let spread ?(digits = 0) name xs =
  let q = sample xs in
  Printf.sprintf {|"%s": %.*f, "%s_q1": %.*f, "%s_q3": %.*f|} name digits
    (Quantile.median q) name digits (Quantile.quantile q 0.25) name digits
    (Quantile.quantile q 0.75)

(* The "key: value" lines of a /proc file; [] off Linux. *)
let proc_fields path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> []
  | text ->
      List.filter_map
        (fun line ->
          match String.index_opt line ':' with
          | Some i ->
              Some
                ( String.trim (String.sub line 0 i),
                  String.trim
                    (String.sub line (i + 1) (String.length line - i - 1)) )
          | None -> None)
        (String.split_on_char '\n' text)

(* The host the rows were measured on, for the report header. *)
let cpu_model () =
  List.assoc_opt "model name" (proc_fields "/proc/cpuinfo")
  |> Option.value ~default:"unknown"
