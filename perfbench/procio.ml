(* Kernel-side I/O syscall counters from /proc/self/io. [syscr] and
   [syscw] count every read-class and write-class syscall the whole
   process made, over all its threads, whether or not the program's own
   counters saw them. *)

type t = { syscr : int; syscw : int }

(* Parse the "key: value" lines of /proc/<pid>/io. [None] when either
   counter is missing or malformed. *)
let parse text =
  let field key =
    List.find_map
      (fun line ->
        match String.index_opt line ':' with
        | Some i when String.sub line 0 i = key ->
            let len = String.length line - i - 1 in
            int_of_string_opt (String.trim (String.sub line (i + 1) len))
        | _ -> None)
      (String.split_on_char '\n' text)
  in
  match (field "syscr", field "syscw") with
  | Some syscr, Some syscw -> Some { syscr; syscw }
  | _ -> None

let read () =
  match In_channel.with_open_bin "/proc/self/io" In_channel.input_all with
  | text -> parse text
  | exception Sys_error _ -> None

let diff ~before ~after =
  { syscr = after.syscr - before.syscr; syscw = after.syscw - before.syscw }

let rw t = t.syscr + t.syscw
