external read_stub : Unix.file_descr -> Bytes.t -> int -> int -> int
  = "tr_io_read"
[@@noalloc]

external write_stub : Unix.file_descr -> Bytes.t -> int -> int -> int
  = "tr_io_write"
[@@noalloc]

external transient_errno : int -> bool = "tr_io_transient" [@@noalloc]

let check what buf pos len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg what

let read fd buf pos len =
  check "Fdio.read" buf pos len;
  read_stub fd buf pos len

let write fd buf pos len =
  check "Fdio.write" buf pos len;
  write_stub fd buf pos len

let transient r = transient_errno (-r)
