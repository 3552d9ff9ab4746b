let magic = 0xA7
let version = 1
let max_payload = 1 lsl 24

let encode buf payload =
  if String.length payload > max_payload then
    invalid_arg "Wire.Frame.encode: payload too large";
  Buffer.add_char buf (Char.chr magic);
  Buffer.add_char buf (Char.chr version);
  Buf.Enc.uvarint buf (String.length payload);
  Buffer.add_string buf payload

let to_string payload =
  let buf = Buffer.create (String.length payload + 4) in
  encode buf payload;
  Buffer.contents buf

(* Header + payload straight out of another Buffer — the scratch-encode
   path builds the payload once and frames it with no intermediate
   string. *)
let encode_buffer buf payload =
  let len = Buffer.length payload in
  if len > max_payload then
    invalid_arg "Wire.Frame.encode_buffer: payload too large";
  Buffer.add_char buf (Char.chr magic);
  Buffer.add_char buf (Char.chr version);
  Buf.Enc.uvarint buf len;
  Buffer.add_buffer buf payload

type view = { buf : Bytes.t; off : int; len : int }

let view_to_string { buf; off; len } = Bytes.sub_string buf off len

(* The length varint of a frame whose header starts at [buf.[base]],
   with [len] bytes available from there, packed as
   [(plen lsl 4) lor bytes_used] so the hot path allocates nothing:
   negative codes are errors (-1 malformed, -2 truncated, -3 payload
   over cap). Packing is safe because plen is checked against
   [max_payload] (24 bits) before shifting. 63-bit ints need at most 9
   LEB128 groups (shift cap 56); a 10th byte would shift by 63, which is
   unspecified for OCaml ints, so reject before reading it. *)
let rec varint_code buf base len acc shift used =
  if used >= 9 then -1
  else if 2 + used >= len then -2
  else
    let b = Char.code (Bytes.unsafe_get buf (base + 2 + used)) in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then
      if acc < 0 || acc > max_payload then -3 else (acc lsl 4) lor (used + 1)
    else varint_code buf base len acc (shift + 7) (used + 1)

module Decoder = struct
  type progress = Frame of string | Await | Skip of string

  type view_progress = View of view | Await_view | Skip_view of string

  (* Unconsumed input lives in [buf.[start .. start+len-1]]; [feed]
     appends, [next] consumes from the front and compacts lazily. *)
  type t = {
    mutable buf : Bytes.t;
    mutable start : int;
    mutable len : int;
    mutable skips : int;
  }

  let create () = { buf = Bytes.create 256; start = 0; len = 0; skips = 0 }
  let skipped_events t = t.skips
  let buffered t = t.len

  let reserve t extra =
    let needed = t.len + extra in
    if t.start > 0 && (t.start + needed > Bytes.length t.buf || t.start > 4096)
    then begin
      Bytes.blit t.buf t.start t.buf 0 t.len;
      t.start <- 0
    end;
    if needed > Bytes.length t.buf then begin
      let cap = ref (2 * Bytes.length t.buf) in
      while needed > !cap do
        cap := 2 * !cap
      done;
      let bigger = Bytes.create !cap in
      Bytes.blit t.buf t.start bigger 0 t.len;
      t.buf <- bigger;
      t.start <- 0
    end

  let feed_sub t chunk ~pos ~len =
    if pos < 0 || len < 0 || pos + len > Bytes.length chunk then
      invalid_arg "Wire.Frame.Decoder.feed_sub: bad bounds";
    reserve t len;
    Bytes.blit chunk pos t.buf (t.start + t.len) len;
    t.len <- t.len + len

  let feed t chunk =
    feed_sub t (Bytes.unsafe_of_string chunk) ~pos:0 ~len:(String.length chunk)

  let peek t i = Char.code (Bytes.get t.buf (t.start + i))

  let consume t k =
    t.start <- t.start + k;
    t.len <- t.len - k;
    if t.len = 0 then t.start <- 0

  (* Drop the bogus leading byte and scan to the next candidate magic so
     the stream re-locks at the following frame boundary. *)
  let resync t reason =
    consume t 1;
    let skipped = ref 1 in
    while t.len > 0 && peek t 0 <> magic do
      consume t 1;
      incr skipped
    done;
    t.skips <- t.skips + 1;
    Printf.sprintf "%s; skipped %d bytes" reason !skipped

  (* The returned view aliases [t.buf]: [consume] only moves indices, so
     the slice stays intact until the next [feed]/[feed_sub] (which may
     compact or reallocate the buffer). *)
  let next_view t =
    if t.len = 0 then Await_view
    else if peek t 0 <> magic then Skip_view (resync t "bad magic")
    else if t.len < 2 then Await_view
    else
      let v = peek t 1 in
      let code = varint_code t.buf t.start t.len 0 0 0 in
      if code = -2 then Await_view
      else if code = -1 then Skip_view (resync t "malformed length varint")
      else if code = -3 then
        (* A sign-overflowed varint decodes negative — treated like any
           oversized declaration, never as an offset. *)
        Skip_view (resync t "declared payload exceeds cap")
      else begin
        let used = code land 0xf and plen = code lsr 4 in
        let total = 2 + used + plen in
        if t.len < total then Await_view
        else if v <> version then begin
          consume t total;
          t.skips <- t.skips + 1;
          Skip_view (Printf.sprintf "unsupported frame version %d" v)
        end
        else begin
          let off = t.start + 2 + used in
          consume t total;
          View { buf = t.buf; off; len = plen }
        end
      end

  let next t =
    match next_view t with
    | View v -> Frame (view_to_string v)
    | Await_view -> Await
    | Skip_view reason -> Skip reason
end

(* Exactly one frame spanning the whole string — the loopback fast path,
   where every mailbox entry is a single encoder-produced frame. The
   view aliases [frame] without copying. *)
let decode_exact frame =
  let len = String.length frame in
  let buf = Bytes.unsafe_of_string frame in
  if len < 2 then Error "frame shorter than header"
  else if Char.code (Bytes.unsafe_get buf 0) <> magic then Error "bad magic"
  else if Char.code (Bytes.unsafe_get buf 1) <> version then
    Error "unsupported frame version"
  else
    let code = varint_code buf 0 len 0 0 0 in
    if code = -1 then Error "malformed length varint"
    else if code = -2 then Error "truncated length varint"
    else if code = -3 then Error "declared payload too long"
    else
      let used = code land 0xf and plen = code lsr 4 in
      if 2 + used + plen <> len then Error "frame length mismatch"
      else Ok { buf; off = 2 + used; len = plen }
