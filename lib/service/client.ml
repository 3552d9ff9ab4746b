module Readiness = Tr_net_rt.Readiness
module Frame = Tr_wire.Frame
module Codec = Tr_wire.Codec
module Network = Tr_sim.Network

external fd_int : Unix.file_descr -> int = "%identity"

type workload =
  | Closed of { think_s : float }
  | Open of { rate : float }

type phase = { duration_s : float; workload : workload }

type config = {
  connect : Unix.sockaddr;
  clients : int;
  conns : int;
  app : Server.app;
  phases : phase list;
  seed : int;
  report_every_s : float;
  drain_s : float;
  verbose : bool;
}

let default_config ~connect ~clients =
  {
    connect;
    clients;
    conns = max 1 (min clients 8);
    app = Server.Mutex;
    phases = [ { duration_s = 5.0; workload = Closed { think_s = 0.0 } } ];
    seed = 1;
    report_every_s = 1.0;
    drain_s = 3.0;
    verbose = false;
  }

let validate cfg =
  if cfg.clients <= 0 then invalid_arg "Client.run: need at least one client";
  if cfg.conns <= 0 || cfg.conns > cfg.clients then
    invalid_arg "Client.run: need 1 <= conns <= clients";
  if cfg.phases = [] then invalid_arg "Client.run: need at least one phase";
  List.iter
    (fun p ->
      if p.duration_s <= 0. then
        invalid_arg "Client.run: phase durations must be positive";
      match p.workload with
      | Closed { think_s } ->
          if think_s < 0. then invalid_arg "Client.run: negative think time"
      | Open { rate } ->
          if rate <= 0. then
            invalid_arg "Client.run: open-loop rate must be positive")
    cfg.phases

type result = {
  seed : int;  (** The run's RNG seed, echoed for provenance. *)
  sent : int;
  welcomes : int;
  grants : int;
  releaseds : int;
  committeds : int;
  rejects : int;
  decode_errors : int;
  resync_skips : int;
  conn_failures : int;
  outstanding : int;  (** Requests still unanswered when the run ended. *)
  slo : Slo.snapshot;
  phase_slos : (phase * Slo.snapshot) list;
}

(* Pending client sends, keyed by due wall time: a flat binary min-heap
   (the stdlib has none). Closed-loop think timers and nothing else, so
   it stays small — but jittered thinks make insertion order arbitrary. *)
module Heap = struct
  type t = {
    mutable a : (float * int) array;
    mutable len : int;
  }

  let create () = { a = Array.make 64 (0., 0); len = 0 }
  let swap h i j =
    let t = h.a.(i) in
    h.a.(i) <- h.a.(j);
    h.a.(j) <- t

  let push h due v =
    if h.len = Array.length h.a then begin
      let grown = Array.make (2 * h.len) (0., 0) in
      Array.blit h.a 0 grown 0 h.len;
      h.a <- grown
    end;
    h.a.(h.len) <- (due, v);
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      fst h.a.(p) > fst h.a.(!i)
    do
      let p = (!i - 1) / 2 in
      swap h !i p;
      i := p
    done

  let peek h = if h.len = 0 then None else Some h.a.(0)

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.a.(0) in
      h.len <- h.len - 1;
      h.a.(0) <- h.a.(h.len);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.len && fst h.a.(l) < fst h.a.(!smallest) then smallest := l;
        if r < h.len && fst h.a.(r) < fst h.a.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          swap h !i !smallest;
          i := !smallest
        end
      done;
      Some top
    end

  let clear h = h.len <- 0
end

type conn = {
  fd : Unix.file_descr;
  key : int;
  dec : Frame.Decoder.t;
  mutable out : Bytes.t;
  mutable out_pos : int;
  mutable out_len : int;
  mutable alive : bool;
}

let queued c = c.out_len - c.out_pos

let ensure_capacity c extra =
  if c.out_len + extra > Bytes.length c.out then begin
    if c.out_pos > 0 then begin
      let live = queued c in
      Bytes.blit c.out c.out_pos c.out 0 live;
      c.out_pos <- 0;
      c.out_len <- live
    end;
    let need = c.out_len + extra in
    if need > Bytes.length c.out then begin
      let cap = ref (Bytes.length c.out) in
      while !cap < need do
        cap := !cap * 2
      done;
      let grown = Bytes.create !cap in
      Bytes.blit c.out 0 grown 0 c.out_len;
      c.out <- grown
    end
  end

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let run cfg =
  validate cfg;
  let slo = Slo.create () in
  (* One accumulator per configured phase: a response always lands in
     the phase that ISSUED the request (carried through [in_flight]),
     not whichever phase is current when the response arrives — the
     tail of an overloaded ramp step is charged to that step. *)
  let nphases = List.length cfg.phases in
  let phase_slos = Array.init nphases (fun _ -> Slo.create ()) in
  let cur_phase = ref 0 in
  let sent = ref 0
  and welcomes = ref 0
  and grants = ref 0
  and releaseds = ref 0
  and committeds = ref 0
  and rejects = ref 0
  and decode_errors = ref 0
  and resync_skips = ref 0
  and conn_failures = ref 0 in
  let rng = Random.State.make [| cfg.seed; 0x10adc11 |] in
  (* Connect synchronously (UDS / loopback), then go non-blocking. *)
  let conns =
    Array.init cfg.conns (fun _ ->
        let fd =
          Unix.socket (Unix.domain_of_sockaddr cfg.connect) Unix.SOCK_STREAM 0
        in
        (try Unix.connect fd cfg.connect
         with e ->
           close_quietly fd;
           raise e);
        Unix.set_nonblock fd;
        (match cfg.connect with
        | Unix.ADDR_INET _ -> (
            try Unix.setsockopt fd Unix.TCP_NODELAY true
            with Unix.Unix_error _ -> ())
        | Unix.ADDR_UNIX _ -> ());
        {
          fd;
          key = fd_int fd;
          dec = Frame.Decoder.create ();
          out = Bytes.create 4096;
          out_pos = 0;
          out_len = 0;
          alive = true;
        })
  in
  let rd = Readiness.create () in
  let by_key = Hashtbl.create (2 * cfg.conns) in
  Array.iter
    (fun c ->
      Hashtbl.replace by_key c.key c;
      Readiness.set rd c.fd ~read:true ~write:false)
    conns;
  let conn_of_client client = conns.(client mod cfg.conns) in
  let drop_conn c =
    if c.alive then begin
      c.alive <- false;
      incr conn_failures;
      Readiness.remove rd c.fd;
      close_quietly c.fd;
      Hashtbl.remove by_key c.key
    end
  in
  let interest c =
    if c.alive then Readiness.set rd c.fd ~read:true ~write:(queued c > 0)
  in
  let flush_conn c =
    let continue = ref true in
    while !continue && c.alive && queued c > 0 do
      match Unix.write c.fd c.out c.out_pos (queued c) with
      | 0 -> continue := false
      | written ->
          c.out_pos <- c.out_pos + written;
          if queued c = 0 then begin
            c.out_pos <- 0;
            c.out_len <- 0
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          continue := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (_, _, _) ->
          drop_conn c;
          continue := false
    done;
    interest c
  in
  let scratch = Codec.scratch () in
  let send_request client req =
    let c = conn_of_client client in
    if c.alive then begin
      let buf =
        Codec.encode_frame scratch Service_wire.request_codec ~src:client
          ~channel:Network.Reliable req
      in
      let len = Buffer.length buf in
      ensure_capacity c len;
      Buffer.blit buf 0 c.out c.out_len len;
      c.out_len <- c.out_len + len;
      interest c
    end
  in
  (* Per-client sequencing and in-flight bookkeeping. The latency table
     maps (client, seq) to send wall time; completion is Grant for the
     mutex app and Committed for total order. *)
  let next_seq = Array.make cfg.clients 0 in
  let in_flight : (int * int, float * int) Hashtbl.t =
    Hashtbl.create (4 * cfg.clients)
  in
  let idle = Array.make cfg.clients true in
  let fire client =
    let seq = next_seq.(client) in
    next_seq.(client) <- seq + 1;
    Hashtbl.replace in_flight (client, seq) (Unix.gettimeofday (), !cur_phase);
    Slo.note_started slo;
    Slo.note_started phase_slos.(!cur_phase);
    incr sent;
    idle.(client) <- false;
    match cfg.app with
    | Server.Mutex -> send_request client (Service_wire.Acquire { client; seq })
    | Server.Total_order ->
        send_request client (Service_wire.Publish { client; seq; payload = "" })
  in
  let thinks = Heap.create () in
  let complete ~kind client seq =
    match Hashtbl.find_opt in_flight (client, seq) with
    | None -> ()
    | Some (t0, issued_phase) ->
        Hashtbl.remove in_flight (client, seq);
        let d = Unix.gettimeofday () -. t0 in
        Slo.note_latency slo ~kind d;
        Slo.note_latency phase_slos.(issued_phase) ~kind d
  in
  (* Mutable workload state, advanced by [roll_phases]. *)
  let phases = ref cfg.phases in
  let phase_end = ref 0. in
  let sending = ref true in
  let next_arrival = ref infinity in
  let open_rate = ref 0. in
  let rr = ref 0 in
  let start_phase now p =
    phase_end := now +. p.duration_s;
    match p.workload with
    | Closed { think_s = _ } ->
        next_arrival := infinity;
        open_rate := 0.;
        Heap.clear thinks;
        for client = 0 to cfg.clients - 1 do
          if idle.(client) then fire client
        done
    | Open { rate } ->
        Heap.clear thinks;
        open_rate := rate;
        next_arrival := now
  in
  let think_of_phase () =
    match !phases with
    | { workload = Closed { think_s }; _ } :: _ -> Some think_s
    | _ -> None
  in
  let roll_phases now =
    if now >= !phase_end then begin
      match !phases with
      | [] | [ _ ] ->
          phases := [];
          sending := false;
          next_arrival := infinity;
          Heap.clear thinks
      | _ :: (p :: _ as rest) ->
          phases := rest;
          incr cur_phase;
          start_phase now p
    end
  in
  let on_completion client =
    idle.(client) <- true;
    if !sending then
      match think_of_phase () with
      | Some think_s ->
          if think_s <= 0. then fire client
          else Heap.push thinks (Unix.gettimeofday () +. think_s) client
      | None -> ()
  in
  let handle_response (resp : Service_wire.response) =
    match resp with
    | Service_wire.Welcome _ -> incr welcomes
    | Service_wire.Grant { client; seq } ->
        incr grants;
        complete ~kind:`Grant client seq;
        (match cfg.app with
        | Server.Mutex -> send_request client (Service_wire.Release { client; seq })
        | Server.Total_order -> ())
    | Service_wire.Released { client; seq = _ } ->
        incr releaseds;
        if cfg.app = Server.Mutex then on_completion client
    | Service_wire.Committed { client; seq; global_seq = _ } ->
        incr committeds;
        complete ~kind:`Commit client seq;
        if cfg.app = Server.Total_order then on_completion client
    | Service_wire.Rejected { client; seq; reason = _ } ->
        incr rejects;
        Slo.note_reject slo;
        (match Hashtbl.find_opt in_flight (client, seq) with
        | Some (_, issued_phase) -> Slo.note_reject phase_slos.(issued_phase)
        | None -> ());
        Hashtbl.remove in_flight (client, seq);
        on_completion client
  in
  let pump_decoder c =
    let continue = ref true in
    while !continue && c.alive do
      match Frame.Decoder.next_view c.dec with
      | Frame.Decoder.Await_view -> continue := false
      | Frame.Decoder.Skip_view _ -> incr resync_skips
      | Frame.Decoder.View v -> (
          match Codec.decode_view Service_wire.response_codec v with
          | Ok env -> handle_response env.Codec.msg
          | Error _ -> incr decode_errors)
    done
  in
  let readbuf = Bytes.create 65536 in
  let read_conn c =
    let continue = ref true in
    while !continue && c.alive do
      match Unix.read c.fd readbuf 0 (Bytes.length readbuf) with
      | 0 ->
          drop_conn c;
          continue := false
      | len ->
          Frame.Decoder.feed_sub c.dec readbuf ~pos:0 ~len;
          pump_decoder c
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          continue := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (_, _, _) ->
          drop_conn c;
          continue := false
    done
  in
  (* Session handshake: one Hello per client so the server binds every
     session before load starts. *)
  for client = 0 to cfg.clients - 1 do
    send_request client (Service_wire.Hello { client })
  done;
  let t0 = Unix.gettimeofday () in
  (match cfg.phases with p :: _ -> start_phase t0 p | [] -> assert false);
  let next_report = ref (t0 +. cfg.report_every_s) in
  let last_grants = ref 0 and last_commits = ref 0 in
  let drain_deadline = ref infinity in
  let ready = ref [] in
  let finished () =
    (not !sending)
    && (Hashtbl.length in_flight = 0 || Unix.gettimeofday () >= !drain_deadline)
  in
  let live_conns () = Array.exists (fun c -> c.alive) conns in
  while (not (finished ())) && live_conns () do
    let now = Unix.gettimeofday () in
    (* Fire everything due: open-loop arrivals and expired thinks. *)
    if !sending then begin
      roll_phases now;
      if !sending then begin
        while !next_arrival <= now do
          fire !rr;
          rr := (!rr + 1) mod cfg.clients;
          let gap = -.log (1. -. Random.State.float rng 1.) /. !open_rate in
          next_arrival := !next_arrival +. gap
        done;
        let expired = ref true in
        while !expired do
          match Heap.peek thinks with
          | Some (due, client) when due <= now ->
              ignore (Heap.pop thinks);
              fire client
          | _ -> expired := false
        done
      end
      else drain_deadline := now +. cfg.drain_s
    end;
    let next_due =
      List.fold_left Float.min infinity
        [
          !next_report;
          !next_arrival;
          (if !sending then !phase_end else !drain_deadline);
          (match Heap.peek thinks with Some (due, _) -> due | None -> infinity);
        ]
    in
    let timeout_s = Float.max 0.001 (Float.min 0.25 (next_due -. now)) in
    ready := [];
    ignore
      (Readiness.wait rd ~timeout_s (fun ~fd ~readable ~writable ->
           ready := (fd, readable, writable) :: !ready));
    List.iter
      (fun (fd, readable, writable) ->
        match Hashtbl.find_opt by_key fd with
        | None -> ()
        | Some c ->
            if writable then flush_conn c;
            if readable && c.alive then read_conn c)
      (List.rev !ready);
    let now = Unix.gettimeofday () in
    if now >= !next_report then begin
      next_report := now +. cfg.report_every_s;
      if cfg.verbose then begin
        let s = Slo.snapshot slo in
        let dg = !grants - !last_grants and dc = !committeds - !last_commits in
        last_grants := !grants;
        last_commits := !committeds;
        let ms v = Format.asprintf "%a" Slo.pp_ms v in
        Printf.printf
          "[loadgen] t=%.1fs sent=%d in_flight=%d grants=%d (+%d/s) \
           committed=%d (+%d/s) rejects=%d p50=%s p99=%s p999=%s\n\
           %!"
          (now -. t0) !sent (Hashtbl.length in_flight) !grants
          (int_of_float (float_of_int dg /. cfg.report_every_s))
          !committeds
          (int_of_float (float_of_int dc /. cfg.report_every_s))
          !rejects (ms s.Slo.p50) (ms s.Slo.p99) (ms s.Slo.p999)
      end
    end
  done;
  Array.iter
    (fun c ->
      if c.alive then begin
        Readiness.remove rd c.fd;
        close_quietly c.fd
      end)
    conns;
  Readiness.close rd;
  let phase_snaps =
    List.mapi (fun i p -> (p, Slo.snapshot phase_slos.(i))) cfg.phases
  in
  if cfg.verbose && nphases > 1 then
    List.iteri
      (fun i ((p : phase), (s : Slo.snapshot)) ->
        let ms v = Format.asprintf "%a" Slo.pp_ms v in
        Printf.printf
          "[loadgen] phase %d (%s, %.1fs): started=%d done=%d rejects=%d \
           p50=%s p99=%s p999=%s\n\
           %!"
          i
          (match p.workload with
          | Closed { think_s } -> Printf.sprintf "closed think=%gs" think_s
          | Open { rate } -> Printf.sprintf "open %g req/s" rate)
          p.duration_s s.Slo.started s.Slo.samples s.Slo.rejects
          (ms s.Slo.p50) (ms s.Slo.p99) (ms s.Slo.p999))
      phase_snaps;
  {
    seed = cfg.seed;
    sent = !sent;
    welcomes = !welcomes;
    grants = !grants;
    releaseds = !releaseds;
    committeds = !committeds;
    rejects = !rejects;
    decode_errors = !decode_errors;
    resync_skips = !resync_skips;
    conn_failures = !conn_failures;
    outstanding = Hashtbl.length in_flight;
    slo = Slo.snapshot slo;
    phase_slos = phase_snaps;
  }

let result_json (r : result) =
  let open Tr_stats.Json in
  let s = r.slo in
  obj
    [
      ("kind", json_string "loadgen");
      ("seed", string_of_int r.seed);
      ("sent", string_of_int r.sent);
      ("grants", string_of_int r.grants);
      ("releaseds", string_of_int r.releaseds);
      ("committeds", string_of_int r.committeds);
      ("rejects", string_of_int r.rejects);
      ("decode_errors", string_of_int r.decode_errors);
      ("resync_skips", string_of_int r.resync_skips);
      ("conn_failures", string_of_int r.conn_failures);
      ("outstanding", string_of_int r.outstanding);
      ("latency_samples", string_of_int s.Slo.samples);
      ("mean_s", json_float s.Slo.mean);
      ("p50_s", json_float s.Slo.p50);
      ("p99_s", json_float s.Slo.p99);
      ("p999_s", json_float s.Slo.p999);
      ( "phases",
        arr
          (List.map
               (fun ((p : phase), (ps : Slo.snapshot)) ->
                 obj
                   [
                     ( "workload",
                       json_string
                         (match p.workload with
                         | Closed { think_s } ->
                             Printf.sprintf "closed think=%g" think_s
                         | Open { rate } -> Printf.sprintf "open rate=%g" rate)
                     );
                     ("duration_s", json_float p.duration_s);
                     ("started", string_of_int ps.Slo.started);
                     ("samples", string_of_int ps.Slo.samples);
                     ("grants", string_of_int ps.Slo.grants);
                     ("commits", string_of_int ps.Slo.commits);
                     ("rejects", string_of_int ps.Slo.rejects);
                     ("mean_s", json_float ps.Slo.mean);
                     ("p50_s", json_float ps.Slo.p50);
                     ("p99_s", json_float ps.Slo.p99);
                     ("p999_s", json_float ps.Slo.p999);
                   ])
             r.phase_slos) );
    ]
