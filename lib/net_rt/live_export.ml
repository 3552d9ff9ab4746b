module Metrics = Tr_sim.Metrics
open Tr_stats.Json

let git_describe () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception _ -> "unknown"
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ | (exception _) -> "unknown")

let json_of_report (r : Cluster.report) =
  let m = r.metrics in
  obj
    [
      ("kind", json_string "live_run");
      ("protocol", json_string r.protocol);
      ("n", string_of_int r.n);
      ("seed", string_of_int r.seed);
      ("backend", json_string r.backend);
      ("readiness", json_string r.readiness);
      ("git", json_string (git_describe ()));
      ("generated_at", json_float (Unix.gettimeofday ()));
      ("unit_s", json_float r.unit_s);
      ("shards", string_of_int r.shards);
      ("wall_s", json_float r.wall_s);
      ("duration_units", json_float r.duration_units);
      ("grants", string_of_int r.grants);
      ("frames_sent", string_of_int r.frames_sent);
      ("bytes_sent", string_of_int r.bytes_sent);
      ("frames_received", string_of_int r.frames_received);
      ("decode_errors", string_of_int r.decode_errors);
      ("resync_skips", string_of_int r.resync_skips);
      ("reconnects", string_of_int r.reconnects);
      ("frames_dropped", string_of_int r.frames_dropped);
      ("out_hwm_bytes", string_of_int r.out_hwm_bytes);
      ("write_syscalls", string_of_int r.write_syscalls);
      ("read_syscalls", string_of_int r.read_syscalls);
      ("wait_calls", string_of_int r.wait_calls);
      ("fds_registered", string_of_int r.fds_registered);
      ("avg_ready_per_wait", json_float r.avg_ready_per_wait);
      ("syscalls_per_grant", json_float r.syscalls_per_grant);
      ("corrupt_frames_detected", string_of_int r.corrupt_frames_detected);
      ("chaos_spec", json_string r.chaos_spec);
      ( "chaos_injected",
        obj (List.map (fun (k, v) -> (k, string_of_int v)) r.chaos_injected) );
      ("chaos_total_injected", string_of_int r.chaos_total_injected);
      ("chaos_digest", string_of_int r.chaos_digest);
      ("pending", string_of_int (Metrics.total_pending m));
      ("responsiveness", summary_json (Metrics.responsiveness m));
      ( "responsiveness_quantiles",
        quantiles_json (Metrics.responsiveness_quantiles m) );
      ("waiting", summary_json (Metrics.waiting m));
      ("waiting_quantiles", quantiles_json (Metrics.waiting_quantiles m));
      ("token_messages", string_of_int (Metrics.token_messages m));
      ("control_messages", string_of_int (Metrics.control_messages m));
      ("search_forwards", string_of_int (Metrics.search_forwards m));
      ("total_possessions", string_of_int (Metrics.total_possessions m));
    ]
  ^ "\n"

let csv_of_table ~x_label ~cols rows =
  let b = Buffer.create 256 in
  Buffer.add_string b (String.concat "," (x_label :: cols));
  Buffer.add_char b '\n';
  List.iter
    (fun (x, ys) ->
      let cells =
        List.mapi
          (fun i _ ->
            match List.nth_opt ys i with
            | Some y -> json_float y
            | None -> "")
          cols
      in
      Buffer.add_string b (String.concat "," (json_float x :: cells));
      Buffer.add_char b '\n')
    rows;
  Buffer.contents b
