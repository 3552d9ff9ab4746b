module Metrics = Tr_sim.Metrics
open Tr_stats.Json

let outcome_to_json (o : Runner.outcome) =
  let m = o.metrics in
  obj
    [
      ("protocol", json_string o.protocol_name);
      ("n", string_of_int o.n);
      ("seed", string_of_int o.seed);
      ("duration", json_float o.duration);
      ("events", string_of_int o.events);
      ("serves", string_of_int (Metrics.serves m));
      ("pending", string_of_int (Metrics.total_pending m));
      ("responsiveness", summary_json (Metrics.responsiveness m));
      ("responsiveness_quantiles", quantiles_json (Metrics.responsiveness_quantiles m));
      ("waiting", summary_json (Metrics.waiting m));
      ("waiting_quantiles", quantiles_json (Metrics.waiting_quantiles m));
      ("token_messages", string_of_int (Metrics.token_messages m));
      ("control_messages", string_of_int (Metrics.control_messages m));
      ("cheap_channel_messages", string_of_int (Metrics.cheap_messages m));
      ("search_forwards", string_of_int (Metrics.search_forwards m));
      ("total_possessions", string_of_int (Metrics.total_possessions m));
      ("possession_imbalance", json_float (Metrics.possession_imbalance m));
      ("waiting_fairness", json_float (Metrics.waiting_fairness m));
    ]
  ^ "\n"

let series_json s =
  arr
    (List.map
       (fun (x, y) -> arr [ json_float x; json_float y ])
       (Tr_stats.Series.points s))

let result_to_json (r : Experiments.result) =
  (* Notes whose value parses as a number are exported as JSON numbers
     (throughput, RSS), the rest as strings. *)
  let meta =
    match r.notes with
    | [] -> []
    | notes ->
        [
          ( "meta",
            obj
              (List.map
                 (fun (k, v) ->
                   ( k,
                     match float_of_string_opt v with
                     | Some _ -> v
                     | None -> json_string v ))
                 notes) );
        ]
  in
  obj
    ([
       ("id", json_string r.id);
       ("title", json_string r.title);
       ("expectation", json_string r.expectation);
     ]
    @ meta
    @ [
        ( "series",
          obj
            (List.map
               (fun s -> (Tr_stats.Series.name s, series_json s))
               r.series) );
      ])
  ^ "\n"
