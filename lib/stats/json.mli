(** The one JSON writer every export uses: sim outcomes, live reports,
    service and chaos summaries. Hand-rolled, no external dependency;
    values are rendered to strings and composed, so an object is built
    from [(key, already-rendered-value)] pairs. *)

val escape_string : string -> string
(** JSON string-body escaping per RFC 8259, without the quotes. *)

val json_string : string -> string
(** Quoted and escaped JSON string literal. *)

val json_float : float -> string
(** [%.9g], or [null] for NaN and infinities. *)

val obj : (string * string) list -> string
(** One-line JSON object from [(key, already-rendered-value)] pairs. *)

val arr : string list -> string
(** One-line JSON array of already-rendered values. *)

val summary_json : Summary.t -> string
(** Count, mean, stddev, min and max. *)

val quantiles_json : Quantile.t -> string
(** p50, p90 and p99. *)
