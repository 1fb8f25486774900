(** The one JSON string escaper shared by every emitter (trace, logger,
    metrics, profile, diagnostics, fsck reports and the serve codec).

    Double quote and backslash are backslash-escaped; newline, carriage
    return and tab become their two-character escapes; every other byte
    below 0x20 becomes a four-hex-digit unicode escape; all other bytes,
    UTF-8 included, are copied unchanged. *)

val add_escaped : Buffer.t -> string -> unit
(** Appends the escaped string, without surrounding quotes. *)

val escape : string -> string
(** The escaped string, without surrounding quotes. *)
