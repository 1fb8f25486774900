(** The one JSON value type, with its total parser and its printer.

    Every JSON document the system emits is built as a {!t} and printed
    by {!to_string}: diagnostics, fsck reports, traces, log records,
    metrics and profile snapshots, bench rows and the line-delimited
    replies of [mdqa serve] (the whole wire codec: no external
    dependency, total parsing — malformed input is an [Error], never an
    exception — and printing that never emits a newline, so one value
    always stays one frame). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val int : int -> t
(** [Num] of the integer; it prints without a fraction. *)

val parse : string -> (t, string) result
(** Parse one JSON value.  Trailing non-whitespace, unterminated
    strings, bad escapes, deep nesting (beyond 512 levels) and every
    other malformation come back as [Error msg]. *)

val to_string : t -> string
(** Compact one-line rendering.  Numbers that are integers below 10{^15}
    print without a fraction, other finite numbers as [%.17g] (so they
    parse back to the same float), NaN and infinities as [null].
    Strings escape double quote and backslash, newline, carriage return
    and tab as two-character escapes, every other byte below 0x20 as a
    four-hex-digit unicode escape, and copy all other bytes (UTF-8
    included) unchanged. *)

(** {1 Accessors} — total, [None] on shape mismatch. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] otherwise. *)

val to_str : t -> string option
val to_num : t -> float option
val to_bool : t -> bool option
val to_list : t -> t list option

val str_field : string -> t -> string option
val num_field : string -> t -> float option
