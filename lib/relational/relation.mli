(** Relations: mutable sets of tuples under a schema, with per-position
    hash indexes.

    A relation enforces the arity of its schema on insertion and
    maintains secondary indexes (position → value → tuples) so that
    scans with partial bindings — the workhorse of conjunctive-query
    evaluation and of the chase — avoid full scans. *)

type t

val create : Rel_schema.t -> t
(** Fresh empty relation. *)

val of_tuples : Rel_schema.t -> Tuple.t list -> t

val schema : t -> Rel_schema.t
val name : t -> string
val arity : t -> int
val cardinal : t -> int
val is_empty : t -> bool

val add : t -> Tuple.t -> bool
(** [add r t] inserts [t]; returns [true] iff [t] was not present.
    @raise Invalid_argument on arity mismatch. *)

val mem : t -> Tuple.t -> bool
val remove : t -> Tuple.t -> bool
(** Returns [true] iff the tuple was present. *)

val iter : (Tuple.t -> unit) -> t -> unit
val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> Tuple.t list
(** Tuples in ascending order (deterministic). *)

val to_set : t -> Tuple.Set.t

val scan : t -> (int * Value.t) list -> Tuple.t list
(** [scan r binding] returns the tuples agreeing with all [(pos, v)]
    pairs of [binding], using the most selective available index.
    [scan r \[\]] lists all tuples. *)

val scan_estimate : t -> (int * Value.t) list -> int
(** Upper bound on [List.length (scan r binding)]: the size of the
    smallest index bucket among the bound positions — the bucket
    {!scan} walks — or [cardinal] when the binding is empty.  The
    selectivity estimate driving join ordering. *)

val map_values : t -> (Value.t -> Value.t) -> unit
(** Rewrite every value in place through the function (rebuilds
    indexes); used by EGD enforcement to merge labeled nulls. *)

val filter : (Tuple.t -> bool) -> t -> t
(** New relation (same schema) with the matching tuples. *)

val copy : t -> t

val equal : t -> t -> bool
(** Same schema and same tuple set. *)

val pp : Format.formatter -> t -> unit
