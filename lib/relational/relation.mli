(** Relations: mutable sets of tuples under a schema, with composite
    hash indexes and per-position distinct-count sketches.

    A relation enforces the arity of its schema on insertion.  An index
    is keyed by an exact set of positions (position set → values at
    those positions → tuples); it is built on the first probe of that
    position set and maintained on every insertion, so a probe returns
    exactly the matching tuples with no filtering afterwards.  Each
    position also keeps a small HyperLogLog sketch of its distinct
    values, updated in O(1) on insertion, which lets a join planner
    estimate fan-out without scanning the relation or building an
    index. *)

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

type index
(** A composite index over one set of positions. *)

val index : t -> int array -> index
(** [index r positions] is the index keyed by exactly [positions]
    (distinct positions; [\[|1; 0|\]] and [\[|0; 1|\]] are two indexes,
    so callers list them ascending), built from the current tuples on
    first use and maintained by {!add} afterwards.  A handle stays
    valid until {!remove} or {!map_values}, which drop every index. *)

val probe : index -> Value.t array -> Tuple.t list
(** [probe ix key] is the bucket of tuples whose values at the index's
    positions equal [key] (compared with {!Value.equal}), most recently
    inserted first.  [key] is only read, so a caller may reuse it. *)

val scan : t -> (int * Value.t) list -> Tuple.t list
(** [scan r binding] returns exactly the tuples agreeing with all
    [(pos, v)] pairs of [binding] (each position at most once): the
    bucket of the composite index on the binding's positions, in the
    binding's order.  [scan r \[\]] lists all tuples. *)

val distinct : t -> int -> int
(** [distinct r pos] estimates the number of distinct values at [pos]
    from the sketch (64 registers, typically within 15%), clamped to
    [\[1, cardinal r\]] ([0] when empty).  O(registers), never scans:
    the fan-out statistic of join planning.  {!remove} leaves the
    sketch as is, so after removals it may only overestimate.
    @raise Invalid_argument if [pos] is out of range. *)

val map_values : t -> (Value.t -> Value.t) -> unit
(** Rewrite every value in place through the function (drops the
    indexes, rebuilds the sketch); used by EGD enforcement to merge
    labeled nulls. *)

val filter : (Tuple.t -> bool) -> t -> t
(** New relation (same schema) with the matching tuples. *)

val copy : t -> t
(** Shares the (immutable) tuple set, copies the sketch, starts with no
    indexes. *)

val equal : t -> t -> bool
(** Same schema and same tuple set. *)

val pp : Format.formatter -> t -> unit
