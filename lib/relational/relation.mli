(** Relations: mutable sets of tuples under a schema, with composite
    hash indexes and per-position distinct-count sketches.

    A relation enforces the arity of its schema on insertion.  An index
    is keyed by an exact set of positions (position set → values at
    those positions → tuples); it is built on the first probe of that
    position set and maintained on every insertion, so a probe returns
    exactly the matching tuples with no filtering afterwards.

    A {!copy} shares its original's indexes instead of rebuilding them.
    The views of one insertion history (an original and its copies)
    share one index set, owned by the view that inserted last: it keeps
    extending the indexes in O(1) per insertion.  A view that falls
    behind (another view of its history inserted since), or that runs
    {!remove} or {!map_values}, moves to a fresh index set of its own,
    rebuilt lazily on its next {!index} or {!probe}.  So a chain of
    copy-then-insert steps, like an extended chase, never rebuilds an
    index, and no view ever sees another view's tuples.  Each
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
(** Returns [true] iff the tuple was present.  A removal moves the
    relation to a fresh index set. *)

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
    first use and maintained by {!add} afterwards.  The index is shared
    with the copies that own the same history (see above); if [r] does
    not own its history's indexes, it first moves to a fresh set. *)

val probe : index -> Value.t array -> Tuple.t list
(** [probe ix key] is the bucket of tuples of the relation [ix] was
    taken from whose values at the index's positions equal [key]
    (compared with {!Value.equal}), most recently inserted first.
    A handle stays valid for the life of its relation: when the
    relation no longer owns the index it was resolved in (a copy
    inserted since, or the relation ran {!remove} or {!map_values}),
    the probe first re-resolves it through {!index}, so it never
    returns another view's tuples.  [key] is only read, so a caller
    may reuse it. *)

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
(** Rewrite every value in place through the function (moves to a
    fresh index set, rebuilds the sketch); used by EGD enforcement to
    merge labeled nulls. *)

val filter : (Tuple.t -> bool) -> t -> t
(** New relation (same schema) with the matching tuples. *)

val copy : t -> t
(** O(arity): shares the (immutable) tuple set and the index set,
    copies the sketch.  Either side may then insert, remove or rewrite
    without the other seeing it; the first to insert keeps the shared
    indexes, the other rebuilds its own on demand. *)

val equal : t -> t -> bool
(** Same schema and same tuple set. *)

val pp : Format.formatter -> t -> unit
