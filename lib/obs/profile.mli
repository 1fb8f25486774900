(** Cost-attribution profiler for the chase engine.

    Where {!Metrics} answers "how much, in total" and {!Trace} answers
    "when, in what order", the profiler answers "which rule, which body
    atom, which query" — the attribution needed to pick join orders and
    name hot rules.  It is always compiled in and off by default: a
    profiler is installed process-globally ([install]) exactly like a
    {!Trace} tracer, instrumented code pays a single ref read when none
    is installed, and the hot chase loop works against pre-resolved
    per-rule handles so the profiled path stays within the overhead
    budget (≤1.05x on an unprofiled assessment).

    Everything is keyed on stable identifiers: rule name (the TGD name
    from the program text), body-atom source position within the rule
    (index 0 is the first written atom, regardless of the join order
    the evaluator actually picked), query name, chase round number and
    phase name.  Collected state is read out as an immutable
    {!snapshot} whose {!merge} is associative and commutative, so
    snapshots from different runs or processes combine like {!Metrics}
    snapshots do. *)

type t
(** A mutable collector. *)

type rule
(** Pre-resolved per-rule accumulator handle; incrementing through a
    handle is a field write, not a table lookup. *)

(** {1 Aggregated statistics} *)

type rule_stat = {
  fires : int;  (** firings that derived at least one new fact *)
  triggers : int;  (** deduplicated triggers checked *)
  matches : int;  (** body matches enumerated (before trigger dedup) *)
  rule_seconds : float;
      (** wall time attributed to the rule: trigger enumeration,
          applicability checks and head instantiation *)
}

type atom_stat = {
  scanned : int;
      (** candidate tuples walked at this atom: the exact index bucket
          of its bound positions, the delta set, or the whole relation
          (a membership test walks at most one) *)
  matched : int;  (** substitutions surviving unification here *)
}

type round_stat = {
  round_count : int;  (** runs contributing to this round number *)
  round_seconds : float;
  minor_collections : int;  (** GC minor collections during the round *)
  major_collections : int;  (** GC major collections during the round *)
  heap_words : int;  (** max heap size observed at a round boundary *)
}

type query_stat = {
  evals : int;
  query_seconds : float;
}

type phase_stat = {
  calls : int;
  phase_seconds : float;
}

type snapshot = {
  rules : (string * rule_stat) list;  (** sorted by rule name *)
  atoms : ((string * int * string) * atom_stat) list;
      (** keyed [(rule_or_query, atom_index, predicate)], sorted *)
  rounds : (int * round_stat) list;  (** keyed by round number, sorted *)
  queries : (string * query_stat) list;  (** sorted by query name *)
  phases : (string * phase_stat) list;  (** sorted by phase name *)
  plans : (string * string list) list;
      (** per rule or query name, the distinct join plans it ran under
          (sorted); each plan lists the body atoms in join order with
          their access paths, e.g.
          [\[0\] r delta > \[1\] s index{0} > \[2\] t member].  Per
          run only: the statistics sidecar does not keep them. *)
}

(** {1 Collector lifecycle} *)

val create : ?clock:(unit -> float) -> unit -> t
(** [clock] defaults to a monotonic wall clock (non-decreasing wrapper
    over [Unix.gettimeofday]); inject a fake for deterministic tests. *)

val install : t -> unit
val uninstall : unit -> unit
val installed : unit -> t option

val active : unit -> bool
(** [active () = (installed () <> None)] — cheap hot-path check. *)

val clear : t -> unit
(** Drop all accumulated statistics (the clock is kept). *)

(** {1 Collection hooks}

    The [with_]* wrappers act on the installed profiler and reduce to a
    plain call when none is installed; the handle-based increments are
    for the chase hot loop, which resolves handles once per rule. *)

val now : t -> float
(** Read the collector's clock. *)

val rule : t -> string -> rule
(** Resolve (creating on first use) the accumulator for a rule name. *)

val add_trigger : rule -> unit
val add_fire : rule -> unit
val add_matches : rule -> int -> unit
val add_rule_seconds : rule -> float -> unit

val with_scope : t -> string -> (unit -> 'a) -> 'a
(** Run [f] with atom-level statistics attributed to the given rule or
    query name; the previous scope is restored even on exceptions. *)

val scoped : unit -> t option
(** The installed profiler, but only while some [with_scope] (or
    [with_query]) is dynamically active — evaluation outside any
    attribution scope (EGD checks, applicability probes) reports
    nothing. *)

val atom_visit : t -> idx:int -> pred:string -> scanned:int -> matched:int -> unit
(** Credit one visit of body atom [idx] ([pred]) under the current
    scope; no-op when no scope is active. *)

val plan : t -> string -> unit
(** Record the plan description of one body evaluation under the
    current scope; no-op when no scope is active. *)

val with_round : int -> (unit -> 'a) -> 'a
(** Time a chase round and sample [Gc.quick_stat] deltas at its
    boundaries, keyed by round number. *)

val with_query : string -> (unit -> 'a) -> 'a
(** Time one evaluation of a named query; also opens an attribution
    scope with the query's name, so its body atoms land in [atoms]. *)

val with_phase : string -> (unit -> 'a) -> 'a
(** Time a coarse engine phase ("chase", "assess", ...). *)

(** {1 Snapshots} *)

val snapshot : t -> snapshot
(** Immutable copy of the current statistics, all lists sorted. *)

val merge : snapshot -> snapshot -> snapshot
(** Pointwise combination: counters and seconds add, [heap_words]
    takes the max, plan sets unite.  Associative and commutative, so
    snapshots can be folded in any order. *)

val empty : snapshot

val find_rule : snapshot -> string -> rule_stat option
val find_atom : snapshot -> string * int * string -> atom_stat option
val find_query : snapshot -> string -> query_stat option
val find_phase : snapshot -> string -> phase_stat option
val find_plans : snapshot -> string -> string list
(** [\[\]] when the name ran no plan. *)

val selectivity : atom_stat -> float
(** [matched / scanned] ([0.] when nothing was scanned). *)

val total_rule_seconds : snapshot -> float
val total_query_seconds : snapshot -> float

val to_json : snapshot -> Json.t
(** Self-contained JSON object with ["rules"], ["atoms"] (each row
    carrying a derived ["selectivity"]), ["rounds"], ["queries"],
    ["phases"] and ["plans"] arrays, each sorted by key.  Printed with
    {!Json.to_string}, seconds and selectivities parse back to the same
    floats. *)
