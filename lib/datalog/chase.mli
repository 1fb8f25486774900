(** The Datalog± chase.

    Starting from an extensional instance, TGDs are fired to generate
    missing data (inventing labeled nulls for existential variables),
    EGDs are enforced by equating values (merging nulls, failing on a
    constant clash), and negative constraints are checked.

    Two variants are provided:

    - {e restricted} (standard) chase: a TGD fires on a body match only
      if no extension of the match already satisfies its head in the
      current instance;
    - {e oblivious} chase: every body match fires exactly once,
      regardless of head satisfaction (kept for the ablation benchmark:
      it invents many more nulls).

    Trigger enumeration is semi-naive by default: each TGD only
    considers matches involving a fact inserted (or seeded) since its
    last body enumeration, so a run without EGD merges enumerates each
    body match once.  The first round, naive mode and the round after
    an EGD merge enumerate in full.

    For weakly-sticky programs over a fixed dimensional structure the
    chase terminates; resource budgets (steps, nulls, wall-clock
    deadline, memory watermark, cancellation — see {!Guard}) are
    enforced regardless, so a non-terminating rule set or a hostile
    input surfaces as [Out_of_budget] with an exhaustion report and a
    well-formed partial instance, instead of a hang. *)

type variant = Restricted | Oblivious

type failure =
  | Egd_clash of {
      egd : Egd.t;
      left : Mdqa_relational.Value.t;
      right : Mdqa_relational.Value.t;
    }  (** an EGD tried to equate two distinct constants *)
  | Nc_violation of { nc : Nc.t; witness : Subst.t }
      (** a negative constraint has a match *)

type outcome =
  | Saturated  (** fixpoint reached, all constraints satisfied *)
  | Out_of_budget of Guard.exhaustion
      (** a guard resource ran out; the report says which and how much
          was consumed.  The result's instance is the well-formed
          partial chase at the point of the trip. *)
  | Failed of failure

type stats = {
  rounds : int;
  tgd_fires : int;  (** number of TGD applications that added facts *)
  triggers_checked : int;
  nulls_created : int;
  egd_merges : int;
}

type derivation = {
  rule : string;  (** name of the TGD that produced the fact *)
  premises : (string * Mdqa_relational.Tuple.t) list;
      (** the instantiated body facts of the firing *)
}

type result = {
  instance : Mdqa_relational.Instance.t;
      (** the chased instance (meaningful even on failure: the state at
          the point of failure) *)
  outcome : outcome;
  stats : stats;
  provenance : ((string * Mdqa_relational.Tuple.t), derivation) Hashtbl.t option;
      (** when requested: for every fact {e derived} by a TGD firing,
          its first derivation.  Facts absent from the table are
          extensional.  EGD merges remap recorded facts consistently. *)
  null_base : int;
      (** the null mark: every null label this run saw or invented,
          including those an EGD merged away, lies below it.  It is the
          number a checkpoint store persists as its [null_base], and
          where {!extend} starts inventing. *)
}

type checkpoint = {
  on_start : Mdqa_relational.Instance.t -> unit;
      (** called once, before the first round, with the fully
          initialized working instance (program facts merged, all
          predicates declared): the durable base image *)
  on_fact : string -> Mdqa_relational.Tuple.t -> unit;
      (** a fact was added ({e after} the instance mutation) *)
  on_merge :
    from_:Mdqa_relational.Value.t -> into:Mdqa_relational.Value.t -> unit;
      (** an EGD merge rewrote every [from_] to [into] *)
  on_round :
    instance:Mdqa_relational.Instance.t ->
    frontier:(string * Mdqa_relational.Tuple.t list) list option ->
    stats ->
    unit;
      (** a round completed; [frontier] is the facts derived during it
          (a superset of what any rule has yet to see), [None] when an
          EGD merge invalidated it *)
  on_done : instance:Mdqa_relational.Instance.t -> outcome -> stats -> unit;
      (** the run ended (saturated, degraded or failed).  Implementors
          must not raise: exceptions here would mask the outcome. *)
}
(** Durability hooks, called synchronously in mutation order so that a
    listener (the [Mdqa_store] write-ahead journal) always holds a
    prefix of the chase's own mutation sequence.  [on_fact]/[on_merge]
    may raise {!Guard.Exhausted} (e.g. a checkpoint byte budget): the
    run then degrades to [Out_of_budget] like any other trip. *)

val run :
  ?variant:variant ->
  ?semi_naive:bool ->
  ?provenance:bool ->
  ?guard:Guard.t ->
  ?max_steps:int ->
  ?max_nulls:int ->
  ?checkpoint:checkpoint ->
  ?metrics:Mdqa_obs.Metrics.t ->
  Program.t ->
  Mdqa_relational.Instance.t ->
  result
(** [run program instance] chases a {e copy} of [instance] (merged with
    the program's bundled facts); the input is never mutated.
    Defaults: [Restricted], semi-naive on, no provenance.

    Resource governance: when [guard] is given it is consumed for every
    trigger (a step), invented null, and join row, and its deadline /
    memory / cancellation checks run cooperatively — [max_steps] and
    [max_nulls] are then ignored.  Without a guard one is created from
    [max_steps] (default 1_000_000) and [max_nulls] (default 100_000).
    A guard trip never raises out of [run]: it returns the partial
    instance with [Out_of_budget].

    Observability: all chase accounting (rounds, triggers, fires per
    rule, nulls, EGD merges, derived facts) is recorded in [metrics]
    when given — [stats] is derived from the same registry against a
    per-run baseline, so a long-lived shared registry (e.g. the
    server's) accumulates across runs while each result still reports
    its own run.  When a {!Mdqa_obs.Trace} tracer is installed,
    [chase.round], [rule.fire] and [egd.merge] spans are emitted: one
    [rule.fire] per rule per round whose trigger loop ran at least one
    trigger, with [rule] and [fires] attributes. *)

val resume :
  ?variant:variant ->
  ?semi_naive:bool ->
  ?guard:Guard.t ->
  ?max_steps:int ->
  ?max_nulls:int ->
  ?checkpoint:checkpoint ->
  ?frontier:(string * Mdqa_relational.Tuple.t) list ->
  ?null_base:int ->
  ?prior_stats:stats ->
  ?metrics:Mdqa_obs.Metrics.t ->
  Program.t ->
  Mdqa_relational.Instance.t ->
  result
(** Continue an interrupted chase from a recovered image (see
    [Mdqa_store.Store]): chases a copy of [image] to the same fixpoint
    an uninterrupted run reaches — same facts up to the labels of nulls
    invented after the interruption, same outcome.

    [frontier] (if non-empty) is seeded like new facts, so the first
    round only considers triggers involving facts added since the last
    completed round began; without it the first round evaluates every
    rule body in full — always sound, just slower.  [null_base]
    lower-bounds fresh null labels so resumed runs never re-issue a
    label the prior run used (even one merged away by an EGD);
    [prior_stats] are folded into the reported statistics.  Provenance
    does not survive a resume (it is not persisted). *)

val extend :
  ?guard:Guard.t ->
  ?max_steps:int ->
  ?max_nulls:int ->
  ?metrics:Mdqa_obs.Metrics.t ->
  Program.t ->
  result ->
  facts:(string * Mdqa_relational.Tuple.t) list ->
  result
(** Incremental chase: add [facts] to an already-saturated chase result
    and continue semi-naive rounds with those facts seeded as every
    rule's first delta, as {!resume} seeds its frontier.  The given
    result's instance is not mutated; its provenance table (if any) is
    carried over and extended.
    Precondition: [result] was produced by {!run} on the same program
    and is [Saturated] (otherwise the outcome of a full {!run} is
    returned instead).

    Cost: the rounds enumerate only matches that involve a new fact, and
    the instance copy is O(relations): each relation shares the prior's
    indexes ({!Mdqa_relational.Relation.copy}), so probing them
    rebuilds nothing.  Fresh nulls start at the larger of the prior
    result's [null_base] and one past the largest null among [facts],
    so no scan of the prior instance is needed.  Still proportional to
    the instance: the provenance table is copied when there is one,
    and every EGD and negative constraint is re-checked in full after
    the new facts are added. *)

val pp_outcome : Format.formatter -> outcome -> unit
