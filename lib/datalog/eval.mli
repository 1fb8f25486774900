(** Evaluation of conjunctive atom lists over an instance.

    This is the workhorse shared by conjunctive-query answering, TGD
    trigger enumeration, and EGD / negative-constraint checking: find
    all substitutions θ such that every atom of the body, instantiated
    by θ, is a fact of the instance, and every comparison holds.

    Each call plans its body once, then runs the plan as a compiled
    backtracking join:
    - {b Join order.}  The order minimising the sum of the estimated
      intermediate result sizes: subset dynamic programming for bodies
      of up to 10 atoms, greedy (smallest fan-out next) beyond.  The
      estimate reads each atom's cardinality (the delta size for a
      semi-naive delta atom) and the per-position distinct counts of
      {!Mdqa_relational.Relation.distinct}; planning never scans a
      relation or builds an index.
    - {b Access paths.}  An atom becomes a membership test when every
      position is bound by then, the exact bucket of the composite
      index on its bound positions ({!Mdqa_relational.Relation.index},
      built on first probe), a walk of its delta set, or a full scan.
      A comparison [X = c] (either side) keys the first atom mentioning
      [X] by [c], so the constant drives the index; [X] is still bound
      from the matched tuple, so an answer carries the stored value
      (e.g. [0.0] for a query [X = -0.0], which
      {!Mdqa_relational.Value.equal} identifies with it).
    - {b Compilation.}  Variables become slots of one array; candidate
      tuples are matched position by position, and a {!Subst.t} is
      built only for an emitted match.
    A comparison is checked as soon as both its sides are bound.  A
    comparison over a variable that no atom binds is never decided, so
    the body has no answers.

    Under an attribution scope ({!Mdqa_obs.Profile.with_scope}), each
    call records its plan ({!Mdqa_obs.Profile.plan}) and, per atom,
    the candidates walked and the substitutions surviving.

    Every entry point takes an optional {!Guard.t}: each emitted match
    consumes one row of the guard's row budget and every candidate
    tuple ticks the deadline / memory / cancellation check, so a join
    explosion surfaces as {!Guard.Exhausted} (or a [Degraded] outcome
    from {!answers_guarded}) instead of unbounded time or memory. *)

val answers :
  ?guard:Guard.t ->
  ?cmps:Atom.Cmp.t list ->
  Mdqa_relational.Instance.t ->
  Atom.t list ->
  Subst.t list
(** All matching substitutions (deterministic for a given instance,
    no duplicates modulo the body's variables).  Comparisons are
    applied as soon as both sides are ground.  Atoms over predicates
    absent from the instance yield no answers.
    @raise Guard.Exhausted when the guard trips — used by engines that
    thread one guard through a whole pipeline and catch the trip at
    their own entry point.  Use {!answers_guarded} for the structured
    form. *)

val answers_guarded :
  ?guard:Guard.t ->
  ?cmps:Atom.Cmp.t list ->
  Mdqa_relational.Instance.t ->
  Atom.t list ->
  Subst.t list Guard.outcome
(** Like {!answers}, but a guard trip is absorbed: [Degraded] carries
    the matches found before the budget ran out, together with the
    exhaustion report.  Never raises {!Guard.Exhausted}. *)

val exists :
  ?guard:Guard.t ->
  ?cmps:Atom.Cmp.t list ->
  Mdqa_relational.Instance.t ->
  Atom.t list ->
  bool
(** Is there at least one match? (short-circuiting)
    @raise Guard.Exhausted when the guard trips. *)

val first :
  ?guard:Guard.t ->
  ?cmps:Atom.Cmp.t list ->
  Mdqa_relational.Instance.t ->
  Atom.t list ->
  Subst.t option

val holds_fact : Mdqa_relational.Instance.t -> Atom.t -> bool
(** Ground-atom membership. @raise Invalid_argument on non-ground. *)

val delta_answers :
  ?guard:Guard.t ->
  ?cmps:Atom.Cmp.t list ->
  Mdqa_relational.Instance.t ->
  delta:(string -> Mdqa_relational.Tuple.Set.t) ->
  Atom.t list ->
  Subst.t list
(** Like {!answers} but keeps only matches in which at least one body
    atom is instantiated to a fact of [delta pred] (facts of the
    instance) — the semi-naive restriction the chase uses to enumerate
    only triggers a rule has not yet seen.  Each match is produced
    once: for each atom [i] with a non-empty delta, atom [i] ranges
    over its delta, atoms before [i] over the relation minus their
    delta, atoms after [i] over the whole relation, and each of these
    partitions gets its own plan.  The delta atom walks its delta set
    unless the index bucket of its bound positions is estimated
    smaller, so small deltas cost time proportional to the delta.
    @raise Guard.Exhausted when the guard trips. *)
