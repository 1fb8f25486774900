(** Evaluation of conjunctive atom lists over an instance.

    This is the workhorse shared by conjunctive-query answering, TGD
    trigger enumeration, and EGD / negative-constraint checking: find
    all substitutions θ such that every atom of the body, instantiated
    by θ, is a fact of the instance, and every comparison holds.

    Evaluation performs an index-backed backtracking join: atoms are
    matched left to right, each candidate set retrieved through
    {!Mdqa_relational.Relation.scan} with the positions already bound.
    Atoms are reordered greedily at each step to bind the most
    selective atom first.

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
(** All matching substitutions (deterministic order, no duplicates
    modulo the body's variables).  Comparisons are applied as soon as
    both sides are ground.  Atoms over predicates absent from the
    instance yield no answers.
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
    once.  A delta-constrained atom is evaluated over its delta set when
    that is smaller than the index bucket, so small deltas cost time
    proportional to the delta.
    @raise Guard.Exhausted when the guard trips. *)
