(** Dimension instances: members for each category plus the child →
    parent member relation, paralleling the schema's category DAG.

    Members are {!Mdqa_relational.Value.t} symbols.  The top category
    [All] always has the single member [all].  Roll-up between
    arbitrary (not just adjacent) categories is the transitive closure
    of the member links.

    The HM summarizability conditions are exposed:
    - {e strictness}: every member rolls up to at most one member of
      each ancestor category;
    - {e homogeneity} (covering): every member of a category has at
      least one parent in each immediate parent category. *)

type t

val all_member : Mdqa_relational.Value.t
(** [Sym "all"], the unique member of category [All]. *)

val make :
  Dim_schema.t ->
  members:(string * string list) list ->
  links:(string * string) list ->
  t
(** [make schema ~members ~links]: [members] maps categories to member
    names; [links] are (child member, parent member) pairs between
    members of adjacent categories.  Members of maximal proper
    categories are linked to [all] automatically.
    @raise Invalid_argument on unknown categories, duplicate member
    names across categories of the same dimension, or links whose
    endpoints are not members of adjacent categories. *)

val schema : t -> Dim_schema.t

val members : t -> string -> Mdqa_relational.Value.t list
(** Members of a category (sorted). @raise Not_found on unknown. *)

val category_of : t -> Mdqa_relational.Value.t -> string option
(** The category a member belongs to. *)

val member_parents : t -> Mdqa_relational.Value.t -> Mdqa_relational.Value.t list
(** Immediate parents of a member (across all parent categories). *)

val member_children : t -> Mdqa_relational.Value.t -> Mdqa_relational.Value.t list

val rollup :
  t -> Mdqa_relational.Value.t -> to_category:string ->
  Mdqa_relational.Value.t list
(** Ancestors of the member within [to_category] (transitive).  Under
    strictness this is empty or a singleton. *)

val drilldown :
  t -> Mdqa_relational.Value.t -> to_category:string ->
  Mdqa_relational.Value.t list
(** Descendants of the member within [to_category]. *)

val rolled_up :
  t -> Mdqa_relational.Value.t -> to_category:string ->
  Mdqa_relational.Value.t list
(** The same answer as {!rollup}, read from the instance's roll-up
    table: every member's ancestors in every category, built once,
    bottom-up, on first use.  For checks over all members; {!rollup}
    walks one member's links and builds nothing. *)

val has_parent_in : t -> Mdqa_relational.Value.t -> category:string -> bool
(** Whether the member has an immediate parent in [category] (read from
    the roll-up table). *)

val is_strict : t -> bool
val is_homogeneous : t -> bool
(** Both read the roll-up table: linear in the members times the
    ancestor categories. *)

val strictness_violations :
  t -> (string * string * Mdqa_relational.Value.t list) list
(** Witnesses of non-strictness: [(member, ancestor category, the ≥ 2
    distinct members it rolls up to there)].  Empty iff {!is_strict}. *)

val homogeneity_violations : t -> (string * string) list
(** Witnesses of non-homogeneity (non-total roll-up): [(member, parent
    category in which it has no parent member)].  Empty iff
    {!is_homogeneous}. *)

val size : t -> int
(** Total number of members, excluding [all]. *)

val pp : Format.formatter -> t -> unit
