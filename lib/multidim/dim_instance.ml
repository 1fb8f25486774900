module Value = Mdqa_relational.Value
module Smap = Map.Make (String)
module Sset = Set.Make (String)

let all_member = Value.sym "all"

(* One member's row of the roll-up table. *)
type rollups = {
  parent_cats : Sset.t;  (* categories of the member's immediate parents *)
  ups : Sset.t Smap.t;  (* ancestor category -> members rolled up to *)
}

type t = {
  schema : Dim_schema.t;
  by_category : Sset.t Smap.t;  (* category -> member names *)
  category_of : string Smap.t;  (* member name -> category *)
  up : Sset.t Smap.t;  (* member -> parent members *)
  down : Sset.t Smap.t;  (* member -> child members *)
  rollups : (string, rollups) Hashtbl.t Lazy.t;  (* member -> its row *)
}

let find_set m k = Option.value ~default:Sset.empty (Smap.find_opt k m)

(* The roll-up table, bottom-up in one pass: a member's set in
   category c is the union of its parents' sets, plus the parents
   themselves that are in c.  Links follow the acyclic schema, so the
   memoised recursion is as deep as the hierarchy and visits each
   link once; a single-parent row shares its parent's map. *)
let rollup_table category_of up =
  let table = Hashtbl.create (Smap.cardinal category_of) in
  let rec row m =
    match Hashtbl.find_opt table m with
    | Some r -> r
    | None ->
      let r =
        Sset.fold
          (fun p acc ->
            let pc = Smap.find p category_of in
            let ups =
              Smap.union
                (fun _ a b -> Some (Sset.union a b))
                acc.ups (row p).ups
            in
            { parent_cats = Sset.add pc acc.parent_cats;
              ups = Smap.add pc (Sset.add p (find_set ups pc)) ups })
          (find_set up m)
          { parent_cats = Sset.empty; ups = Smap.empty }
      in
      Hashtbl.add table m r;
      r
  in
  Smap.iter (fun m _ -> ignore (row m)) category_of;
  table

let make schema ~members ~links =
  let dim = Dim_schema.name schema in
  (* Collect members and their categories. *)
  let by_category, category_of =
    List.fold_left
      (fun (bc, co) (cat, names) ->
        if not (Dim_schema.mem_category schema cat) then
          invalid_arg
            (Printf.sprintf "Dim_instance %s: unknown category %s" dim cat);
        List.fold_left
          (fun (bc, co) n ->
            (match Smap.find_opt n co with
             | Some other ->
               invalid_arg
                 (Printf.sprintf
                    "Dim_instance %s: member %s in both %s and %s" dim n other
                    cat)
             | None -> ());
            (Smap.add cat (Sset.add n (find_set bc cat)) bc, Smap.add n cat co))
          (bc, co) names)
      (Smap.empty, Smap.empty) members
  in
  let by_category =
    Smap.add Dim_schema.all (Sset.singleton "all") by_category
  in
  let category_of = Smap.add "all" Dim_schema.all category_of in
  (* Validate and record the links. *)
  let add_link (up, down) (child, parent) =
    let cc =
      match Smap.find_opt child category_of with
      | Some c -> c
      | None ->
        invalid_arg
          (Printf.sprintf "Dim_instance %s: unknown member %s" dim child)
    in
    let pc =
      match Smap.find_opt parent category_of with
      | Some c -> c
      | None ->
        invalid_arg
          (Printf.sprintf "Dim_instance %s: unknown member %s" dim parent)
    in
    if not (List.mem pc (Dim_schema.parents schema cc)) then
      invalid_arg
        (Printf.sprintf
           "Dim_instance %s: link %s -> %s does not follow a schema edge \
            (%s -> %s)"
           dim child parent cc pc);
    ( Smap.add child (Sset.add parent (find_set up child)) up,
      Smap.add parent (Sset.add child (find_set down parent)) down )
  in
  let up, down = List.fold_left add_link (Smap.empty, Smap.empty) links in
  (* Members of categories whose only parent is All link to [all]. *)
  let up, down =
    Smap.fold
      (fun member cat acc ->
        if
          cat <> Dim_schema.all
          && List.mem Dim_schema.all (Dim_schema.parents schema cat)
        then add_link acc (member, "all")
        else acc)
      category_of (up, down)
  in
  { schema; by_category; category_of; up; down;
    rollups = lazy (rollup_table category_of up) }

let schema t = t.schema

let members t cat =
  if not (Dim_schema.mem_category t.schema cat) then raise Not_found;
  List.map Value.sym (Sset.elements (find_set t.by_category cat))

let name_of v =
  match v with Value.Sym s -> Some s | _ -> None

let category_of t v =
  Option.bind (name_of v) (fun n -> Smap.find_opt n t.category_of)

let neighbors field t v =
  match name_of v with
  | None -> []
  | Some n -> List.map Value.sym (Sset.elements (find_set (field t) n))

let member_parents = neighbors (fun t -> t.up)
let member_children = neighbors (fun t -> t.down)

let transitive step t v ~to_category =
  let rec go frontier seen acc =
    match frontier with
    | [] -> acc
    | x :: rest ->
      if Sset.mem (Value.to_string x) seen then go rest seen acc
      else
        let seen = Sset.add (Value.to_string x) seen in
        let acc =
          match category_of t x with
          | Some c when String.equal c to_category -> x :: acc
          | _ -> acc
        in
        go (step t x @ rest) seen acc
  in
  List.sort_uniq Value.compare (go (step t v) Sset.empty [])

let rollup t v ~to_category = transitive member_parents t v ~to_category
let drilldown t v ~to_category = transitive member_children t v ~to_category

let row t v =
  match name_of v with
  | None -> None
  | Some n -> Hashtbl.find_opt (Lazy.force t.rollups) n

let rolled_up t v ~to_category =
  match row t v with
  | None -> []
  | Some r -> List.map Value.sym (Sset.elements (find_set r.ups to_category))

let has_parent_in t v ~category =
  match row t v with
  | None -> false
  | Some r -> Sset.mem category r.parent_cats

(* [f member row relatives] over every member but [all], in member
   order; [relatives] lists the member category's ancestors or parents,
   computed once per category. *)
let fold_rows relatives f t init =
  let rows = Lazy.force t.rollups in
  let per_cat = Smap.mapi (fun cat _ -> relatives t.schema cat) t.by_category in
  Smap.fold
    (fun member cat acc ->
      if String.equal cat Dim_schema.all then acc
      else f member (Hashtbl.find rows member) (Smap.find cat per_cat) acc)
    t.category_of init

(* Witnesses of non-strictness and non-homogeneity, for diagnostics:
   which member breaks the property, and how. *)
let strictness_violations t =
  fold_rows Dim_schema.ancestors
    (fun member r ancs acc ->
      List.fold_left
        (fun acc anc ->
          let ups = find_set r.ups anc in
          if Sset.cardinal ups > 1 then
            (member, anc, List.map Value.sym (Sset.elements ups)) :: acc
          else acc)
        acc ancs)
    t []
  |> List.rev

let homogeneity_violations t =
  fold_rows Dim_schema.parents
    (fun member r pcats acc ->
      List.fold_left
        (fun acc pcat ->
          if Sset.mem pcat r.parent_cats then acc else (member, pcat) :: acc)
        acc pcats)
    t []
  |> List.rev

let is_strict t = strictness_violations t = []
let is_homogeneous t = homogeneity_violations t = []

let size t = Smap.cardinal t.category_of - 1

let pp ppf t =
  Format.fprintf ppf "@[<v>instance of %a:" Dim_schema.pp t.schema;
  List.iter
    (fun cat ->
      if cat <> Dim_schema.all then
        Format.fprintf ppf "@,  %s = {%s}" cat
          (String.concat ", "
             (List.map Value.to_string (members t cat))))
    (Dim_schema.categories t.schema);
  Format.fprintf ppf "@]"
