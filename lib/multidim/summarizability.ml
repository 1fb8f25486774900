module Value = Mdqa_relational.Value

type violation =
  | Non_strict of {
      member : Value.t;
      category : string;
      ancestor_category : string;
      ancestors : Value.t list;
    }
  | Non_covering of {
      member : Value.t;
      category : string;
      parent_category : string;
    }

type report = {
  strict : bool;
  homogeneous : bool;
  violations : violation list;
}

let diagnose inst =
  let schema = Dim_instance.schema inst in
  let violations = ref [] in
  List.iter
    (fun cat ->
      if cat <> Dim_schema.all then
        let ancestors = Dim_schema.ancestors schema cat
        and parents = Dim_schema.parents schema cat in
        List.iter
          (fun m ->
            List.iter
              (fun anc ->
                let ups = Dim_instance.rolled_up inst m ~to_category:anc in
                if List.length ups > 1 then
                  violations :=
                    Non_strict
                      { member = m;
                        category = cat;
                        ancestor_category = anc;
                        ancestors = ups }
                    :: !violations)
              ancestors;
            List.iter
              (fun pcat ->
                if not (Dim_instance.has_parent_in inst m ~category:pcat) then
                  violations :=
                    Non_covering
                      { member = m; category = cat; parent_category = pcat }
                    :: !violations)
              parents)
          (Dim_instance.members inst cat))
    (Dim_schema.categories schema);
  let violations = List.rev !violations in
  { strict =
      not (List.exists (function Non_strict _ -> true | _ -> false) violations);
    homogeneous =
      not
        (List.exists (function Non_covering _ -> true | _ -> false) violations);
    violations }

let summarizable inst ~from_category ~to_category =
  let schema = Dim_instance.schema inst in
  Dim_schema.is_ancestor schema ~ancestor:to_category from_category
  && List.for_all
       (fun m ->
         List.length (Dim_instance.rolled_up inst m ~to_category) = 1)
       (Dim_instance.members inst from_category)

let pp_violation ppf = function
  | Non_strict { member; category; ancestor_category; ancestors } ->
    Format.fprintf ppf "non-strict: %a (%s) rolls up to {%s} in %s"
      Value.pp member category
      (String.concat ", " (List.map Value.to_string ancestors))
      ancestor_category
  | Non_covering { member; category; parent_category } ->
    Format.fprintf ppf "non-covering: %a (%s) has no parent in %s" Value.pp
      member category parent_category

let pp_report ppf r =
  Format.fprintf ppf "@[<v>strict: %b, homogeneous: %b" r.strict r.homogeneous;
  List.iter (fun v -> Format.fprintf ppf "@,  %a" pp_violation v) r.violations;
  Format.fprintf ppf "@]"
