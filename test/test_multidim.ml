(* Tests for the multidimensional layer: dimension schemas/instances,
   summarizability, MD schemas, dimensional rule analysis, ontology
   compilation, data-level navigation. *)

open Mdqa_multidim
open Mdqa_datalog
module R = Mdqa_relational
module Hospital = Mdqa_hospital.Hospital

let v = Term.var
let c s = Term.Const (R.Value.sym s)
let sym = R.Value.sym

(* ------------------------------------------------------------------ *)
(* Dim_schema *)

let hosp = Hospital.hospital_dim
let time = Hospital.time_dim

let test_schema_levels () =
  Alcotest.(check int) "Ward level" 0 (Dim_schema.level hosp "Ward");
  Alcotest.(check int) "Unit level" 1 (Dim_schema.level hosp "Unit");
  Alcotest.(check int) "Institution level" 2 (Dim_schema.level hosp "Institution");
  Alcotest.(check int) "All level" 3 (Dim_schema.level hosp Dim_schema.all)

let test_schema_relatives () =
  Alcotest.(check (list string)) "parents of Ward" [ "Unit" ]
    (Dim_schema.parents hosp "Ward");
  Alcotest.(check (list string)) "children of Unit" [ "Ward" ]
    (Dim_schema.children hosp "Unit");
  Alcotest.(check (list string)) "ancestors of Ward"
    [ "All"; "Institution"; "Unit" ]
    (Dim_schema.ancestors hosp "Ward");
  Alcotest.(check bool) "Institution ancestor of Ward" true
    (Dim_schema.is_ancestor hosp ~ancestor:"Institution" "Ward");
  Alcotest.(check bool) "Ward not its own ancestor" false
    (Dim_schema.is_ancestor hosp ~ancestor:"Ward" "Ward");
  Alcotest.(check (list string)) "bottoms" [ "Ward" ] (Dim_schema.bottoms hosp)

let test_schema_paths () =
  Alcotest.(check (list (list string))) "single path"
    [ [ "Ward"; "Unit"; "Institution" ] ]
    (Dim_schema.paths hosp ~source:"Ward" ~target:"Institution")

let test_schema_dag () =
  (* A non-linear DAG: Day rolls up to both Week and Month *)
  let d =
    Dim_schema.make ~name:"T2"
      ~edges:[ ("Day", "Week"); ("Day", "Month"); ("Week", "Year"); ("Month", "Year") ]
  in
  Alcotest.(check (list string)) "two parents" [ "Month"; "Week" ]
    (Dim_schema.parents d "Day");
  Alcotest.(check int) "two paths"
    2
    (List.length (Dim_schema.paths d ~source:"Day" ~target:"Year"))

let test_schema_cycle_rejected () =
  Alcotest.(check bool) "cycle raises" true
    (match
       Dim_schema.make ~name:"bad" ~edges:[ ("A", "B"); ("B", "A") ]
     with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_schema_all_not_child () =
  Alcotest.(check bool) "All as child raises" true
    (match Dim_schema.make ~name:"bad" ~edges:[ ("All", "B") ] with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* ------------------------------------------------------------------ *)
(* Dim_instance *)

let hinst = Hospital.hospital_instance

let test_instance_members () =
  Alcotest.(check int) "4 wards" 4 (List.length (Dim_instance.members hinst "Ward"));
  Alcotest.(check (option string)) "W1 in Ward" (Some "Ward")
    (Dim_instance.category_of hinst (sym "W1"));
  Alcotest.(check (option string)) "all in All" (Some "All")
    (Dim_instance.category_of hinst Dim_instance.all_member)

let test_instance_rollup () =
  let up cat m = Dim_instance.rollup hinst (sym m) ~to_category:cat in
  Alcotest.(check (list string)) "W1 -> Standard" [ "Standard" ]
    (List.map R.Value.to_string (up "Unit" "W1"));
  Alcotest.(check (list string)) "W1 -> H1" [ "H1" ]
    (List.map R.Value.to_string (up "Institution" "W1"));
  Alcotest.(check (list string)) "W4 -> H2" [ "H2" ]
    (List.map R.Value.to_string (up "Institution" "W4"))

let test_instance_drilldown () =
  let down = Dim_instance.drilldown hinst (sym "Standard") ~to_category:"Ward" in
  Alcotest.(check (list string)) "Standard wards" [ "W1"; "W2" ]
    (List.map R.Value.to_string down);
  let down_h1 = Dim_instance.drilldown hinst (sym "H1") ~to_category:"Ward" in
  Alcotest.(check int) "H1 has three wards" 3 (List.length down_h1)

let test_instance_strict_homogeneous () =
  Alcotest.(check bool) "strict" true (Dim_instance.is_strict hinst);
  Alcotest.(check bool) "homogeneous" true (Dim_instance.is_homogeneous hinst);
  Alcotest.(check bool) "time strict" true
    (Dim_instance.is_strict Hospital.time_instance)

let test_instance_bad_links () =
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "unknown member" true
    (raises (fun () ->
         Dim_instance.make hosp
           ~members:[ ("Ward", [ "W1" ]) ]
           ~links:[ ("W1", "Nowhere") ]));
  Alcotest.(check bool) "non-adjacent link" true
    (raises (fun () ->
         Dim_instance.make hosp
           ~members:
             [ ("Ward", [ "W1" ]); ("Institution", [ "H1" ]) ]
           ~links:[ ("W1", "H1") ]));
  Alcotest.(check bool) "duplicate member across categories" true
    (raises (fun () ->
         Dim_instance.make hosp
           ~members:[ ("Ward", [ "X" ]); ("Unit", [ "X" ]) ]
           ~links:[]))

(* Non-strict instance: W5 in two units. *)
let non_strict =
  Dim_instance.make hosp
    ~members:
      [ ("Ward", [ "W5" ]); ("Unit", [ "U1"; "U2" ]); ("Institution", [ "H" ]) ]
    ~links:[ ("W5", "U1"); ("W5", "U2"); ("U1", "H"); ("U2", "H") ]

let test_summarizability_non_strict () =
  Alcotest.(check bool) "not strict" false (Dim_instance.is_strict non_strict);
  let report = Summarizability.diagnose non_strict in
  Alcotest.(check bool) "diagnosed" false report.Summarizability.strict;
  Alcotest.(check bool) "has violation" true
    (List.exists
       (function Summarizability.Non_strict _ -> true | _ -> false)
       report.Summarizability.violations);
  Alcotest.(check bool) "ward->unit not summarizable" false
    (Summarizability.summarizable non_strict ~from_category:"Ward"
       ~to_category:"Unit");
  Alcotest.(check bool) "hospital ward->unit summarizable" true
    (Summarizability.summarizable hinst ~from_category:"Ward"
       ~to_category:"Unit")

let test_summarizability_non_covering () =
  (* W6 has no unit at all *)
  let inst =
    Dim_instance.make hosp
      ~members:
        [ ("Ward", [ "W6" ]); ("Unit", [ "U1" ]); ("Institution", [ "H" ]) ]
      ~links:[ ("U1", "H") ]
  in
  Alcotest.(check bool) "not homogeneous" false (Dim_instance.is_homogeneous inst);
  let report = Summarizability.diagnose inst in
  Alcotest.(check bool) "non-covering found" true
    (List.exists
       (function Summarizability.Non_covering _ -> true | _ -> false)
       report.Summarizability.violations)

(* ------------------------------------------------------------------ *)
(* Md_schema *)

let schema = Hospital.md_schema

let test_md_schema_naming () =
  Alcotest.(check string) "category pred" "ward" (Md_schema.category_pred "Ward");
  Alcotest.(check string) "camel category" "month_day"
    (Md_schema.category_pred "MonthDay");
  Alcotest.(check string) "pc pred" "unit_ward"
    (Md_schema.parent_child_pred ~parent:"Unit" ~child:"Ward")

let test_md_schema_position_kinds () =
  let kind = Md_schema.position_kind schema in
  (match kind "patient_ward" 0 with
   | Some (Md_schema.Category_pos { dimension = "Hospital"; category = "Ward" }) -> ()
   | _ -> Alcotest.fail "patient_ward[0] should be Ward");
  (match kind "patient_ward" 2 with
   | Some Md_schema.Plain_pos -> ()
   | _ -> Alcotest.fail "patient_ward[2] should be plain");
  (match kind "unit_ward" 0 with
   | Some (Md_schema.Category_pos { category = "Unit"; _ }) -> ()
   | _ -> Alcotest.fail "unit_ward[0] should be Unit");
  (match kind "ward" 0 with
   | Some (Md_schema.Category_pos { category = "Ward"; _ }) -> ()
   | _ -> Alcotest.fail "ward[0] should be Ward");
  Alcotest.(check bool) "unknown pred" true (kind "nonsense" 0 = None)

let test_md_schema_categorical_positions () =
  let pos = Md_schema.categorical_positions schema in
  Alcotest.(check bool) "patient_ward[0]" true (List.mem ("patient_ward", 0) pos);
  Alcotest.(check bool) "patient_ward[1]" true (List.mem ("patient_ward", 1) pos);
  Alcotest.(check bool) "patient_ward[2] not" false
    (List.mem ("patient_ward", 2) pos);
  Alcotest.(check bool) "unit_ward both" true
    (List.mem ("unit_ward", 0) pos && List.mem ("unit_ward", 1) pos)

let test_md_schema_validation () =
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "unknown category" true
    (raises (fun () ->
         Md_schema.make ~dimensions:[ hosp ]
           ~relations:
             [ R.Rel_schema.make "r"
                 [ R.Attribute.categorical "x" ~dimension:"Hospital"
                     ~category:"Zone" ] ]));
  Alcotest.(check bool) "unknown dimension" true
    (raises (fun () ->
         Md_schema.make ~dimensions:[ hosp ]
           ~relations:
             [ R.Rel_schema.make "r"
                 [ R.Attribute.categorical "x" ~dimension:"Nope"
                     ~category:"Ward" ] ]));
  Alcotest.(check bool) "shared category name across dims" true
    (raises (fun () ->
         Md_schema.make
           ~dimensions:
             [ hosp; Dim_schema.linear ~name:"Other" [ "Ward"; "Zone" ] ]
           ~relations:[]))

(* ------------------------------------------------------------------ *)
(* Dim_rule *)

let test_rule7_analysis () =
  match Dim_rule.analyze schema Hospital.rule7 with
  | Ok info ->
    Alcotest.(check bool) "form 4" true (info.Dim_rule.form = Dim_rule.Form4);
    Alcotest.(check bool) "upward" true
      (info.Dim_rule.navigation = Dim_rule.Upward);
    Alcotest.(check (list string)) "Hospital dimension" [ "Hospital" ]
      info.Dim_rule.dimensions
  | Error e -> Alcotest.fail e

let test_rule8_analysis () =
  match Dim_rule.analyze schema Hospital.rule8 with
  | Ok info ->
    Alcotest.(check bool) "form 4" true (info.Dim_rule.form = Dim_rule.Form4);
    Alcotest.(check bool) "downward" true
      (info.Dim_rule.navigation = Dim_rule.Downward)
  | Error e -> Alcotest.fail e

let test_rule9_analysis () =
  match Dim_rule.analyze schema Hospital.rule9 with
  | Ok info ->
    Alcotest.(check bool) "form 10" true (info.Dim_rule.form = Dim_rule.Form10);
    Alcotest.(check bool) "downward" true
      (info.Dim_rule.navigation = Dim_rule.Downward)
  | Error e -> Alcotest.fail e

let test_rule_shared_plain_var_rejected () =
  (* patients joined on the non-categorical attribute: violates (4) *)
  let bad =
    Tgd.make ~name:"bad"
      ~body:
        [ Atom.make "patient_ward" [ v "W"; v "D"; v "P" ];
          Atom.make "patient_unit" [ v "U"; v "D2"; v "P" ] ]
      ~head:[ Atom.make "patient_unit" [ v "U"; v "D"; v "P" ] ]
      ()
  in
  (match Dim_rule.analyze schema bad with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected a form-(4) violation")

let test_rule_unknown_pred_rejected () =
  let bad =
    Tgd.make ~name:"bad2"
      ~body:[ Atom.make "mystery" [ v "X" ] ]
      ~head:[ Atom.make "patient_unit" [ v "U"; v "D"; v "X" ] ]
      ()
  in
  (match Dim_rule.analyze schema bad with
   | Error e ->
     Alcotest.(check bool) "mentions predicate" true
       (String.length e > 0)
   | Ok _ -> Alcotest.fail "expected unknown predicate error")

let test_rule10_level_violation () =
  (* generating data at a *higher* level with an existential: rejected *)
  let bad =
    Tgd.make ~name:"bad10"
      ~body:[ Atom.make "patient_ward" [ v "W"; v "D"; v "P" ] ]
      ~head:
        [ Atom.make "institution_unit" [ v "I"; v "U" ];
          Atom.make "discharge_patients" [ v "I"; v "D"; v "P" ] ]
      ()
  in
  (match Dim_rule.analyze schema bad with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected a form-(10) level violation")

let test_upward_only_detection () =
  Alcotest.(check bool) "rule7 alone is upward-only" true
    (Dim_rule.is_upward_only schema [ Hospital.rule7 ]);
  Alcotest.(check bool) "rule8 is not" false
    (Dim_rule.is_upward_only schema [ Hospital.rule7; Hospital.rule8 ])

(* ------------------------------------------------------------------ *)
(* Md_ontology *)

let test_ontology_instance_facts () =
  let m = Hospital.ontology () in
  let inst = Md_ontology.instance m in
  let card name = R.Relation.cardinal (R.Instance.get inst name) in
  Alcotest.(check int) "ward members" 4 (card "ward");
  Alcotest.(check int) "unit members" 3 (card "unit");
  Alcotest.(check int) "institution members" 2 (card "institution");
  Alcotest.(check int) "unit_ward links" 4 (card "unit_ward");
  Alcotest.(check int) "institution_unit links" 3 (card "institution_unit");
  Alcotest.(check int) "day_time links" 6 (card "day_time");
  Alcotest.(check int) "month_day links" 5 (card "month_day");
  Alcotest.(check bool) "unit_ward content" true
    (R.Relation.mem
       (R.Instance.get inst "unit_ward")
       (R.Tuple.of_list [ sym "Standard"; sym "W1" ]))

let test_ontology_referential_ok () =
  let m = Hospital.ontology () in
  Alcotest.(check int) "no violations" 0
    (List.length (Md_ontology.referential_violations m))

let test_ontology_referential_violation () =
  let data = R.Instance.create () in
  let pw = R.Instance.declare data Hospital.(R.Relation.schema patient_ward) in
  ignore (R.Relation.add pw (R.Tuple.of_list [ sym "W9"; sym "Sep/5"; sym "X" ]));
  let m =
    Md_ontology.make ~schema
      ~dim_instances:
        [ Hospital.hospital_instance; Hospital.time_instance;
          Hospital.device_instance ]
      ~data ()
  in
  match Md_ontology.referential_violations m with
  | [ viol ] ->
    Alcotest.(check string) "relation" "patient_ward" viol.Md_ontology.relation;
    Alcotest.(check int) "position" 0 viol.Md_ontology.position
  | l -> Alcotest.failf "expected 1 violation, got %d" (List.length l)

let test_ontology_classes () =
  let m = Hospital.ontology () in
  let report = Md_ontology.classes m in
  Alcotest.(check bool) "weakly sticky (paper claim)" true
    report.Classes.weakly_sticky;
  Alcotest.(check bool) "not sticky" false report.Classes.sticky;
  Alcotest.(check bool) "not linear" false report.Classes.linear

let test_ontology_separability () =
  let m = Hospital.ontology () in
  Alcotest.(check bool) "EGD (6) separable over categorical positions" true
    (Md_ontology.separability m).Separability.separable

let test_ontology_chase_saturates () =
  let m = Hospital.ontology () in
  let r = Md_ontology.chase m in
  Alcotest.(check bool) "saturated" true (r.Chase.outcome = Chase.Saturated);
  (* rule 8 invents shift nulls, rule 9 invents unit nulls *)
  Alcotest.(check bool) "nulls invented" true
    (r.Chase.stats.Chase.nulls_created >= 6)

let test_ontology_nc_fails_on_raw () =
  let m = Hospital.ontology ~raw_patient_ward:true () in
  let r = Md_ontology.chase m in
  (match r.Chase.outcome with
   | Chase.Failed (Chase.Nc_violation { nc; _ }) ->
     Alcotest.(check bool) "the intensive-care constraint" true
       (String.length nc.Nc.name > 0)
   | o -> Alcotest.failf "expected NC violation, got %a" Chase.pp_outcome o)

let test_ontology_upward_only () =
  Alcotest.(check bool) "upward fragment" true
    (Md_ontology.is_upward_only (Hospital.upward_ontology ()));
  Alcotest.(check bool) "full ontology not" false
    (Md_ontology.is_upward_only (Hospital.ontology ()))

let patient_unit_query =
  Query.make ~name:"pu" ~head:[ v "U"; v "D" ]
    [ Atom.make "patient_unit" [ v "U"; v "D"; c "Tom Waits" ] ]

let test_ontology_rewrite_agrees_with_chase () =
  let m = Hospital.upward_ontology () in
  let via_chase =
    match Md_ontology.certain_answers m patient_unit_query with
    | Query.Ok l -> l
    | _ -> Alcotest.fail "chase failed"
  in
  (match Md_ontology.rewrite_answers m patient_unit_query with
   | Guard.Complete via_rw ->
     Alcotest.(check int) "same size" (List.length via_chase)
       (List.length via_rw);
     Alcotest.(check bool) "same answers" true (via_chase = via_rw);
     Alcotest.(check bool) "nonempty" true (via_chase <> [])
   | Guard.Degraded (_, e) ->
     Alcotest.failf "degraded: %s" (Guard.resource_name e.Guard.resource));
  let via_proof = (Md_ontology.proof_answers m patient_unit_query).Proof.answers in
  Alcotest.(check bool) "proof agrees too" true (via_chase = via_proof)

(* ------------------------------------------------------------------ *)
(* Navigation vs rules *)

let test_navigation_rollup_equals_rule7 () =
  let rolled =
    Navigation.rollup Hospital.hospital_instance
      ~relation:Hospital.patient_ward ~position:0 ~to_category:"Unit"
      ~name:"patient_unit" ()
  in
  let m = Hospital.upward_ontology () in
  let r = Md_ontology.chase m in
  Alcotest.(check bool) "chase ok" true (r.Chase.outcome = Chase.Saturated);
  let via_chase = R.Instance.get r.Chase.instance "patient_unit" in
  Alcotest.(check bool) "same tuples" true
    (R.Tuple.Set.equal (R.Relation.to_set rolled) (R.Relation.to_set via_chase))

let test_navigation_drilldown_multiplies () =
  let down =
    Navigation.drilldown Hospital.hospital_instance
      ~relation:Hospital.working_schedules ~position:0 ~to_category:"Ward"
      ~null_positions:[ 3 ] ()
  in
  (* Standard x2 wards x3 rows=... ws rows: Intensive(1 ward), Standard
     Sep/5, Sep/6, Sep/9 (2 wards each), Terminal (1 ward) *)
  Alcotest.(check int) "row count" 8 (R.Relation.cardinal down);
  R.Relation.iter
    (fun t ->
      Alcotest.(check bool) "shift is null" true
        (R.Value.is_null (R.Tuple.get t 3)))
    down

let test_navigation_rollup_drops_unlinked () =
  (* a ward with no unit: its tuples vanish on roll-up *)
  let inst =
    Dim_instance.make hosp
      ~members:
        [ ("Ward", [ "WA"; "WB" ]); ("Unit", [ "U1" ]); ("Institution", [ "H" ]) ]
      ~links:[ ("WA", "U1"); ("U1", "H") ]
  in
  let rel =
    R.Relation.of_tuples Hospital.(R.Relation.schema patient_ward)
      [ R.Tuple.of_list [ sym "WA"; sym "Sep/5"; sym "p" ];
        R.Tuple.of_list [ sym "WB"; sym "Sep/5"; sym "q" ] ]
  in
  let rolled = Navigation.rollup inst ~relation:rel ~position:0 ~to_category:"Unit" () in
  Alcotest.(check int) "only linked ward survives" 1 (R.Relation.cardinal rolled)

(* ------------------------------------------------------------------ *)
(* DOT export (Figure 1) *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_dim_schema_dot () =
  let dot = Dim_schema.to_dot hosp in
  Alcotest.(check bool) "digraph" true (contains ~needle:"digraph" dot);
  Alcotest.(check bool) "roll-up edge" true
    (contains ~needle:"\"Hospital.Ward\" -> \"Hospital.Unit\"" dot)

let test_md_schema_dot () =
  let dot = Md_schema.to_dot schema in
  Alcotest.(check bool) "one cluster per dimension" true
    (contains ~needle:"cluster_Hospital" dot
    && contains ~needle:"cluster_Time" dot
    && contains ~needle:"cluster_Device" dot);
  Alcotest.(check bool) "relation node" true
    (contains ~needle:"\"patient_ward\"" dot);
  Alcotest.(check bool) "attachment edge to Ward" true
    (contains ~needle:"\"patient_ward\" -> \"Hospital.Ward\"" dot)

(* ------------------------------------------------------------------ *)
(* Md_ontology constructor validation *)

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

let test_ontology_validation () =
  Alcotest.(check bool) "missing dimension instance" true
    (raises_invalid (fun () ->
         Md_ontology.make ~schema
           ~dim_instances:[ Hospital.hospital_instance ]
           ()));
  Alcotest.(check bool) "duplicate dimension instance" true
    (raises_invalid (fun () ->
         Md_ontology.make ~schema
           ~dim_instances:
             [ Hospital.hospital_instance; Hospital.hospital_instance;
               Hospital.time_instance; Hospital.device_instance ]
           ()));
  let bad_data = R.Instance.create () in
  ignore (R.Instance.declare bad_data (R.Rel_schema.of_names "mystery" [ "x" ]));
  Alcotest.(check bool) "undeclared relation in data" true
    (raises_invalid (fun () ->
         Md_ontology.make ~schema
           ~dim_instances:
             [ Hospital.hospital_instance; Hospital.time_instance;
               Hospital.device_instance ]
           ~data:bad_data ()));
  Alcotest.(check bool) "invalid dimensional rule" true
    (raises_invalid (fun () ->
         Md_ontology.make ~schema
           ~dim_instances:
             [ Hospital.hospital_instance; Hospital.time_instance;
               Hospital.device_instance ]
           ~rules:
             [ Tgd.make
                 ~body:[ Atom.make "mystery" [ v "X" ] ]
                 ~head:[ Atom.make "patient_unit" [ v "U"; v "D"; v "X" ] ]
                 () ]
           ()))

(* ------------------------------------------------------------------ *)
(* Aggregate *)

let sales_rel rows =
  let schema =
    R.Rel_schema.make "sales"
      [ R.Attribute.categorical "item" ~dimension:"Hospital" ~category:"Ward";
        R.Attribute.plain "amount" ]
  in
  R.Relation.of_tuples schema
    (List.map
       (fun (w, a) -> R.Tuple.of_list [ sym w; R.Value.real a ])
       rows)

let test_aggregate_sum () =
  let rel = sales_rel [ ("W1", 10.); ("W2", 5.); ("W3", 7.); ("W1", 3.) ] in
  match
    Aggregate.rollup hinst ~relation:rel ~group_position:0 ~to_category:"Unit"
      ~value_position:1 ~op:Aggregate.Sum ()
  with
  | Ok rows ->
    let find u =
      List.find (fun r -> R.Value.equal r.Aggregate.group (sym u)) rows
    in
    Alcotest.(check int) "two groups" 2 (List.length rows);
    Alcotest.(check bool) "standard sum" true
      (abs_float ((find "Standard").Aggregate.value -. 18.) < 1e-9);
    Alcotest.(check bool) "intensive sum" true
      (abs_float ((find "Intensive").Aggregate.value -. 7.) < 1e-9);
    Alcotest.(check int) "tuple counts" 3 (find "Standard").Aggregate.tuples
  | Error e -> Alcotest.fail e

let test_aggregate_ops () =
  let rel = sales_rel [ ("W1", 10.); ("W2", 4.) ] in
  let run op vp =
    match
      Aggregate.rollup hinst ~relation:rel ~group_position:0
        ~to_category:"Unit" ?value_position:vp ~op ()
    with
    | Ok [ r ] -> r.Aggregate.value
    | Ok l -> Alcotest.failf "expected one row, got %d" (List.length l)
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "count" true (run Aggregate.Count None = 2.0);
  Alcotest.(check bool) "avg" true (abs_float (run Aggregate.Avg (Some 1) -. 7.) < 1e-9);
  Alcotest.(check bool) "min" true (run Aggregate.Min (Some 1) = 4.0);
  Alcotest.(check bool) "max" true (run Aggregate.Max (Some 1) = 10.0)

let test_aggregate_guard () =
  let rel_ns =
    let schema =
      R.Rel_schema.make "s2"
        [ R.Attribute.categorical "w" ~dimension:"Hospital" ~category:"Ward";
          R.Attribute.plain "amount" ]
    in
    R.Relation.of_tuples schema
      [ R.Tuple.of_list [ sym "W5"; R.Value.real 6. ] ]
  in
  (match
     Aggregate.rollup non_strict ~relation:rel_ns ~group_position:0
       ~to_category:"Unit" ~value_position:1 ~op:Aggregate.Sum ()
   with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected summarizability refusal");
  (* forcing double-counts W5's value into both units *)
  (match
     Aggregate.rollup non_strict ~relation:rel_ns ~group_position:0
       ~to_category:"Unit" ~value_position:1 ~op:Aggregate.Sum ~check:false ()
   with
   | Ok rows -> Alcotest.(check int) "two groups from one tuple" 2 (List.length rows)
   | Error e -> Alcotest.fail e)

let test_aggregate_errors () =
  let rel = sales_rel [ ("W1", 10.) ] in
  let expect_error f =
    match f () with Error _ -> () | Ok _ -> Alcotest.fail "expected error"
  in
  expect_error (fun () ->
      Aggregate.rollup hinst ~relation:rel ~group_position:0
        ~to_category:"Unit" ~op:Aggregate.Sum ());
  expect_error (fun () ->
      Aggregate.rollup hinst ~relation:rel ~group_position:5
        ~to_category:"Unit" ~value_position:1 ~op:Aggregate.Sum ());
  expect_error (fun () ->
      (* Unit is not an ancestor of itself *)
      Aggregate.rollup hinst ~relation:rel ~group_position:0
        ~to_category:"Ward" ~value_position:1 ~op:Aggregate.Sum ());
  (* non-numeric value *)
  let rel_bad =
    let schema =
      R.Rel_schema.make "s3"
        [ R.Attribute.categorical "w" ~dimension:"Hospital" ~category:"Ward";
          R.Attribute.plain "amount" ]
    in
    R.Relation.of_tuples schema [ R.Tuple.of_list [ sym "W1"; sym "oops" ] ]
  in
  expect_error (fun () ->
      Aggregate.rollup hinst ~relation:rel_bad ~group_position:0
        ~to_category:"Unit" ~value_position:1 ~op:Aggregate.Sum ())

(* ------------------------------------------------------------------ *)
(* Properties *)

let gen_chain_instance =
  (* random 3-level instances: wards 0..n-1, units 0..m-1, random links *)
  QCheck.Gen.(
    let* n_wards = 1 -- 8 in
    let* n_units = 1 -- 4 in
    let* links =
      list_size (return n_wards)
        (map (fun u -> u mod n_units) (0 -- 100))
    in
    let wards = List.init n_wards (Printf.sprintf "w%d") in
    let units = List.init n_units (Printf.sprintf "u%d") in
    let ward_links =
      List.mapi (fun i u -> (Printf.sprintf "w%d" i, Printf.sprintf "u%d" u)) links
    in
    let unit_links = List.map (fun u -> (u, "h0")) units in
    return
      (Dim_instance.make Hospital.hospital_dim
         ~members:
           [ ("Ward", wards); ("Unit", units); ("Institution", [ "h0" ]) ]
         ~links:(ward_links @ unit_links)))

let instance_arb =
  QCheck.make
    ~print:(fun i -> Format.asprintf "%a" Dim_instance.pp i)
    gen_chain_instance

let prop_rollup_drilldown_galois =
  QCheck.Test.make ~name:"rollup/drilldown adjunction on members" ~count:200
    instance_arb (fun di ->
      (* u ∈ rollup(w) iff w ∈ drilldown(u) *)
      List.for_all
        (fun w ->
          List.for_all
            (fun u ->
              let up = Dim_instance.rollup di w ~to_category:"Unit" in
              let down = Dim_instance.drilldown di u ~to_category:"Ward" in
              List.mem u up = List.mem w down)
            (Dim_instance.members di "Unit"))
        (Dim_instance.members di "Ward"))

let prop_strict_singleton_rollup =
  QCheck.Test.make ~name:"strict instances have functional roll-ups"
    ~count:200 instance_arb (fun di ->
      QCheck.assume (Dim_instance.is_strict di);
      List.for_all
        (fun w ->
          List.length (Dim_instance.rollup di w ~to_category:"Institution") <= 1)
        (Dim_instance.members di "Ward"))

let prop_diagnose_consistent =
  QCheck.Test.make ~name:"summarizability report matches predicates"
    ~count:200 instance_arb (fun di ->
      let r = Summarizability.diagnose di in
      r.Summarizability.strict = Dim_instance.is_strict di
      && r.Summarizability.homogeneous = Dim_instance.is_homogeneous di)

(* grand-total invariant: when the ward->unit roll-up is summarizable,
   the per-unit sums add up to the plain total *)
let prop_aggregate_partition =
  QCheck.Test.make ~name:"checked Sum roll-up partitions the total"
    ~count:200
    (QCheck.pair instance_arb
       (QCheck.small_list (QCheck.make QCheck.Gen.(pair (0 -- 7) (0 -- 50)))))
    (fun (di, rows) ->
      let wards = Dim_instance.members di "Ward" in
      QCheck.assume (wards <> []);
      let rel =
        let schema =
          R.Rel_schema.make "sales"
            [ R.Attribute.categorical "w" ~dimension:"Hospital"
                ~category:"Ward";
              R.Attribute.plain "amount" ]
        in
        R.Relation.of_tuples schema
          (List.mapi
             (fun i (w, a) ->
               R.Tuple.of_list
                 [ List.nth wards (w mod List.length wards);
                   (* make tuples distinct so none collapse *)
                   R.Value.real (float_of_int ((a * 100) + i)) ])
             rows)
      in
      match
        Aggregate.rollup di ~relation:rel ~group_position:0
          ~to_category:"Unit" ~value_position:1 ~op:Aggregate.Sum ()
      with
      | Error _ -> QCheck.assume_fail ()  (* not summarizable: skip *)
      | Ok groups ->
        let total_direct =
          R.Relation.fold
            (fun t acc ->
              match R.Tuple.get t 1 with
              | R.Value.Real x -> acc +. x
              | _ -> acc)
            rel 0.0
        in
        let total_grouped =
          List.fold_left (fun acc r -> acc +. r.Aggregate.value) 0.0 groups
        in
        abs_float (total_direct -. total_grouped) < 1e-6)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_rollup_drilldown_galois; prop_strict_singleton_rollup;
      prop_diagnose_consistent; prop_aggregate_partition ]

(* Random multi-level instances in which a member links to any subset
   of the members of each parent category: none (non-homogeneous), one,
   or several (non-strict).  Three schemas: a chain, a diamond, and a
   chain with a shortcut edge, where an ancestor category is also an
   immediate parent. *)
let dag_schemas =
  [ Hospital.hospital_dim;
    Dim_schema.make ~name:"Diamond"
      ~edges:
        [ ("Day", "Week"); ("Day", "Month"); ("Week", "Year");
          ("Month", "Year") ];
    Dim_schema.make ~name:"Shortcut"
      ~edges:[ ("A", "B"); ("B", "C"); ("A", "C") ] ]

let gen_dag_instance =
  QCheck.Gen.(
    let* schema = oneofl dag_schemas in
    let cats =
      List.filter (fun c -> c <> Dim_schema.all) (Dim_schema.categories schema)
    in
    let* sizes = flatten_l (List.map (fun _ -> 1 -- 4) cats) in
    let members =
      List.map2
        (fun cat n ->
          (cat, List.init n (Printf.sprintf "%s%d" (String.lowercase_ascii cat))))
        cats sizes
    in
    let* links =
      flatten_l
        (List.concat_map
           (fun (cat, ms) ->
             List.concat_map
               (fun m ->
                 List.filter_map
                   (fun pcat ->
                     Option.map
                       (fun parents ->
                         map
                           (fun keep ->
                             List.concat
                               (List.map2
                                  (fun p k -> if k then [ (m, p) ] else [])
                                  parents keep))
                           (flatten_l (List.map (fun _ -> bool) parents)))
                       (List.assoc_opt pcat members))
                   (Dim_schema.parents schema cat))
               ms)
           members)
    in
    return (Dim_instance.make schema ~members ~links:(List.concat links)))

let dag_instance_arb =
  QCheck.make
    ~print:(fun i -> Format.asprintf "%a" Dim_instance.pp i)
    gen_dag_instance

(* Test-only reference: the per-member algorithms the roll-up table
   replaced, one [rollup] walk or [member_parents] scan per member. *)
module Reference = struct
  let name = function R.Value.Sym s -> s | v -> R.Value.to_string v

  (* every member but [all], in name order, with its category *)
  let members di =
    let schema = Dim_instance.schema di in
    List.concat_map
      (fun cat ->
        if cat = Dim_schema.all then []
        else List.map (fun m -> (m, cat)) (Dim_instance.members di cat))
      (Dim_schema.categories schema)
    |> List.sort (fun (a, _) (b, _) -> R.Value.compare a b)

  let covered di m pcat =
    List.exists
      (fun p -> Dim_instance.category_of di p = Some pcat)
      (Dim_instance.member_parents di m)

  let strictness_violations di =
    let schema = Dim_instance.schema di in
    List.concat_map
      (fun (m, cat) ->
        List.filter_map
          (fun anc ->
            let ups = Dim_instance.rollup di m ~to_category:anc in
            if List.length ups > 1 then Some (name m, anc, ups) else None)
          (Dim_schema.ancestors schema cat))
      (members di)

  let homogeneity_violations di =
    let schema = Dim_instance.schema di in
    List.concat_map
      (fun (m, cat) ->
        List.filter_map
          (fun pcat -> if covered di m pcat then None else Some (name m, pcat))
          (Dim_schema.parents schema cat))
      (members di)

  let diagnose di =
    let schema = Dim_instance.schema di in
    let violations =
      List.concat_map
        (fun cat ->
          if cat = Dim_schema.all then []
          else
            List.concat_map
              (fun m ->
                List.filter_map
                  (fun anc ->
                    let ups = Dim_instance.rollup di m ~to_category:anc in
                    if List.length ups > 1 then
                      Some
                        (Summarizability.Non_strict
                           { member = m; category = cat;
                             ancestor_category = anc; ancestors = ups })
                    else None)
                  (Dim_schema.ancestors schema cat)
                @ List.filter_map
                    (fun pcat ->
                      if covered di m pcat then None
                      else
                        Some
                          (Summarizability.Non_covering
                             { member = m; category = cat;
                               parent_category = pcat }))
                    (Dim_schema.parents schema cat))
              (Dim_instance.members di cat))
        (Dim_schema.categories schema)
    in
    { Summarizability.strict =
        not
          (List.exists
             (function Summarizability.Non_strict _ -> true | _ -> false)
             violations);
      homogeneous =
        not
          (List.exists
             (function Summarizability.Non_covering _ -> true | _ -> false)
             violations);
      violations }

  let summarizable di ~from_category ~to_category =
    Dim_schema.is_ancestor (Dim_instance.schema di) ~ancestor:to_category
      from_category
    && List.for_all
         (fun m -> List.length (Dim_instance.rollup di m ~to_category) = 1)
         (Dim_instance.members di from_category)
end

let prop_rollup_table_reference =
  QCheck.Test.make ~name:"roll-up table checks = per-member reference"
    ~count:500 ~long_factor:10 dag_instance_arb (fun di ->
      let cats = Dim_schema.categories (Dim_instance.schema di) in
      let strict = Reference.strictness_violations di
      and homog = Reference.homogeneity_violations di in
      Dim_instance.strictness_violations di = strict
      && Dim_instance.homogeneity_violations di = homog
      && Dim_instance.is_strict di = (strict = [])
      && Dim_instance.is_homogeneous di = (homog = [])
      && Summarizability.diagnose di = Reference.diagnose di
      && List.for_all
           (fun from_category ->
             List.for_all
               (fun to_category ->
                 Summarizability.summarizable di ~from_category ~to_category
                 = Reference.summarizable di ~from_category ~to_category)
               cats)
           cats)

(* The generator is only a reference test if every outcome occurs. *)
let test_dag_generator_mix () =
  let rand = Random.State.make [| 14 |] in
  let sample = List.init 200 (fun _ -> gen_dag_instance rand) in
  let count p = List.length (List.filter p sample) in
  let strict = count Dim_instance.is_strict
  and homog = count Dim_instance.is_homogeneous in
  Alcotest.(check bool) "some strict" true (strict > 0);
  Alcotest.(check bool) "some non-strict" true (strict < 200);
  Alcotest.(check bool) "some homogeneous" true (homog > 0);
  Alcotest.(check bool) "some non-homogeneous" true (homog < 200)

let case name f = Alcotest.test_case name `Quick f

let suites =
  [ ( "multidim.schema",
      [ case "levels" test_schema_levels;
        case "parents/children/ancestors" test_schema_relatives;
        case "paths" test_schema_paths;
        case "non-linear DAG" test_schema_dag;
        case "cycle rejected" test_schema_cycle_rejected;
        case "All as child rejected" test_schema_all_not_child ] );
    ( "multidim.instance",
      [ case "members and categories" test_instance_members;
        case "roll-up" test_instance_rollup;
        case "drill-down" test_instance_drilldown;
        case "strictness/homogeneity" test_instance_strict_homogeneous;
        case "bad links rejected" test_instance_bad_links ] );
    ( "multidim.summarizability",
      [ case "non-strict diagnosis" test_summarizability_non_strict;
        case "non-covering diagnosis" test_summarizability_non_covering ] );
    ( "multidim.md_schema",
      [ case "predicate naming" test_md_schema_naming;
        case "position kinds" test_md_schema_position_kinds;
        case "categorical positions" test_md_schema_categorical_positions;
        case "validation" test_md_schema_validation ] );
    ( "multidim.dim_rule",
      [ case "rule (7): form 4 upward" test_rule7_analysis;
        case "rule (8): form 4 downward" test_rule8_analysis;
        case "rule (9): form 10 downward" test_rule9_analysis;
        case "shared plain variable rejected" test_rule_shared_plain_var_rejected;
        case "unknown predicate rejected" test_rule_unknown_pred_rejected;
        case "form 10 level violation" test_rule10_level_violation;
        case "upward-only detection" test_upward_only_detection ] );
    ( "multidim.ontology",
      [ case "compiled instance facts" test_ontology_instance_facts;
        case "referential constraints hold" test_ontology_referential_ok;
        case "referential violation detected" test_ontology_referential_violation;
        case "class report: weakly sticky" test_ontology_classes;
        case "EGD separability" test_ontology_separability;
        case "chase saturates with nulls" test_ontology_chase_saturates;
        case "closed-unit NC fires on raw data" test_ontology_nc_fails_on_raw;
        case "upward-only fragment detection" test_ontology_upward_only;
        case "rewrite/proof/chase agree" test_ontology_rewrite_agrees_with_chase
      ] );
    ( "multidim.dot",
      [ case "dimension DAG export" test_dim_schema_dot;
        case "Figure 1 export" test_md_schema_dot ] );
    ( "multidim.validation",
      [ case "ontology constructor errors" test_ontology_validation ] );
    ( "multidim.aggregate",
      [ case "sum by unit" test_aggregate_sum;
        case "count/avg/min/max" test_aggregate_ops;
        case "summarizability guard" test_aggregate_guard;
        case "error conditions" test_aggregate_errors ] );
    ( "multidim.navigation",
      [ case "rollup = rule (7) chase" test_navigation_rollup_equals_rule7;
        case "drilldown multiplies with nulls" test_navigation_drilldown_multiplies;
        case "rollup drops unlinked members" test_navigation_rollup_drops_unlinked
      ] );
    ("multidim.properties", qcheck_cases);
    ( "multidim.rollup_table",
      [ case "generator mixes strict and homogeneous outcomes"
          test_dag_generator_mix;
        QCheck_alcotest.to_alcotest prop_rollup_table_reference ] ) ]
