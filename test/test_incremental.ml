(* Incremental assessment: its cost does not grow with the instance, and
   a chain of updates reaches the same quality versions and quality
   answers as one full assessment of the updated source. *)

open Mdqa_datalog
module R = Mdqa_relational
module Context = Mdqa_context.Context
module Hospital = Mdqa_hospital.Hospital
module Gen = Hospital.Gen

let sym = R.Value.sym

let measurement t p v = R.Tuple.of_list [ sym t; sym p; R.Value.real v ]

(* Generated readings are keyed by instants [D<day>-P<patient>-01]. *)
let gen_instant d p = Gen.day_name d ^ "-" ^ Gen.patient_name p ^ "-01"

(* --- cost ------------------------------------------------------------- *)

(* Allocation, not time: the minor words of a no-op extend and of a
   one-tuple update that fires must not grow with the instance.  Scale
   160 chases about 15x the facts of scale 40.  Sharing the prior's
   indexes and carrying the null mark reads about 1.0x (no-op) and
   1.03x (update); rebuilding the indexes and scanning for nulls read
   about 14x and 13x. *)
let test_update_alloc_flat () =
  let words f =
    ignore (f ());
    let before = Gc.minor_words () in
    ignore (f ());
    Gc.minor_words () -. before
  in
  let at n =
    let g = Gen.scale n in
    let ctx = Gen.context g in
    let a = Context.assess ctx ~source:(Gen.source g) in
    Alcotest.(check bool)
      (Printf.sprintf "scale %d saturates" n)
      true
      (a.Context.chase.Chase.outcome = Chase.Saturated);
    (* patient 1 is in the standard unit, so its reading qualifies *)
    let row = measurement (gen_instant 1 1) (Gen.patient_name 1) 99.5 in
    let update () =
      Context.assess_incremental a ~added:[ ("measurements", row) ]
    in
    Alcotest.(check int)
      (Printf.sprintf "the scale %d update fires once" n)
      1
      (update ()).Context.chase.Chase.stats.Chase.tgd_fires;
    let noop () =
      Chase.extend (Context.program ctx) a.Context.chase ~facts:[]
    in
    (words noop, words update)
  in
  let noop40, upd40 = at 40 and noop160, upd160 = at 160 in
  let pin what w40 w160 =
    if w160 > 1.25 *. w40 then
      Alcotest.failf
        "%s allocates %.0f words at scale 160 vs %.0f at 40 (> 1.25x)" what
        w160 w40
  in
  pin "a no-op Chase.extend" noop40 noop160;
  pin "a one-tuple assess_incremental" upd40 upd160

(* --- the oracle: a chain of updates = one full assessment ------------- *)

type case = {
  context : Context.t;
  source : R.Instance.t;
  queries : Query.t list;
  updates : R.Tuple.t list;  (* new measurements, in arrival order *)
}

let same_outcome (a : Context.assessment) (b : Context.assessment) =
  match a.Context.chase.Chase.outcome, b.Context.chase.Chase.outcome with
  | Chase.Saturated, Chase.Saturated -> true
  | Chase.Failed _, Chase.Failed _ -> true
  | _ -> false

let sorted_answers a q =
  Option.map (List.sort R.Tuple.compare) (Context.clean_answers a q)

let chain_matches_full c =
  let base = Context.assess c.context ~source:c.source in
  let chained =
    List.fold_left
      (fun a t -> Context.assess_incremental a ~added:[ ("measurements", t) ])
      base c.updates
  in
  let source = R.Instance.copy c.source in
  List.iter
    (fun t -> ignore (R.Instance.add_tuple source "measurements" t))
    c.updates;
  let full = Context.assess c.context ~source in
  let qv a =
    Option.map R.Relation.to_list (Context.quality_version a "measurements")
  in
  same_outcome chained full
  && qv chained = qv full
  && List.for_all
       (fun q -> sorted_answers chained q = sorted_answers full q)
       c.queries

(* Gen contexts at small scales.  An update reads at a known instant or
   an unknown one, for a patient in the standard unit (it fires) or
   elsewhere (it does not). *)
let gen_case_gen =
  let open QCheck.Gen in
  let* n = 4 -- 12 in
  let g = Gen.scale n in
  let update =
    let* p = 1 -- n and* d = 1 -- g.Gen.days and* q = 1 -- n in
    let* known = frequencyl [ (4, true); (1, false) ] in
    let* v = map (fun k -> 35. +. (float_of_int k /. 10.)) (0 -- 60) in
    let t = if known then gen_instant d q else gen_instant (g.Gen.days + 1) q in
    return (measurement t (Gen.patient_name p) v)
  in
  let* updates = list_size (1 -- 8) update in
  return
    { context = Gen.context g;
      source = Gen.source g;
      queries = [ Gen.doctor_query g ];
      updates }

(* The hospital example carries the thermometer EGD and the
   intensive-care NCs, which every extension re-checks. *)
let hospital_case_gen =
  let open QCheck.Gen in
  let instants =
    [ "Sep/5-12:10"; "Sep/6-11:50"; "Sep/7-12:15"; "Sep/9-12:00";
      "Sep/6-11:05"; "Sep/5-12:05"; "Oct/5-10:00" ]
  in
  let update =
    let* t = oneofl instants
    and* p = oneofl [ "Tom Waits"; "Lou Reed"; "Ann Blue" ]
    and* v = map (fun k -> 36. +. (float_of_int k /. 10.)) (0 -- 30) in
    return (measurement t p v)
  in
  let* updates = list_size (1 -- 6) update in
  return
    { context = Hospital.context ();
      source = Hospital.source ();
      queries = [ Hospital.doctor_query ];
      updates }

let print_case c =
  String.concat "; "
    (List.map (Format.asprintf "%a" R.Tuple.pp) c.updates)

let prop_gen_chain =
  QCheck.Test.make ~name:"Gen: update chain = full assessment" ~count:50
    ~long_factor:10
    (QCheck.make ~print:print_case gen_case_gen)
    chain_matches_full

let prop_hospital_chain =
  QCheck.Test.make ~name:"hospital: update chain = full assessment" ~count:100
    ~long_factor:10
    (QCheck.make ~print:print_case hospital_case_gen)
    chain_matches_full

let suites =
  [ ( "incremental.cost",
      [ Alcotest.test_case "update allocation flat in the instance" `Quick
          test_update_alloc_flat ] );
    ( "incremental.oracle",
      List.map QCheck_alcotest.to_alcotest
        [ prop_gen_chain; prop_hospital_chain ] ) ]
