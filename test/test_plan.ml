(* Differential tests for the join planner: every Eval entry point
   against a nested-loop reference evaluator, on generated bodies and
   on the chased hospital and telecom contexts. *)

open Mdqa_datalog
module R = Mdqa_relational
module Value = R.Value

(* --- the reference evaluator ------------------------------------------- *)

(* Nested loops over the atoms in source order, each over its whole
   relation.  An answer is a variable -> value association list. *)
let match_atom env (a : Atom.t) t =
  let rec go env p =
    if p >= Atom.arity a then Some env
    else
      let v = R.Tuple.get t p in
      match Atom.arg a p with
      | Term.Const c -> if Value.equal c v then go env (p + 1) else None
      | Term.Var x -> (
        match List.assoc_opt x env with
        | Some w -> if Value.equal w v then go env (p + 1) else None
        | None -> go ((x, v) :: env) (p + 1))
  in
  go env 0

let cmps_hold env cmps =
  let value = function
    | Term.Const c -> Some c
    | Term.Var x -> List.assoc_opt x env
  in
  List.for_all
    (fun (c : Atom.Cmp.t) ->
      match value c.Atom.Cmp.lhs, value c.Atom.Cmp.rhs with
      | Some a, Some b -> Atom.Cmp.holds c.Atom.Cmp.op a b
      | _ -> false)
    cmps

let ref_answers ?(cmps = []) inst atoms =
  let rec go env = function
    | [] -> if cmps_hold env cmps then [ env ] else []
    | (a : Atom.t) :: rest ->
      let tuples =
        match R.Instance.find inst (Atom.pred a) with
        | Some r -> R.Relation.to_list r
        | None -> []
      in
      List.concat_map
        (fun t ->
          match match_atom env a t with
          | Some env' -> go env' rest
          | None -> [])
        tuples
  in
  go [] atoms

let image env (a : Atom.t) =
  R.Tuple.of_list
    (List.map
       (function
         | Term.Const c -> c
         | Term.Var x -> List.assoc x env)
       (Atom.args a))

(* Answers as sorted binding lists, compared under [Value.compare], so
   [Real 0.0] and [Real (-0.0)] are one value and [Int 1], [Real 1.0]
   two. *)
let cmp_binding (x, v) (y, w) =
  let c = String.compare x y in
  if c <> 0 then c else Value.compare v w

let norm env = List.sort cmp_binding env
let cmp_answer = List.compare cmp_binding
let of_subst s =
  norm
    (List.map
       (function
         | x, Term.Const c -> (x, c)
         | x, Term.Var _ -> Alcotest.failf "%s left unbound" x)
       (Subst.to_list s))

let as_set l = List.sort_uniq cmp_answer l
let sorted l = List.sort cmp_answer l

(* --- generated bodies --------------------------------------------------- *)

let pool =
  Value.
    [ Sym "a"; Sym "b"; Sym "c"; Int 0; Int 1; Real 1.0; Real 0.0;
      Real (-0.0) ]

let preds = [ ("r", 2); ("s", 2); ("t", 3); ("u", 1) ]
let var_names = [ "X"; "Y"; "Z"; "W" ]

type case = {
  facts : (string * R.Tuple.t list) list;
  body : Atom.t list;
  cmps : Atom.Cmp.t list;
  delta : (string * R.Tuple.t list) list;  (* a subset of the facts *)
}

let gen_case =
  QCheck.Gen.(
    let value = oneofl pool in
    let* facts =
      flatten_l
        (List.map
           (fun (p, n) ->
             let* rows = list_size (0 -- 10) (array_repeat n value) in
             return (p, List.map R.Tuple.of_array rows))
           preds)
    in
    let term =
      frequency
        [ (3, map Term.var (oneofl var_names)); (1, map Term.const value) ]
    in
    let* body =
      list_size (1 -- 4)
        (let* p, n = oneofl preds in
         let* args = list_repeat n term in
         return (Atom.make p args))
    in
    let body_vars =
      List.concat_map (fun a -> Term.Var_set.elements (Atom.vars a)) body
    in
    let side =
      match body_vars with
      | [] -> map Term.const value
      | _ ->
        frequency
          [ (2, map Term.var (oneofl body_vars)); (1, map Term.const value) ]
    in
    let* cmps =
      list_size (0 -- 3)
        (let* op = oneofl Atom.Cmp.[ Eq; Eq; Eq; Eq; Neq; Lt; Le; Gt; Ge ] in
         let* lhs = side and* rhs = side in
         return (Atom.Cmp.make op lhs rhs))
    in
    let* delta =
      flatten_l
        (List.map
           (fun (p, rows) ->
             let* keep =
               list_repeat (List.length rows) (float_bound_inclusive 1.)
             in
             return
               (p, List.filteri (fun i _ -> List.nth keep i < 0.35) rows))
           facts)
    in
    return { facts; body; cmps; delta })

let print_case c =
  let rows l =
    String.concat " "
      (List.map
         (fun (p, ts) ->
           Printf.sprintf "%s={%s}" p
             (String.concat ";"
                (List.map (Format.asprintf "%a" R.Tuple.pp) ts)))
         l)
  in
  Format.asprintf "body: %a@.cmps: %a@.facts: %s@.delta: %s"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ") Atom.pp)
    c.body
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ")
       Atom.Cmp.pp)
    c.cmps (rows c.facts) (rows c.delta)

let case_arb = QCheck.make ~print:print_case gen_case

let instance_of c =
  let inst = R.Instance.create () in
  List.iter
    (fun (p, ts) ->
      let n = List.assoc p preds in
      ignore
        (R.Instance.declare inst
           (R.Rel_schema.of_names p (List.init n (Printf.sprintf "c%d"))));
      List.iter (fun t -> ignore (R.Instance.add_tuple inst p t)) ts)
    c.facts;
  inst

let delta_of c p =
  R.Tuple.Set.of_list (Option.value ~default:[] (List.assoc_opt p c.delta))

(* Eval output is checked without deduplication: equal to the
   (duplicate-free) reference list means each match exactly once. *)
let prop_answers =
  QCheck.Test.make ~name:"answers = nested-loop reference, each once"
    ~count:1000 ~long_factor:10 case_arb (fun c ->
      let inst = instance_of c in
      let expect =
        as_set (List.map norm (ref_answers ~cmps:c.cmps inst c.body))
      in
      sorted (List.map of_subst (Eval.answers ~cmps:c.cmps inst c.body))
      = expect)

let prop_first_exists =
  QCheck.Test.make ~name:"first/exists agree with the reference" ~count:1000
    ~long_factor:10 case_arb (fun c ->
      let inst = instance_of c in
      let expect =
        as_set (List.map norm (ref_answers ~cmps:c.cmps inst c.body))
      in
      Eval.exists ~cmps:c.cmps inst c.body = (expect <> [])
      &&
      match Eval.first ~cmps:c.cmps inst c.body with
      | None -> expect = []
      | Some s -> List.exists (fun e -> cmp_answer e (of_subst s) = 0) expect)

let prop_delta_answers =
  QCheck.Test.make
    ~name:"delta_answers = reference matches touching the delta, each once"
    ~count:1000 ~long_factor:10 case_arb (fun c ->
      let inst = instance_of c in
      let touches env =
        List.exists
          (fun a -> R.Tuple.Set.mem (image env a) (delta_of c (Atom.pred a)))
          c.body
      in
      let expect =
        as_set
          (List.map norm
             (List.filter touches (ref_answers ~cmps:c.cmps inst c.body)))
      in
      sorted
        (List.map of_subst
           (Eval.delta_answers ~cmps:c.cmps inst ~delta:(delta_of c) c.body))
      = expect)

let check_set msg expect got =
  Alcotest.(check int) (msg ^ ": count") (List.length expect) (List.length got);
  Alcotest.(check bool)
    msg true
    (List.equal (fun a b -> cmp_answer a b = 0) expect got)

(* Past 10 atoms the order is chosen greedily: a 12-atom chain over a
   graph of out-degree at most 2, closed back to its start. *)
let test_long_chain () =
  let edges =
    [ ("a", "b"); ("a", "c"); ("b", "c"); ("b", "d"); ("c", "a"); ("c", "e");
      ("d", "a"); ("e", "b"); ("e", "d") ]
  in
  let inst = R.Instance.create () in
  ignore (R.Instance.declare inst (R.Rel_schema.of_names "e" [ "s"; "t" ]));
  List.iter
    (fun (x, y) ->
      ignore
        (R.Instance.add_tuple inst "e"
           (R.Tuple.of_list [ Value.sym x; Value.sym y ])))
    edges;
  let var i = Term.var (Printf.sprintf "X%d" (i mod 12)) in
  let body = List.init 12 (fun i -> Atom.make "e" [ var i; var (i + 1) ]) in
  let cmps = [ Atom.Cmp.make Atom.Cmp.Neq (Term.var "X0") (Term.sym "d") ] in
  let expect = as_set (List.map norm (ref_answers ~cmps inst body)) in
  Alcotest.(check bool) "some cycles" true (expect <> []);
  check_set "12-atom cycle"
    expect
    (sorted (List.map of_subst (Eval.answers ~cmps inst body)))

(* [X = c] keys the index by [c], but [X] is bound from the matched
   tuple: a query for [-0.0] over a stored [0.0] answers [0.0], through
   every access path (member, index, delta walk). *)
let test_pushdown_binds_stored () =
  let inst = R.Instance.create () in
  ignore (R.Instance.declare inst (R.Rel_schema.of_names "u" [ "a" ]));
  ignore (R.Instance.declare inst (R.Rel_schema.of_names "r" [ "a"; "b" ]));
  let zero = Value.Real 0.0 in
  ignore (R.Instance.add_tuple inst "u" (R.Tuple.of_list [ zero ]));
  let r_fact = R.Tuple.of_list [ zero; Value.sym "b" ] in
  ignore (R.Instance.add_tuple inst "r" r_fact);
  let x = Term.var "X" in
  let x_is_neg_zero =
    Atom.Cmp.make Atom.Cmp.Eq (Term.const (Value.Real (-0.0))) x
  in
  let x_of = function
    | [ s ] -> (
      match Subst.to_list s |> List.assoc_opt "X" with
      | Some (Term.Const x) -> Value.to_string x
      | _ -> Alcotest.fail "X unbound")
    | l -> Alcotest.failf "%d answers" (List.length l)
  in
  let stored = Value.to_string zero in
  Alcotest.(check string) "member" stored
    (x_of (Eval.answers ~cmps:[ x_is_neg_zero ] inst [ Atom.make "u" [ x ] ]));
  let r_body = [ Atom.make "r" [ x; Term.var "Y" ] ] in
  Alcotest.(check string) "index" stored
    (x_of (Eval.answers ~cmps:[ x_is_neg_zero ] inst r_body));
  let delta p =
    if p = "r" then R.Tuple.Set.singleton r_fact else R.Tuple.Set.empty
  in
  Alcotest.(check string) "delta walk" stored
    (x_of (Eval.delta_answers ~cmps:[ x_is_neg_zero ] inst ~delta r_body))

(* --- chased contexts ------------------------------------------------------ *)

module Context = Mdqa_context.Context
module Hospital = Mdqa_hospital.Hospital
module Telecom = Mdqa_telecom.Telecom

let null_free_images heads envs =
  R.Tuple.Set.of_list
    (List.concat_map
       (fun env ->
         List.filter_map
           (fun (a : Atom.t) ->
             if List.for_all
                  (function
                    | Term.Var x -> List.mem_assoc x env
                    | Term.Const _ -> true)
                  (Atom.args a)
             then
               let t = image env a in
               if R.Tuple.has_null t then None else Some t
             else None)
           heads)
       envs)

(* Over the chased instance: every rule body has the reference's
   matches; each quality version is exactly the null-free heads its
   rules derive from those matches; each query's clean answers are the
   reference's null-free answers to the rewritten query. *)
let check_context ctx ~source queries =
  let a = Context.assess ctx ~source in
  let inst = a.Context.chase.Chase.instance in
  let prepared = Context.prepare ctx ~source in
  let tgds = (Context.program ctx).Program.tgds in
  List.iter
    (fun (tgd : Tgd.t) ->
      check_set tgd.Tgd.name
        (as_set (List.map norm (ref_answers inst tgd.Tgd.body)))
        (sorted (List.map of_subst (Eval.answers inst tgd.Tgd.body))))
    tgds;
  List.iter
    (fun (s, qpred) ->
      let derived =
        List.fold_left
          (fun acc (tgd : Tgd.t) ->
            let heads =
              List.filter (fun h -> Atom.pred h = qpred) tgd.Tgd.head
            in
            if heads = [] then acc
            else
              R.Tuple.Set.union acc
                (null_free_images heads (ref_answers inst tgd.Tgd.body)))
          R.Tuple.Set.empty tgds
      in
      let extensional =
        match R.Instance.find prepared qpred with
        | Some r ->
          R.Tuple.Set.filter
            (fun t -> not (R.Tuple.has_null t))
            (R.Relation.to_set r)
        | None -> R.Tuple.Set.empty
      in
      match Context.quality_version a s with
      | None -> Alcotest.failf "no quality version for %s" s
      | Some qv ->
        Alcotest.(check bool)
          (s ^ " quality version = reference")
          true
          (R.Tuple.Set.equal (R.Relation.to_set qv)
             (R.Tuple.Set.union derived extensional)))
    ctx.Context.quality_versions;
  List.iter
    (fun q ->
      let qq = Context.rewrite_query ctx q in
      let expect =
        R.Tuple.Set.elements
          (R.Tuple.Set.filter
             (fun t -> not (R.Tuple.has_null t))
             (R.Tuple.Set.of_list
                (List.map
                   (fun env ->
                     R.Tuple.of_list
                       (List.map
                          (function
                            | Term.Const c -> c
                            | Term.Var x -> List.assoc x env)
                          qq.Query.head))
                   (ref_answers ~cmps:qq.Query.cmps inst qq.Query.body))))
      in
      match Context.clean_answers a q with
      | None -> Alcotest.failf "%s: chase failed" q.Query.name
      | Some got ->
        Alcotest.(check int) (q.Query.name ^ " answers") (List.length expect)
          (List.length got);
        Alcotest.(check bool) (q.Query.name ^ " = reference") true
          (List.equal R.Tuple.equal expect got))
    queries

let v = Term.var
let c = Term.sym

let test_hospital_scaled () =
  let g = Hospital.Gen.scale 20 in
  let patient_query i =
    Query.make ~name:(Printf.sprintf "patient%d" i)
      ~cmps:
        [ Atom.Cmp.make Atom.Cmp.Eq (c (Hospital.Gen.patient_name i)) (v "P") ]
      ~head:[ v "T"; v "V" ]
      [ Atom.make "measurements" [ v "T"; v "P"; v "V" ] ]
  in
  check_context (Hospital.Gen.context g) ~source:(Hospital.Gen.source g)
    (Hospital.Gen.doctor_query g :: List.map patient_query [ 1; 7; 19 ])

let test_telecom () =
  check_context (Telecom.context ()) ~source:(Telecom.source ())
    [ Telecom.caller_query ]

let suites =
  [ ( "eval.plan",
      [ Alcotest.test_case "hospital (scale 20) = reference" `Quick
          test_hospital_scaled;
        Alcotest.test_case "telecom = reference" `Quick test_telecom;
        Alcotest.test_case "greedy order past 10 atoms = reference" `Quick
          test_long_chain;
        Alcotest.test_case "X = c binds the stored value" `Quick
          test_pushdown_binds_stored ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_answers; prop_first_exists; prop_delta_answers ] ) ]
