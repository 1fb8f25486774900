(* Tests for the relational substrate: values, tuples, relations,
   instances, table formatting, CSV round-trips. *)

open Mdqa_relational

let v_sym s = Value.sym s
let v_int i = Value.int i

let value_testable = Alcotest.testable Value.pp Value.equal
let tuple_testable = Alcotest.testable Tuple.pp Tuple.equal

let tup vs = Tuple.of_list vs
let syms ss = tup (List.map v_sym ss)

(* ------------------------------------------------------------------ *)
(* Value *)

let test_value_order () =
  Alcotest.(check bool) "sym < int" true (Value.compare (v_sym "z") (v_int 0) < 0);
  Alcotest.(check bool) "int < real" true
    (Value.compare (v_int 5) (Value.real 1.0) < 0);
  Alcotest.(check bool) "const < null" true
    (Value.compare (Value.real 9.9) (Value.Null 1) < 0);
  Alcotest.(check bool) "null by label" true
    (Value.compare (Value.Null 1) (Value.Null 2) < 0)

let test_value_null_predicates () =
  Alcotest.(check bool) "null is null" true (Value.is_null (Value.Null 3));
  Alcotest.(check bool) "sym not null" false (Value.is_null (v_sym "a"));
  Alcotest.(check bool) "sym is constant" true (Value.is_constant (v_sym "a"));
  Alcotest.(check bool) "null not constant" false
    (Value.is_constant (Value.Null 3))

let test_value_string_roundtrip () =
  let cases =
    [ v_sym "Tom"; v_sym "Tom Waits"; v_int 42; v_int (-7); Value.real 37.5;
      Value.Null 12; v_sym "W1"; v_sym "Sep/5-12:10" ]
  in
  List.iter
    (fun v ->
      Alcotest.check value_testable
        (Format.asprintf "roundtrip %a" Value.pp v)
        v
        (Value.of_string (Value.to_string v)))
    cases

(* Symbols spelled like floats: [float_of_string] reads [inf], [nan]
   and [infinity] (any case), so printing them bare would read them
   back as reals. *)
let float_spelled =
  [ "inf"; "nan"; "infinity"; "NaN"; "Infinity"; "INF"; "in_f"; "nan_" ]

let test_value_float_spelled_symbols () =
  List.iter
    (fun s ->
      let printed = Value.to_string (v_sym s) in
      Alcotest.(check string) (s ^ " prints quoted") (Printf.sprintf "%S" s)
        printed;
      Alcotest.check value_testable (s ^ " reads back as a symbol") (v_sym s)
        (Value.of_string printed))
    float_spelled;
  Alcotest.check value_testable "bare inf is still a real"
    (Value.real infinity) (Value.of_string "inf");
  List.iter
    (fun s ->
      Alcotest.(check string) (s ^ " stays bare") s (Value.to_string (v_sym s)))
    [ "info"; "infinite"; "nano"; "n"; "i_n" ]

let test_value_of_string_forms () =
  Alcotest.check value_testable "underscore null" (Value.Null 7)
    (Value.of_string "_:7");
  Alcotest.check value_testable "int" (v_int 10) (Value.of_string "10");
  Alcotest.check value_testable "real" (Value.real 1.5) (Value.of_string "1.5");
  Alcotest.check value_testable "bare sym" (v_sym "ward") (Value.of_string "ward")

let test_fresh_gen () =
  let g = Value.Fresh.create () in
  let a = Value.Fresh.next g and b = Value.Fresh.next g in
  Alcotest.(check bool) "distinct" false (Value.equal a b);
  Alcotest.(check int) "count" 2 (Value.Fresh.count g);
  let g2 = Value.Fresh.create ~start:100 () in
  Alcotest.check value_testable "start respected" (Value.Null 100)
    (Value.Fresh.next g2)

(* ------------------------------------------------------------------ *)
(* Tuple *)

let test_tuple_basic () =
  let t = syms [ "a"; "b"; "c" ] in
  Alcotest.(check int) "arity" 3 (Tuple.arity t);
  Alcotest.check value_testable "get" (v_sym "b") (Tuple.get t 1);
  Alcotest.check tuple_testable "set" (syms [ "a"; "x"; "c" ])
    (Tuple.set t 1 (v_sym "x"));
  Alcotest.check tuple_testable "set leaves original" (syms [ "a"; "b"; "c" ]) t

let test_tuple_project_append () =
  let t = syms [ "a"; "b"; "c"; "d" ] in
  Alcotest.check tuple_testable "project" (syms [ "d"; "b" ])
    (Tuple.project t [ 3; 1 ]);
  Alcotest.check tuple_testable "append"
    (syms [ "a"; "b"; "c"; "d"; "x" ])
    (Tuple.append t (syms [ "x" ]))

let test_tuple_has_null () =
  Alcotest.(check bool) "no null" false (Tuple.has_null (syms [ "a" ]));
  Alcotest.(check bool) "null" true
    (Tuple.has_null (tup [ v_sym "a"; Value.Null 1 ]))

let test_tuple_bounds () =
  let t = syms [ "a" ] in
  Alcotest.check_raises "get oob"
    (Invalid_argument "Tuple.get: position 1 out of range") (fun () ->
      ignore (Tuple.get t 1))

(* ------------------------------------------------------------------ *)
(* Relation / Instance *)

let schema_ab = Rel_schema.of_names "r" [ "a"; "b" ]

let test_relation_add_mem () =
  let r = Relation.create schema_ab in
  Alcotest.(check bool) "first add" true (Relation.add r (syms [ "x"; "y" ]));
  Alcotest.(check bool) "dup add" false (Relation.add r (syms [ "x"; "y" ]));
  Alcotest.(check bool) "mem" true (Relation.mem r (syms [ "x"; "y" ]));
  Alcotest.(check int) "cardinal" 1 (Relation.cardinal r)

let test_relation_arity_check () =
  let r = Relation.create schema_ab in
  Alcotest.check_raises "arity"
    (Invalid_argument "Relation r: arity mismatch (schema 2, tuple 1)")
    (fun () -> ignore (Relation.add r (syms [ "x" ])))

let test_relation_scan () =
  let r = Relation.create schema_ab in
  ignore (Relation.add r (syms [ "x"; "1" ]));
  ignore (Relation.add r (syms [ "x"; "2" ]));
  ignore (Relation.add r (syms [ "y"; "1" ]));
  Alcotest.(check int) "scan x" 2
    (List.length (Relation.scan r [ (0, v_sym "x") ]));
  Alcotest.(check int) "scan x,2" 1
    (List.length (Relation.scan r [ (0, v_sym "x"); (1, v_sym "2") ]));
  Alcotest.(check int) "scan none" 0
    (List.length (Relation.scan r [ (0, v_sym "zz") ]));
  Alcotest.(check int) "scan all" 3 (List.length (Relation.scan r []))

let test_relation_scan_after_add () =
  (* Index maintenance: scans stay correct after further inserts. *)
  let r = Relation.create schema_ab in
  ignore (Relation.add r (syms [ "x"; "1" ]));
  ignore (Relation.scan r [ (0, v_sym "x") ]);
  ignore (Relation.add r (syms [ "x"; "2" ]));
  Alcotest.(check int) "post-insert scan" 2
    (List.length (Relation.scan r [ (0, v_sym "x") ]))

(* A composite index holds exactly the tuples agreeing on its
   positions under [Value.equal] (so 0.0 and -0.0 share a bucket, Int 1
   and Real 1.0 do not), and stays exact after further inserts. *)
let test_relation_composite_index () =
  let r = Relation.create (Rel_schema.of_names "t" [ "a"; "b"; "c" ]) in
  let add l = ignore (Relation.add r (tup l)) in
  add [ v_sym "x"; Value.Real 0.0; Value.Int 1 ];
  add [ v_sym "x"; Value.Real 0.0; Value.Int 2 ];
  add [ v_sym "x"; Value.Int 1; Value.Int 3 ];
  add [ v_sym "y"; Value.Real 0.0; Value.Int 4 ];
  let ix = Relation.index r [| 0; 1 |] in
  let bucket k = List.length (Relation.probe ix (Array.of_list k)) in
  Alcotest.(check int) "x, -0.0" 2 (bucket [ v_sym "x"; Value.Real (-0.0) ]);
  Alcotest.(check int) "x, Real 1.0" 0 (bucket [ v_sym "x"; Value.Real 1.0 ]);
  Alcotest.(check int) "x, Int 1" 1 (bucket [ v_sym "x"; Value.Int 1 ]);
  add [ v_sym "x"; Value.Real 0.0; Value.Int 5 ];
  Alcotest.(check int) "maintained on add" 3
    (bucket [ v_sym "x"; Value.Real 0.0 ]);
  Alcotest.(check bool) "same index handle" true
    (Relation.index r [| 0; 1 |] == ix);
  Alcotest.(check int) "scan = the composite bucket" 3
    (List.length (Relation.scan r [ (0, v_sym "x"); (1, Value.Real 0.0) ]))

(* The distinct-count sketch: close on a wide column, exact on a
   constant one, copied by [copy], rebuilt by [map_values]. *)
let test_relation_distinct () =
  let r = Relation.create schema_ab in
  for i = 0 to 999 do
    ignore (Relation.add r (tup [ Value.Int (i mod 300); v_sym "k" ]))
  done;
  let d0 = Relation.distinct r 0 in
  Alcotest.(check bool)
    (Printf.sprintf "300 distinct estimated as %d" d0)
    true
    (abs (d0 - 300) <= 75);
  Alcotest.(check int) "constant column" 1 (Relation.distinct r 1);
  Alcotest.(check int) "empty relation" 0
    (Relation.distinct (Relation.create schema_ab) 0);
  let c = Relation.copy r in
  Alcotest.(check int) "copy keeps the sketch" d0 (Relation.distinct c 0);
  Relation.map_values c (fun _ -> v_sym "same");
  Alcotest.(check int) "map_values rebuilds it" 1 (Relation.distinct c 0);
  Alcotest.(check int) "the original is untouched" d0 (Relation.distinct r 0)

let test_relation_map_values () =
  let r = Relation.create schema_ab in
  ignore (Relation.add r (tup [ Value.Null 1; v_sym "k" ]));
  ignore (Relation.add r (tup [ v_sym "c"; v_sym "k" ]));
  Relation.map_values r (fun v ->
      if Value.equal v (Value.Null 1) then v_sym "c" else v);
  Alcotest.(check int) "merged" 1 (Relation.cardinal r);
  Alcotest.(check bool) "contains merged" true
    (Relation.mem r (syms [ "c"; "k" ]))

let test_relation_remove () =
  let r = Relation.create schema_ab in
  ignore (Relation.add r (syms [ "x"; "1" ]));
  Alcotest.(check bool) "remove" true (Relation.remove r (syms [ "x"; "1" ]));
  Alcotest.(check bool) "remove absent" false
    (Relation.remove r (syms [ "x"; "1" ]));
  Alcotest.(check int) "empty" 0 (Relation.cardinal r)

(* Copies share indexes.  [probe] hands out a bucket itself, so a
   bucket physically equal to the original's was not rebuilt. *)
let sorted l = List.sort Tuple.compare l

let bucket_ref r k =
  sorted
    (List.filter (fun t -> Value.equal (Tuple.get t 0) k) (Relation.to_list r))

let check_buckets what r ix =
  List.iter
    (fun k ->
      Alcotest.(check (list tuple_testable))
        (Format.asprintf "%s: bucket %a" what Value.pp k)
        (bucket_ref r k)
        (sorted (Relation.probe ix [| k |])))
    [ v_sym "a"; v_sym "b"; v_sym "c" ]

let test_relation_copy_shares_indexes () =
  let r = Relation.create schema_ab in
  for i = 0 to 29 do
    ignore
      (Relation.add r
         (tup [ v_sym (if i mod 2 = 0 then "a" else "b"); v_int i ]))
  done;
  let ix_r = Relation.index r [| 0 |] in
  let before = Relation.probe ix_r [| v_sym "a" |] in
  let c = Relation.copy r in
  let ix_c = Relation.index c [| 0 |] in
  Alcotest.(check bool) "the copy probes the original's bucket" true
    (Relation.probe ix_c [| v_sym "a" |] == before);
  (* the copy inserts: it keeps the indexes, the original falls behind *)
  ignore (Relation.add c (tup [ v_sym "a"; v_int 100 ]));
  ignore (Relation.add c (tup [ v_sym "c"; v_int 101 ]));
  Alcotest.(check bool) "the copy extends the shared bucket" true
    (List.tl (Relation.probe ix_c [| v_sym "a" |]) == before);
  check_buckets "copy after its adds" c ix_c;
  check_buckets "original through its old handle" r ix_r;
  check_buckets "original through a new handle" r (Relation.index r [| 0 |]);
  (* the original inserts too: each side sees only its own tuples *)
  ignore (Relation.add r (tup [ v_sym "a"; v_int 200 ]));
  check_buckets "original after its add" r ix_r;
  check_buckets "copy after the original's add" c ix_c;
  Alcotest.(check bool) "the copy's tuple is not the original's" false
    (Relation.mem r (tup [ v_sym "a"; v_int 100 ]));
  (* remove on one side, then adds on both *)
  let d = Relation.copy c in
  let ix_d = Relation.index d [| 0 |] in
  ignore (Relation.remove d (tup [ v_sym "a"; v_int 0 ]));
  check_buckets "after remove" d ix_d;
  check_buckets "the remover's source" c ix_c;
  ignore (Relation.add c (tup [ v_sym "b"; v_int 300 ]));
  ignore (Relation.add d (tup [ v_sym "b"; v_int 400 ]));
  check_buckets "source after remove and adds" c ix_c;
  check_buckets "remover after adds" d ix_d;
  (* map_values on one side *)
  let e = Relation.copy c in
  let ix_e = Relation.index e [| 0 |] in
  Relation.map_values e (fun v ->
      if Value.equal v (v_sym "c") then v_sym "b" else v);
  check_buckets "after map_values" e ix_e;
  check_buckets "map_values leaves the source alone" c ix_c;
  ignore (Relation.add c (tup [ v_sym "c"; v_int 500 ]));
  check_buckets "source adds after a copy's map_values" c ix_c;
  check_buckets "rewritten copy after the source's add" e ix_e

(* Random interleavings of copy, add, remove, map_values and probe over
   a family of views agree with a model holding one tuple set per
   view. *)
type view_op =
  | Copy of int
  | Add of int * int * int
  | Remove of int * int * int
  | Map of int
  | Probe of int * int

let prop_copies_never_leak =
  let op_gen =
    QCheck.Gen.(
      frequency
        [ (1, map (fun i -> Copy i) (0 -- 3));
          (6, map3 (fun i a b -> Add (i, a, b)) (0 -- 3) (0 -- 3) (0 -- 9));
          (1, map3 (fun i a b -> Remove (i, a, b)) (0 -- 3) (0 -- 3) (0 -- 9));
          (1, map (fun i -> Map i) (0 -- 3));
          (3, map2 (fun i a -> Probe (i, a)) (0 -- 3) (0 -- 3)) ])
  in
  let print = function
    | Copy i -> Printf.sprintf "copy %d" i
    | Add (i, a, b) -> Printf.sprintf "add %d (%d,%d)" i a b
    | Remove (i, a, b) -> Printf.sprintf "remove %d (%d,%d)" i a b
    | Map i -> Printf.sprintf "map %d" i
    | Probe (i, a) -> Printf.sprintf "probe %d %d" i a
  in
  QCheck.Test.make ~name:"Relation copies never leak tuples" ~count:300
    (QCheck.make ~print:(QCheck.Print.list print)
       QCheck.Gen.(list_size (0 -- 40) op_gen))
    (fun ops ->
      let t a b = tup [ v_int a; v_int b ] in
      let views = ref [ Relation.create schema_ab ] in
      (* handles taken before later copies stay in use *)
      let handles = ref [ Relation.index (List.hd !views) [| 0 |] ] in
      let model = ref [ Tuple.Set.empty ] in
      let nth l i = List.nth l (i mod List.length l) in
      let set i s =
        model := List.mapi (fun j m -> if j = i then s else m) !model
      in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Copy i ->
            let i = i mod List.length !views in
            let c = Relation.copy (List.nth !views i) in
            views := !views @ [ c ];
            handles := !handles @ [ Relation.index c [| 0 |] ];
            model := !model @ [ List.nth !model i ]
          | Add (i, a, b) ->
            let i = i mod List.length !views in
            ignore (Relation.add (List.nth !views i) (t a b));
            set i (Tuple.Set.add (t a b) (List.nth !model i))
          | Remove (i, a, b) ->
            let i = i mod List.length !views in
            ignore (Relation.remove (List.nth !views i) (t a b));
            set i (Tuple.Set.remove (t a b) (List.nth !model i))
          | Map i ->
            (* fold the second column onto 0..4 *)
            let i = i mod List.length !views in
            let f = function Value.Int n -> Value.Int (n mod 5) | v -> v in
            let m = List.nth !model i in
            Relation.map_values (List.nth !views i) f;
            set i
              (Tuple.Set.map
                 (fun tp -> tup [ Tuple.get tp 0; f (Tuple.get tp 1) ])
                 m)
          | Probe (i, a) ->
            let h = nth !handles i and m = nth !model i in
            let got = sorted (Relation.probe h [| v_int a |]) in
            let want =
              Tuple.Set.elements
                (Tuple.Set.filter
                   (fun tp -> Value.equal (Tuple.get tp 0) (v_int a))
                   m)
            in
            if got <> want then ok := false)
        ops;
      !ok
      && List.for_all2
           (fun r m -> Tuple.Set.equal (Relation.to_set r) m)
           !views !model)

let test_instance_declare () =
  let i = Instance.create () in
  let r = Instance.declare i schema_ab in
  Alcotest.(check bool) "same relation back" true
    (r == Instance.declare i schema_ab);
  Alcotest.check_raises "schema clash"
    (Invalid_argument "Instance.declare: schema clash for r") (fun () ->
      ignore (Instance.declare i (Rel_schema.of_names "r" [ "a" ])))

let test_instance_copy_independent () =
  let i = Instance.create () in
  ignore (Instance.declare i schema_ab);
  ignore (Instance.add_tuple i "r" (syms [ "x"; "y" ]));
  let j = Instance.copy i in
  ignore (Instance.add_tuple j "r" (syms [ "p"; "q" ]));
  Alcotest.(check int) "original unchanged" 1
    (Relation.cardinal (Instance.get i "r"));
  Alcotest.(check int) "copy extended" 2
    (Relation.cardinal (Instance.get j "r"));
  Alcotest.(check bool) "equal detects difference" false (Instance.equal i j)

let test_instance_merge () =
  let i = Instance.create () in
  ignore (Instance.declare i schema_ab);
  ignore (Instance.add_tuple i "r" (syms [ "x"; "y" ]));
  let j = Instance.create () in
  ignore (Instance.declare j schema_ab);
  ignore (Instance.add_tuple j "r" (syms [ "p"; "q" ]));
  ignore (Instance.declare j (Rel_schema.of_names "s" [ "c" ]));
  ignore (Instance.add_tuple j "s" (syms [ "z" ]));
  Instance.merge_into ~dst:i ~src:j;
  Alcotest.(check int) "r merged" 2 (Relation.cardinal (Instance.get i "r"));
  Alcotest.(check int) "s created" 1 (Relation.cardinal (Instance.get i "s"));
  Alcotest.(check int) "total" 3 (Instance.total_tuples i)

(* ------------------------------------------------------------------ *)
(* Test relations *)

let rel name rows =
  let arity = match rows with [] -> 0 | r :: _ -> List.length r in
  let schema =
    Rel_schema.of_names name (List.init arity (Printf.sprintf "c%d"))
  in
  Relation.of_tuples schema (List.map syms rows)

(* ------------------------------------------------------------------ *)
(* Table_fmt / Csv_io *)

let test_table_render () =
  let r = rel "t" [ [ "a"; "p" ] ] in
  let s = Table_fmt.render ~title:"T" r in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "has row number" true
    (String.exists (fun c -> c = '1') s);
  let lines = String.split_on_char '\n' s in
  Alcotest.(check bool) "at least 6 lines" true (List.length lines >= 6)

let test_table_render_ragged_rejected () =
  Alcotest.check_raises "ragged"
    (Invalid_argument "Table_fmt.render_rows: row 0 has 1 cells, want 2")
    (fun () -> ignore (Table_fmt.render_rows ~header:[ "a"; "b" ] [ [ "x" ] ]))

(* The tests go through the Result API; the raising wrappers are
   compat-only and covered by test_diag. *)
let parse_csv_exn ~name text =
  match Csv_io.relation_of_string_result ~name text with
  | Ok r -> r
  | Error (e :: _) ->
    Alcotest.failf "CSV parse failed: %s" (Format.asprintf "%a" Csv_io.pp_error e)
  | Error [] -> Alcotest.fail "CSV parse failed with no errors"

let test_csv_roundtrip () =
  let schema = Rel_schema.of_names "m" [ "time"; "patient"; "value" ] in
  let r =
    Relation.of_tuples schema
      [ tup [ v_sym "Sep/5-12:10"; v_sym "Tom Waits"; Value.real 38.2 ];
        tup [ v_sym "Sep/6-11:50"; v_sym "Tom, Waits"; Value.Null 4 ] ]
  in
  let r' = parse_csv_exn ~name:"m" (Csv_io.relation_to_string r) in
  Alcotest.(check int) "cardinal" 2 (Relation.cardinal r');
  Alcotest.(check bool) "tuples preserved" true
    (Tuple.Set.equal (Relation.to_set r) (Relation.to_set r'))

let test_csv_float_spelled_symbols () =
  let schema = Rel_schema.of_names "m" [ "k"; "v" ] in
  let r =
    Relation.of_tuples schema
      (List.mapi (fun i s -> tup [ v_int i; v_sym s ]) float_spelled
      @ [ tup [ v_int 99; Value.real infinity ] ])
  in
  let r' = parse_csv_exn ~name:"m" (Csv_io.relation_to_string r) in
  Alcotest.(check (list tuple_testable)) "tuples preserved"
    (Relation.to_list r) (Relation.to_list r')

let test_csv_quoting () =
  let cell = Csv_io.cell_of_value (v_sym "a,b") in
  Alcotest.(check bool) "comma quoted" true (cell.[0] = '"');
  Alcotest.check value_testable "roundtrip via of_string" (v_sym "a,b")
    (Csv_io.value_of_cell (Value.to_string (v_sym "a,b")))

let test_csv_file_roundtrip () =
  let schema = Rel_schema.of_names "m" [ "a"; "b" ] in
  let r =
    Relation.of_tuples schema
      [ tup [ v_sym "x"; v_int 1 ]; tup [ v_sym "long value, quoted"; v_int 2 ] ]
  in
  let path = Filename.temp_file "mdqa_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv_io.save_relation path r;
      match Csv_io.load_relation_result ~name:"m" path with
      | Error _ -> Alcotest.fail "clean CSV file rejected"
      | Ok r' ->
        Alcotest.(check bool) "roundtrip through a file" true
          (Tuple.Set.equal (Relation.to_set r) (Relation.to_set r')))

let test_csv_malformed () =
  Alcotest.(check bool) "ragged row rejected" true
    (match Csv_io.relation_of_string_result ~name:"m" "a,b\nonly_one\n" with
     | Error _ -> true
     | Ok _ -> false);
  Alcotest.(check bool) "empty input rejected" true
    (match Csv_io.relation_of_string_result ~name:"m" "" with
     | Error _ -> true
     | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Properties *)

let value_gen =
  QCheck.Gen.(
    oneof
      [ map Value.sym (string_size ~gen:(char_range 'a' 'z') (1 -- 6));
        map Value.int (0 -- 1000);
        map (fun n -> Value.Null n) (0 -- 50) ])

let value_arb = QCheck.make ~print:Value.to_string value_gen

let tuple_gen = QCheck.Gen.(map Tuple.of_list (list_size (1 -- 5) value_gen))
let tuple_arb = QCheck.make ~print:(Format.asprintf "%a" Tuple.pp) tuple_gen

let prop_value_compare_total =
  QCheck.Test.make ~name:"Value.compare is antisymmetric" ~count:300
    (QCheck.pair value_arb value_arb) (fun (a, b) ->
      let c = Value.compare a b and c' = Value.compare b a in
      (c = 0) = (c' = 0) && (c > 0) = (c' < 0))

let prop_value_roundtrip =
  QCheck.Test.make ~name:"Value to/of_string roundtrip" ~count:300 value_arb
    (fun v -> Value.equal v (Value.of_string (Value.to_string v)))

let prop_tuple_project_id =
  QCheck.Test.make ~name:"Tuple.project all positions = id" ~count:200
    tuple_arb (fun t ->
      Tuple.equal t (Tuple.project t (List.init (Tuple.arity t) Fun.id)))

let prop_relation_add_idempotent =
  QCheck.Test.make ~name:"Relation insert is idempotent" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_bound 20)
       (QCheck.make QCheck.Gen.(pair (0 -- 5) (0 -- 5))))
    (fun pairs ->
      let schema = Rel_schema.of_names "p" [ "a"; "b" ] in
      let r1 = Relation.create schema and r2 = Relation.create schema in
      List.iter
        (fun (a, b) ->
          let t = tup [ v_int a; v_int b ] in
          ignore (Relation.add r1 t);
          ignore (Relation.add r2 t);
          ignore (Relation.add r2 t))
        pairs;
      Relation.equal r1 r2)

let prop_csv_roundtrip =
  QCheck.Test.make ~name:"CSV relation roundtrip" ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_bound 15)
       (QCheck.pair value_arb value_arb))
    (fun rows ->
      let schema = Rel_schema.of_names "p" [ "a"; "b" ] in
      let r =
        Relation.of_tuples schema (List.map (fun (a, b) -> tup [ a; b ]) rows)
      in
      match Csv_io.relation_of_string_result ~name:"p"
              (Csv_io.relation_to_string r)
      with
      | Error _ -> false
      | Ok r' -> Tuple.Set.equal (Relation.to_set r) (Relation.to_set r'))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_value_compare_total; prop_value_roundtrip; prop_tuple_project_id;
      prop_relation_add_idempotent; prop_csv_roundtrip;
      prop_copies_never_leak ]

let case name f = Alcotest.test_case name `Quick f

let suites =
  [ ( "relational.value",
      [ case "ordering across kinds" test_value_order;
        case "null predicates" test_value_null_predicates;
        case "string roundtrip" test_value_string_roundtrip;
        case "float-spelled symbols stay symbols"
          test_value_float_spelled_symbols;
        case "of_string surface forms" test_value_of_string_forms;
        case "fresh null generator" test_fresh_gen ] );
    ( "relational.tuple",
      [ case "basic access and update" test_tuple_basic;
        case "project and append" test_tuple_project_append;
        case "has_null" test_tuple_has_null;
        case "bounds checking" test_tuple_bounds ] );
    ( "relational.relation",
      [ case "add/mem/cardinal" test_relation_add_mem;
        case "arity enforcement" test_relation_arity_check;
        case "indexed scan" test_relation_scan;
        case "scan after insert" test_relation_scan_after_add;
        case "composite index buckets" test_relation_composite_index;
        case "distinct-count sketch" test_relation_distinct;
        case "map_values merges nulls" test_relation_map_values;
        case "remove" test_relation_remove;
        case "copies share indexes without leaking"
          test_relation_copy_shares_indexes ] );
    ( "relational.instance",
      [ case "declare idempotent + clash" test_instance_declare;
        case "copy independence" test_instance_copy_independent;
        case "merge_into" test_instance_merge ] );
    ( "relational.io",
      [ case "table render" test_table_render;
        case "table ragged rejected" test_table_render_ragged_rejected;
        case "csv roundtrip" test_csv_roundtrip;
        case "csv file roundtrip" test_csv_file_roundtrip;
        case "csv malformed input" test_csv_malformed;
        case "csv quoting" test_csv_quoting;
        case "csv float-spelled symbols" test_csv_float_spelled_symbols ] );
    ("relational.properties", qcheck_cases) ]
