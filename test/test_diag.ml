(* The diagnostics subsystem: golden corpus of malformed inputs, CSV
   error locations, parser recovery, and the no-escaping-exceptions
   property behind [mdqa check].

   Each corpus file under corpus/ embeds its expected report as
   trailing comment lines:

     % EXPECT error E015 @ 5

   and the test asserts that the produced diagnostics — severity, code
   and line, for every severity — match the expectations exactly. *)

open Mdqa_datalog
module R = Mdqa_relational
module Md_parser = Mdqa_context.Md_parser

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let corpus_dir = "corpus"

let corpus_files () =
  Sys.readdir corpus_dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f ->
         Filename.check_suffix f ".mdq" || Filename.check_suffix f ".dl")
  |> List.map (fun f -> Filename.concat corpus_dir f)

(* "% EXPECT error E015 @ 5" -> ("error", "E015", 5) *)
let expectations text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         match String.index_opt line 'E' with
         | Some _ when String.length line > 9 && String.sub line 0 8 = "% EXPECT"
           -> (
           match
             String.split_on_char ' '
               (String.trim (String.sub line 8 (String.length line - 8)))
           with
           | [ sev; code; "@"; ln ] -> Some (sev, code, int_of_string ln)
           | _ -> Alcotest.failf "malformed EXPECT line: %s" line)
         | _ -> None)

let severity_to_string = function
  | Diag.Error -> "error"
  | Diag.Warning -> "warning"
  | Diag.Hint -> "hint"

let check_diags path text =
  if Filename.check_suffix path ".mdq" then
    (Md_parser.check_string ~file:path text).Md_parser.diags
  else (Validate.check_string ~file:path text).Validate.diags

let test_corpus () =
  let files = corpus_files () in
  Alcotest.(check bool)
    "corpus has at least 12 files" true
    (List.length files >= 12);
  List.iter
    (fun path ->
      let text = read_file path in
      let expected = expectations text in
      if expected = [] then
        Alcotest.failf "%s: no EXPECT annotations" path;
      let got =
        List.map
          (fun (d : Diag.t) ->
            (severity_to_string d.Diag.severity, d.Diag.code,
             d.Diag.span.Diag.line))
          (check_diags path text)
      in
      let show (s, c, l) = Printf.sprintf "%s %s @ %d" s c l in
      Alcotest.(check (list string))
        path
        (List.sort compare (List.map show expected))
        (List.sort compare (List.map show got)))
    files

(* The ISSUE's acceptance bar: one multi-error input must yield at
   least two independent errors in a single pass. *)
let test_multi_error () =
  let text = read_file (Filename.concat corpus_dir "syntax_multi.mdq") in
  let diags = (Md_parser.check_string text).Md_parser.diags in
  let errors =
    List.filter (fun d -> d.Diag.severity = Diag.Error) diags
  in
  Alcotest.(check bool)
    "at least 2 independent errors from one input" true
    (List.length errors >= 2);
  let lines =
    List.sort_uniq compare
      (List.map (fun d -> d.Diag.span.Diag.line) errors)
  in
  Alcotest.(check bool) "errors on distinct lines" true
    (List.length lines >= 2)

let test_corpus_never_raises () =
  List.iter
    (fun path ->
      let text = read_file path in
      (* both checkers must accept any input without raising *)
      ignore (Validate.check_string ~file:path text);
      ignore (Md_parser.check_string ~file:path text))
    (corpus_files ())

let test_examples_clean () =
  List.iter
    (fun path ->
      let { Md_parser.diags; parsed } = Md_parser.check_file path in
      (match parsed with
       | Some _ -> ()
       | None -> Alcotest.failf "%s: did not parse" path);
      List.iter
        (fun (d : Diag.t) ->
          if d.Diag.severity <> Diag.Hint then
            Alcotest.failf "%s: unexpected %s: %s" path
              (severity_to_string d.Diag.severity)
              d.Diag.message)
        diags)
    [ "../examples/hospital.mdq"; "../examples/telecom.mdq" ]

(* parse_string must locate its error at the real declaration line —
   the old behavior was [Error { line = 0; _ }] for every semantic
   failure. *)
let test_error_lines () =
  let check_line input want =
    match Md_parser.parse_string input with
    | _ -> Alcotest.fail "expected Md_parser.Error"
    | exception Md_parser.Error { line; _ } ->
      Alcotest.(check int) "error line" want line
  in
  check_line
    "source readings(sensor, value).\nreadings(\"s1\", 17).\ncalib(\"c\").\n"
    3;
  check_line
    "dimension Loc {\n  category Sensor -> Station.\n  member \"x\" in \
     Nowhere.\n}\n"
    3

(* --- parser recovery ------------------------------------------------ *)

let test_recovery_counts () =
  let input =
    "p(a).\nq(X).\np(b).\nr(b) & s(c).\np(c).\n?ans(Y) :- t(Z).\np(d).\n"
  in
  let diags = Diag.collector () in
  let statements = Parser.parse_statements diags input in
  (* the 4 good facts survive; the 3 bad statements each produce
     diagnostics *)
  Alcotest.(check int) "recovered statements" 4 (List.length statements);
  Alcotest.(check bool) "three or more errors" true
    (Diag.error_count diags >= 3)

let test_recovery_no_progress_loop () =
  (* pathological inputs must terminate (forced single-token advance) *)
  List.iter
    (fun input -> ignore (Md_parser.check_string input))
    [ "}"; "}}}}"; "."; "...."; "dimension"; "dimension Loc {";
      "dimension Loc { category }"; ":-"; "p("; "\"unterminated" ]

(* --- CSV ------------------------------------------------------------ *)

let test_csv_row_col () =
  match
    R.Csv_io.relation_of_string_result ~name:"t" "a,b\n\nx\ny,z,w\nu,v\n"
  with
  | Ok _ -> Alcotest.fail "expected ragged-row errors"
  | Error errs ->
    let got =
      List.map (fun (e : R.Csv_io.error) -> (e.R.Csv_io.row, e.R.Csv_io.col)) errs
    in
    (* rows are absolute file lines (header = line 1, blank line
       skipped); col is the first offending cell *)
    Alcotest.(check (list (pair int int))) "error locations"
      [ (3, 2); (4, 3) ] got

let test_csv_empty () =
  (match R.Csv_io.relation_of_string_result ~name:"t" "" with
   | Ok _ -> Alcotest.fail "expected empty-input error"
   | Error [ e ] -> Alcotest.(check int) "row" 1 e.R.Csv_io.row
   | Error _ -> Alcotest.fail "expected exactly one error");
  (* the fail-fast wrapper still raises Failure, for compatibility *)
  (match R.Csv_io.relation_of_string ~name:"t" "" with
   | _ -> Alcotest.fail "expected Failure"
   | exception Failure _ -> ());
  match R.Csv_io.relation_of_string ~name:"t" "a,b\nx\n" with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ()

let test_csv_ok_roundtrip () =
  match R.Csv_io.relation_of_string_result ~name:"t" "a,b\n1,x\n2,y\n" with
  | Error _ -> Alcotest.fail "clean CSV must load"
  | Ok r -> Alcotest.(check int) "rows" 2 (R.Relation.cardinal r)

(* --- collector / presentation --------------------------------------- *)

let test_exit_codes () =
  let e = Diag.make Diag.Error ~code:"E002" "boom" in
  let w = Diag.make Diag.Warning ~code:"W040" "hmm" in
  let h = Diag.make Diag.Hint ~code:"H050" "fyi" in
  Alcotest.(check int) "clean" 0 (Diag.exit_code []);
  Alcotest.(check int) "hints only" 0 (Diag.exit_code [ h ]);
  Alcotest.(check int) "warnings" 2 (Diag.exit_code [ h; w ]);
  Alcotest.(check int) "errors win" 1 (Diag.exit_code [ w; e ])

let test_never_located_at_zero () =
  let d = Diag.make ~line:0 Diag.Error ~code:"E002" "x" in
  Alcotest.(check int) "line clamped to 1" 1 d.Diag.span.Diag.line;
  (* and across the whole corpus *)
  List.iter
    (fun path ->
      let text = read_file path in
      List.iter
        (fun (d : Diag.t) ->
          if d.Diag.span.Diag.line < 1 then
            Alcotest.failf "%s: diagnostic at line %d" path
              d.Diag.span.Diag.line)
        (check_diags path text))
    (corpus_files ())

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_json_report () =
  let text = read_file (Filename.concat corpus_dir "syntax_multi.mdq") in
  let diags = (Md_parser.check_string ~file:"f.mdq" text).Md_parser.diags in
  let json = Diag.to_json ~file:"f.mdq" diags in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Printf.sprintf "json contains %s" sub) true
        (contains json sub))
    [ "\"file\":\"f.mdq\""; "\"diagnostics\":["; "\"severity\":\"error\"";
      "\"code\":\"E002\""; "\"line\":2" ]

(* No input may crash the checkers: random fuzzing over a token-ish
   alphabet. *)
let test_fuzz_never_raises =
  QCheck.Test.make ~count:300 ~name:"checkers never raise"
    QCheck.(
      string_gen_of_size (Gen.int_range 0 60)
        (Gen.oneof
           [ Gen.printable;
             Gen.oneofl
               [ '('; ')'; '{'; '}'; '.'; ','; ':'; '-'; '?'; '!'; '"';
                 '%'; '>'; '='; '\n'; ' ' ] ]))
    (fun s ->
      ignore (Validate.check_string s);
      ignore (Mdqa_context.Md_parser.check_string s);
      true)

(* --- the .mdq front end at scale ---------------------------------- *)

(* Allocation, not time: minor words per input byte of [check_string]
   must not grow with the input.  Scale 80 is about 3.9x the bytes of
   scale 40.  A linear front end reads about 1.04x the words per byte
   there; one with a per-fact list append reads about 2.9x. *)
let test_check_alloc_linear () =
  let module Gen = Mdqa_hospital.Hospital.Gen in
  let words_per_byte n =
    let g = Gen.scale n in
    let text =
      Mdqa_context.Md_pretty.context_to_string ~source:(Gen.source g)
        (Gen.context g)
    in
    let before = Gc.minor_words () in
    let checked = Md_parser.check_string text in
    let words = Gc.minor_words () -. before in
    Alcotest.(check bool)
      (Printf.sprintf "scale %d parses" n)
      true
      (checked.Md_parser.parsed <> None);
    words /. float_of_int (String.length text)
  in
  let w40 = words_per_byte 40 and w80 = words_per_byte 80 in
  if w80 > 1.25 *. w40 then
    Alcotest.failf
      "check_string allocates %.1f words/byte at scale 80 vs %.1f at 40 \
       (> 1.25x)"
      w80 w40

(* Every W043/W044/W045 sits on the line that declares its member or
   (first states) its fact, in a generated file with many of each. *)
let test_warning_lines () =
  let n = 60 in
  let lines = ref [] and expected = ref [] in
  let line text = lines := text :: !lines in
  let expect code subject =
    expected := (code, List.length !lines, subject) :: !expected
  in
  let station j = Printf.sprintf "st%03d" j
  and sensor i = Printf.sprintf "s%03d" i
  and ghost k = Printf.sprintf "g%03d" k in
  line "dimension Loc {";
  line "  category Sensor -> Station.";
  line "  category Station -> Region.";
  line "  member \"r0\" in Region.";
  line "  member \"r1\" in Region.";
  (* even stations roll up to both regions *)
  for j = 0 to (n / 2) - 1 do
    if j mod 2 = 0 then begin
      line (Printf.sprintf "  member %S in Station -> \"r0\", \"r1\"." (station j));
      expect "W043" ("member " ^ station j ^ " ")
    end
    else line (Printf.sprintf "  member %S in Station -> \"r0\"." (station j))
  done;
  (* every third sensor has no station; the others inherit their
     station's strictness *)
  for i = 0 to n - 1 do
    let j = i mod (n / 2) in
    if i mod 3 = 0 then begin
      line (Printf.sprintf "  member %S in Sensor." (sensor i));
      expect "W044" ("member " ^ sensor i ^ " ")
    end
    else begin
      line (Printf.sprintf "  member %S in Sensor -> %S." (sensor i) (station j));
      if j mod 2 = 0 then expect "W043" ("member " ^ sensor i ^ " ")
    end
  done;
  line "}";
  line "relation reading(s in Loc.Sensor, v).";
  for k = 0 to n - 1 do
    line (Printf.sprintf "reading(%S, %d)." (sensor k) k);
    if k mod 2 = 0 then begin
      line (Printf.sprintf "reading(%S, %d)." (ghost k) k);
      expect "W045" (ghost k)
    end
  done;
  (* restating a violating fact adds no warning: W045 keeps the first *)
  for k = 0 to n - 1 do
    if k mod 4 = 0 then line (Printf.sprintf "reading(%S, %d)." (ghost k) k)
  done;
  let text = String.concat "\n" (List.rev !lines) ^ "\n" in
  let checked = Md_parser.check_string text in
  Alcotest.(check bool) "parses" true (checked.Md_parser.parsed <> None);
  let got =
    List.map
      (fun (d : Diag.t) -> (d.Diag.code, d.Diag.span.Diag.line))
      checked.Md_parser.diags
  in
  let want = List.map (fun (code, l, _) -> (code, l)) !expected in
  let show (c, l) = Printf.sprintf "%s @ %d" c l in
  Alcotest.(check (list string))
    "codes and lines"
    (List.sort compare (List.map show want))
    (List.sort compare (List.map show got));
  List.iter
    (fun (d : Diag.t) ->
      let subject =
        List.find_map
          (fun (code, l, subject) ->
            if code = d.Diag.code && l = d.Diag.span.Diag.line then
              Some subject
            else None)
          !expected
      in
      match subject with
      | Some s when contains d.Diag.message s -> ()
      | _ ->
        Alcotest.failf "line %d: %s does not name its subject: %s"
          d.Diag.span.Diag.line d.Diag.code d.Diag.message)
    checked.Md_parser.diags

let suites =
  [ ( "diag.corpus",
      [ Alcotest.test_case "golden corpus" `Quick test_corpus;
        Alcotest.test_case "multi-error accumulation" `Quick test_multi_error;
        Alcotest.test_case "no escaping exceptions" `Quick
          test_corpus_never_raises;
        Alcotest.test_case "examples are clean" `Quick test_examples_clean;
        Alcotest.test_case "semantic errors carry real lines" `Quick
          test_error_lines ] );
    ( "diag.recovery",
      [ Alcotest.test_case "statement resync counts" `Quick
          test_recovery_counts;
        Alcotest.test_case "pathological inputs terminate" `Quick
          test_recovery_no_progress_loop ] );
    ( "diag.csv",
      [ Alcotest.test_case "row and column numbers" `Quick test_csv_row_col;
        Alcotest.test_case "empty input" `Quick test_csv_empty;
        Alcotest.test_case "clean CSV loads" `Quick test_csv_ok_roundtrip ] );
    ( "diag.presentation",
      [ Alcotest.test_case "exit-code convention" `Quick test_exit_codes;
        Alcotest.test_case "never located at line 0" `Quick
          test_never_located_at_zero;
        Alcotest.test_case "json report" `Quick test_json_report;
        QCheck_alcotest.to_alcotest test_fuzz_never_raises ] );
    ( "diag.front_end",
      [ Alcotest.test_case "check allocation linear in the input" `Quick
          test_check_alloc_linear;
        Alcotest.test_case "hierarchy and referential warnings on their lines"
          `Quick test_warning_lines ] ) ]
