(* Properties and unit tests for the telemetry subsystem (lib/obs).

   The metrics registry's merge is the load-bearing algebra: snapshots
   taken on different registries (per-run, per-service) must combine
   associatively and commutatively without losing observations, or the
   exposition lies.  The tracer's begin/end pairing must survive
   exceptions, or nesting depths drift and exported traces are
   malformed.  Both are checked with random inputs, alongside direct
   tests of bucketing, exposition rendering, trace export and the
   logger. *)

module Metrics = Mdqa_obs.Metrics
module Trace = Mdqa_obs.Trace
module Logger = Mdqa_obs.Logger
module Jsonl = Mdqa_server.Jsonl

(* --- histogram properties -------------------------------------------- *)

(* Integer-valued observations keep float sums exact, so count/sum
   preservation can be checked with [=]. *)
let obs_list_gen = QCheck.Gen.(list_size (int_bound 40) (int_bound 1000))

let obs_list_arb =
  QCheck.make ~print:QCheck.Print.(list int) obs_list_gen

let snapshot_of obs =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~help:"test histogram" "test_seconds" in
  List.iter (fun v -> Metrics.observe h (float_of_int v)) obs;
  Metrics.snapshot m

let histo snap =
  match Metrics.find_histogram snap "test_seconds" with
  | Some h -> h
  | None -> { Metrics.hcount = 0; hsum = 0.; hbuckets = [] }

let sum_int l = List.fold_left ( + ) 0 l

let prop_merge_commutative =
  QCheck.Test.make ~name:"snapshot merge is commutative" ~count:200
    (QCheck.pair obs_list_arb obs_list_arb) (fun (a, b) ->
      Metrics.merge (snapshot_of a) (snapshot_of b)
      = Metrics.merge (snapshot_of b) (snapshot_of a))

let prop_merge_associative =
  QCheck.Test.make ~name:"snapshot merge is associative" ~count:200
    (QCheck.triple obs_list_arb obs_list_arb obs_list_arb) (fun (a, b, c) ->
      let sa = snapshot_of a and sb = snapshot_of b and sc = snapshot_of c in
      Metrics.merge (Metrics.merge sa sb) sc
      = Metrics.merge sa (Metrics.merge sb sc))

let prop_merge_preserves_count_sum =
  QCheck.Test.make ~name:"merge preserves histogram count and sum" ~count:200
    (QCheck.pair obs_list_arb obs_list_arb) (fun (a, b) ->
      let h = histo (Metrics.merge (snapshot_of a) (snapshot_of b)) in
      h.Metrics.hcount = List.length a + List.length b
      && h.Metrics.hsum = float_of_int (sum_int a + sum_int b)
      && sum_int (List.map snd h.Metrics.hbuckets) = h.Metrics.hcount)

let prop_bucketing =
  QCheck.Test.make ~name:"observations land in their log2 bucket" ~count:200
    QCheck.(float_range 1e-9 1e12) (fun v ->
      let m = Metrics.create () in
      let h = Metrics.histogram m "test_seconds" in
      Metrics.observe h v;
      let snap = Metrics.snapshot m in
      match (histo snap).Metrics.hbuckets with
      | [ (e, 1) ] ->
        v < Metrics.bucket_upper e && v >= Metrics.bucket_upper e /. 2.
      | _ -> false)

(* --- counter properties ---------------------------------------------- *)

let prop_counter_monotone =
  QCheck.Test.make ~name:"counters only go up" ~count:200
    QCheck.(list_of_size Gen.(int_bound 30) (int_bound 100)) (fun incs ->
      let m = Metrics.create () in
      let c = Metrics.counter m "ups_total" in
      List.for_all
        (fun n ->
          let before = Metrics.counter_value c in
          Metrics.add c n;
          Metrics.counter_value c = before + n)
        incs)

let test_counter_rejects_negative () =
  let m = Metrics.create () in
  let c = Metrics.counter m "t_total" in
  Alcotest.check_raises "add -1 raises"
    (Invalid_argument "Metrics.add: negative increment") (fun () ->
      Metrics.add c (-1))

let test_register_kind_clash () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  (match Metrics.gauge m "x" with
  | _ -> Alcotest.fail "re-registering x as a gauge must raise"
  | exception Invalid_argument _ -> ());
  (* same name and kind is idempotent: both handles hit one cell *)
  let c1 = Metrics.counter m "x" and c2 = Metrics.counter m "x" in
  Metrics.inc c1;
  Metrics.inc c2;
  Alcotest.(check int) "shared cell" 2 (Metrics.counter_value c1)

(* --- span nesting under exceptions ----------------------------------- *)

exception Boom

(* A random tree of spans, some of which raise: whatever happens, every
   span closes (depth back to 0), every exported duration is >= 0, and
   the event count equals the number of spans entered. *)
let span_tree_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf = map (fun b -> `Leaf b) bool in
        if n <= 0 then leaf
        else
          frequency
            [ (1, leaf);
              (2,
               map2
                 (fun raises kids -> `Node (raises, kids))
                 bool
                 (list_size (int_bound 3) (self (n / 2)))) ]))

let rec span_count = function
  | `Leaf _ -> 1
  | `Node (_, kids) -> 1 + List.fold_left (fun a k -> a + span_count k) 0 kids

let rec run_tree t =
  match t with
  | `Leaf raises ->
    Trace.with_span "leaf" (fun () -> if raises then raise Boom)
  | `Node (raises, kids) ->
    Trace.with_span "node" (fun () ->
        List.iter (fun k -> try run_tree k with Boom -> ()) kids;
        if raises then raise Boom)

let rec tree_print = function
  | `Leaf b -> Printf.sprintf "L%b" b
  | `Node (b, kids) ->
    Printf.sprintf "N%b(%s)" b (String.concat "," (List.map tree_print kids))

let prop_spans_survive_exceptions =
  QCheck.Test.make ~name:"span begin/end pairs survive exceptions" ~count:200
    (QCheck.make ~print:tree_print span_tree_gen) (fun tree ->
      let tr = Trace.create () in
      Trace.install tr;
      Fun.protect ~finally:Trace.uninstall (fun () ->
          (try run_tree tree with Boom -> ());
          Trace.depth tr = 0
          && List.length (Trace.events tr) = span_count tree
          && List.for_all
               (fun e -> e.Trace.dur >= 0. && e.Trace.depth >= 1)
               (Trace.events tr)))

(* --- trace export ----------------------------------------------------- *)

(* The one escaper every JSON emitter shares: these bytes are what
   every trace, log record, metric, profile, diagnostic report and serve
   reply has always emitted, and the serve codec parses them back. *)
let test_json_escape_bytes () =
  let raw = "q\"b\\s\nn\rr\tt\x01\x1f\x7f\xc3\xa9" in
  let esc = "q\\\"b\\\\s\\nn\\rr\\tt\\u0001\\u001f\x7f\xc3\xa9" in
  Alcotest.(check string) "escape" esc (Mdqa_obs.Json.escape raw);
  let buf = Buffer.create 8 in
  Buffer.add_char buf '<';
  Mdqa_obs.Json.add_escaped buf raw;
  Alcotest.(check string) "add_escaped appends" ("<" ^ esc) (Buffer.contents buf);
  match Jsonl.parse ("\"" ^ esc ^ "\"") with
  | Ok (Jsonl.Str s) -> Alcotest.(check string) "round trip" raw s
  | _ -> Alcotest.fail "escaped string must parse back"

let test_export_is_valid_json () =
  let now = ref 0. in
  let clock () =
    now := !now +. 0.001;
    !now
  in
  let tr = Trace.create ~clock () in
  Trace.install tr;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      Trace.with_span "outer" ~attrs:[ ("k", "v \"quoted\"") ] (fun () ->
          Trace.with_span "inner" (fun () -> ());
          Trace.instant "mark"));
  match Jsonl.parse (Trace.export_json tr) with
  | Error e -> Alcotest.failf "export does not parse: %s" e
  | Ok json ->
    let events =
      match Option.bind (Jsonl.member "traceEvents" json) Jsonl.to_list with
      | Some evs -> evs
      | None -> Alcotest.fail "no traceEvents"
    in
    Alcotest.(check int) "three events" 3 (List.length events);
    List.iter
      (fun ev ->
        Alcotest.(check bool) "has name" true (Jsonl.str_field "name" ev <> None);
        Alcotest.(check bool) "has ts" true (Jsonl.num_field "ts" ev <> None);
        match Jsonl.str_field "ph" ev with
        | Some "X" ->
          Alcotest.(check bool) "X has dur" true
            (match Jsonl.num_field "dur" ev with
            | Some d -> d >= 0.
            | None -> false)
        | Some "i" -> ()
        | other ->
          Alcotest.failf "unexpected ph %s" (Option.value ~default:"-" other))
      events

let test_ring_buffer_drops_oldest () =
  let tr = Trace.create ~capacity:4 () in
  Trace.install tr;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      for i = 1 to 10 do
        Trace.with_span (string_of_int i) (fun () -> ())
      done);
  let names = List.map (fun e -> e.Trace.name) (Trace.events tr) in
  Alcotest.(check (list string)) "keeps the newest" [ "7"; "8"; "9"; "10" ]
    names;
  Alcotest.(check int) "counts the dropped" 6 (Trace.dropped tr)

(* --- prometheus exposition -------------------------------------------- *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_prometheus_exposition () =
  let m = Metrics.create () in
  let c =
    Metrics.counter m ~help:"requests" ~labels:[ ("kind", "query") ]
      "req_total"
  in
  Metrics.add c 3;
  Metrics.set (Metrics.gauge m ~help:"queue depth" "depth") 2.5;
  let h = Metrics.histogram m ~help:"latency" "lat_seconds" in
  Metrics.observe h 0.75;
  Metrics.observe h 3.;
  let text = Metrics.to_prometheus (Metrics.snapshot m) in
  List.iter
    (fun line ->
      Alcotest.(check bool) (Printf.sprintf "exposition has %S" line) true
        (contains text line))
    [ "# TYPE req_total counter";
      "# HELP req_total requests";
      "req_total{kind=\"query\"} 3";
      "depth 2.5";
      "# TYPE lat_seconds histogram";
      "lat_seconds_count 2";
      "lat_seconds_sum 3.75";
      "+Inf\"} 2" ]

(* --- logger ------------------------------------------------------------ *)

let with_captured_logger f =
  let buf = Buffer.create 256 in
  Logger.set_output (fun line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n');
  Logger.set_clock (fun () -> 1754000000.5);
  Fun.protect
    ~finally:(fun () ->
      Logger.set_level Logger.Info;
      Logger.set_json false;
      Logger.set_clock Unix.gettimeofday;
      Logger.set_output (fun line ->
          prerr_string line;
          prerr_newline ();
          flush stderr))
    (fun () -> f buf)

let test_logger_json_and_levels () =
  with_captured_logger @@ fun buf ->
  Logger.set_json true;
  Logger.set_level Logger.Info;
  Logger.debug "suppressed";
  Logger.info
    ~fields:
      [ ("n", Logger.Int 7); ("f", Logger.Float 1.5);
        ("ok", Logger.Bool true); ("s", Logger.Str "a \"b\"") ]
    "served";
  let lines =
    String.split_on_char '\n' (String.trim (Buffer.contents buf))
  in
  Alcotest.(check int) "one record (debug suppressed)" 1 (List.length lines);
  match Jsonl.parse (List.hd lines) with
  | Error e -> Alcotest.failf "JSONL record does not parse: %s" e
  | Ok json ->
    Alcotest.(check (option string)) "level" (Some "info")
      (Jsonl.str_field "level" json);
    Alcotest.(check (option string)) "msg" (Some "served")
      (Jsonl.str_field "msg" json);
    Alcotest.(check (option string)) "string field" (Some "a \"b\"")
      (Jsonl.str_field "s" json);
    Alcotest.(check bool) "ts is ISO8601 UTC" true
      (match Jsonl.str_field "ts" json with
      | Some ts ->
        String.length ts = 24
        && ts.[4] = '-' && ts.[10] = 'T' && ts.[23] = 'Z'
      | None -> false)

let test_logger_text_format () =
  with_captured_logger @@ fun buf ->
  Logger.set_level Logger.Warn;
  Logger.info "suppressed";
  Logger.warn ~fields:[ ("addr", Logger.Str "a b") ] "listening";
  let line = String.trim (Buffer.contents buf) in
  Alcotest.(check bool) "has level" true (contains line " warn ");
  Alcotest.(check bool) "has message" true (contains line "listening");
  Alcotest.(check bool) "quotes spaced values" true
    (contains line "addr=\"a b\"")

let test_level_of_string () =
  List.iter
    (fun (s, expect) ->
      Alcotest.(check bool) s true (Logger.level_of_string s = expect))
    [ ("debug", Some Logger.Debug); ("warning", Some Logger.Warn);
      ("ERROR", Some Logger.Error); ("loud", None) ]

(* --- profiler properties ---------------------------------------------- *)

module Profile = Mdqa_obs.Profile

(* Snapshots are generated by replaying op scripts against a collector
   with a fake integer clock, so every accumulated duration is an exact
   float and merge algebra can be checked with [=].  The ops exercise
   every table: rule counters, scoped atom visits, rounds, queries and
   phases. *)
let profile_snapshot_of ops =
  let tick = ref 0. in
  let clock () = !tick in
  let p = Profile.create ~clock () in
  Profile.install p;
  Fun.protect ~finally:Profile.uninstall @@ fun () ->
  List.iter
    (fun n ->
      let rname = Printf.sprintf "r%d" (n mod 3) in
      let h = Profile.rule p rname in
      match n mod 7 with
      | 0 -> Profile.add_trigger h
      | 1 -> Profile.add_fire h
      | 2 -> Profile.add_matches h (n mod 5)
      | 3 -> Profile.add_rule_seconds h (float_of_int (n mod 9))
      | 4 ->
        Profile.with_scope p rname (fun () ->
            Profile.atom_visit p ~idx:(n mod 2) ~pred:"p"
              ~scanned:(n mod 11) ~matched:(n mod 4))
      | 5 ->
        Profile.with_round (n mod 4) (fun () ->
            tick := !tick +. float_of_int (n mod 6))
      | _ ->
        Profile.with_query
          (Printf.sprintf "q%d" (n mod 2))
          (fun () -> tick := !tick +. 1.))
    ops;
  Profile.snapshot p

(* Structural equality, ignoring GC readings: the [with_round] op
   samples the real [Gc.quick_stat], so two replays of the same script
   may legitimately observe different collection counts.  The algebra
   under test (counter and duration combination) is unaffected. *)
let strip_gc (s : Profile.snapshot) =
  { s with
    Profile.rounds =
      List.map
        (fun (n, (r : Profile.round_stat)) ->
          ( n,
            { r with
              Profile.minor_collections = 0; major_collections = 0;
              heap_words = 0 } ))
        s.Profile.rounds }

let prop_profile_merge_commutative =
  QCheck.Test.make ~name:"profile merge is commutative" ~count:200
    (QCheck.pair obs_list_arb obs_list_arb) (fun (a, b) ->
      let sa = profile_snapshot_of a and sb = profile_snapshot_of b in
      Profile.merge sa sb = Profile.merge sb sa)

let prop_profile_merge_associative =
  QCheck.Test.make ~name:"profile merge is associative" ~count:200
    (QCheck.triple obs_list_arb obs_list_arb obs_list_arb) (fun (a, b, c) ->
      let sa = profile_snapshot_of a
      and sb = profile_snapshot_of b
      and sc = profile_snapshot_of c in
      Profile.merge (Profile.merge sa sb) sc
      = Profile.merge sa (Profile.merge sb sc))

let prop_profile_merge_identity =
  QCheck.Test.make ~name:"empty is the merge identity" ~count:200
    obs_list_arb (fun a ->
      let s = profile_snapshot_of a in
      Profile.merge s Profile.empty = s
      && Profile.merge Profile.empty s = s)

let prop_profile_merge_counts_sum =
  QCheck.Test.make ~name:"merge sums counters and durations" ~count:200
    (QCheck.pair obs_list_arb obs_list_arb) (fun (a, b) ->
      let sa = strip_gc (profile_snapshot_of a)
      and sb = strip_gc (profile_snapshot_of b) in
      let m = Profile.merge sa sb in
      let rule_fires (s : Profile.snapshot) =
        sum_int (List.map (fun (_, r) -> r.Profile.fires) s.Profile.rules)
      and atom_scans (s : Profile.snapshot) =
        sum_int (List.map (fun (_, a) -> a.Profile.scanned) s.Profile.atoms)
      and query_evals (s : Profile.snapshot) =
        sum_int (List.map (fun (_, q) -> q.Profile.evals) s.Profile.queries)
      in
      rule_fires m = rule_fires sa + rule_fires sb
      && atom_scans m = atom_scans sa + atom_scans sb
      && query_evals m = query_evals sa + query_evals sb
      && Profile.total_rule_seconds m
         = Profile.total_rule_seconds sa +. Profile.total_rule_seconds sb
      && Profile.total_query_seconds m
         = Profile.total_query_seconds sa +. Profile.total_query_seconds sb)

let prop_profile_json_parses =
  QCheck.Test.make ~name:"to_json is valid JSON with all sections"
    ~count:100 obs_list_arb (fun a ->
      let s = profile_snapshot_of a in
      match Jsonl.parse (Profile.to_json s) with
      | Error _ -> false
      | Ok json ->
        List.for_all
          (fun k -> Jsonl.member k json <> None)
          [ "rules"; "atoms"; "rounds"; "queries"; "phases" ])

let test_profile_scope_discipline () =
  let p = Profile.create ~clock:(fun () -> 0.) () in
  Profile.install p;
  Fun.protect ~finally:Profile.uninstall @@ fun () ->
  Alcotest.(check bool) "no scope outside with_scope" true
    (Profile.scoped () = None);
  (* an unscoped visit must attribute nothing *)
  Profile.atom_visit p ~idx:0 ~pred:"p" ~scanned:5 ~matched:2;
  Alcotest.(check int) "unscoped visit dropped" 0
    (List.length (Profile.snapshot p).Profile.atoms);
  Profile.with_scope p "r" (fun () ->
      Alcotest.(check bool) "scoped inside" true (Profile.scoped () <> None);
      Profile.atom_visit p ~idx:1 ~pred:"q" ~scanned:3 ~matched:3);
  Alcotest.(check bool) "scope restored" true (Profile.scoped () = None);
  match Profile.find_atom (Profile.snapshot p) ("r", 1, "q") with
  | Some a ->
    Alcotest.(check int) "scanned" 3 a.Profile.scanned;
    Alcotest.(check int) "matched" 3 a.Profile.matched
  | None -> Alcotest.fail "scoped visit not attributed"

let test_profile_off_is_transparent () =
  Alcotest.(check bool) "inactive by default" false (Profile.active ());
  (* the with_* hooks must reduce to plain calls when off *)
  let r = Profile.with_round 1 (fun () -> Profile.with_phase "x" (fun () -> 41 + 1)) in
  Alcotest.(check int) "value passes through" 42 r

(* The acceptance pin: profiling the paper's hospital assessment must
   attribute positive time to every rule provenance says derived a
   known quality fact.  A fake strictly-increasing clock makes "every
   enumerated rule accrues time" deterministic — no dependence on
   wall-clock resolution. *)
let test_profile_attributes_hospital_rules () =
  let module Context = Mdqa_context.Context in
  let module Hospital = Mdqa_hospital.Hospital in
  let module Explain = Mdqa_datalog.Explain in
  let module R = Mdqa_relational in
  let tick = ref 0. in
  let p = Profile.create ~clock:(fun () -> tick := !tick +. 1.; !tick) () in
  Profile.install p;
  Fun.protect ~finally:Profile.uninstall @@ fun () ->
  let a =
    Context.assess ~provenance:true (Hospital.context ())
      ~source:(Hospital.source ())
  in
  let snap = Profile.snapshot p in
  let row =
    R.Tuple.of_list
      [ R.Value.sym "Sep/5-12:10"; R.Value.sym "Tom Waits";
        R.Value.real 38.2 ]
  in
  match Context.explain a "measurements" row with
  | Error e -> Alcotest.fail e
  | Ok tree ->
    let used = Explain.rules_used tree in
    Alcotest.(check bool) "provenance names rules" true (used <> []);
    List.iter
      (fun rule ->
        match Profile.find_rule snap rule with
        | None -> Alcotest.failf "no profile entry for rule %s" rule
        | Some r ->
          Alcotest.(check bool)
            (Printf.sprintf "%s accrued time" rule)
            true
            (r.Profile.rule_seconds > 0.))
      used;
    Alcotest.(check bool) "chase phase recorded" true
      (Profile.find_phase snap "chase" <> None);
    Alcotest.(check bool) "assess phase recorded" true
      (Profile.find_phase snap "assess" <> None)

(* A profiled assessment of the scaled hospital (20 patients), with
   the context it ran under. *)
let profiled_hospital_assessment () =
  let module Context = Mdqa_context.Context in
  let module Hospital = Mdqa_hospital.Hospital in
  let g = Hospital.Gen.scale 20 in
  let ctx = Hospital.Gen.context g in
  let p = Profile.create () in
  Profile.install p;
  Fun.protect ~finally:Profile.uninstall @@ fun () ->
  let a = Context.assess ctx ~source:(Hospital.Gen.source g) in
  (ctx, a, Profile.snapshot p)

(* The chase's delta invariant: on a saturated chase with no EGD
   merges, each rule enumerates every body match of the final instance
   exactly once — no match is re-enumerated in a later round. *)
let test_profile_matches_enumerated_once () =
  let module Context = Mdqa_context.Context in
  let module Chase = Mdqa_datalog.Chase in
  let module Eval = Mdqa_datalog.Eval in
  let ctx, a, snap = profiled_hospital_assessment () in
  let chase = a.Context.chase in
  Alcotest.(check bool) "saturated" true
    (chase.Chase.outcome = Chase.Saturated);
  Alcotest.(check int) "no EGD merges" 0 chase.Chase.stats.Chase.egd_merges;
  List.iter
    (fun (tgd : Mdqa_datalog.Tgd.t) ->
      let body = tgd.Mdqa_datalog.Tgd.body in
      let distinct = List.length (Eval.answers chase.Chase.instance body) in
      let matches =
        match Profile.find_rule snap tgd.Mdqa_datalog.Tgd.name with
        | Some r -> r.Profile.matches
        | None -> 0
      in
      Alcotest.(check int)
        (tgd.Mdqa_datalog.Tgd.name ^ ": matches = distinct body matches")
        distinct matches)
    (Context.program ctx).Mdqa_datalog.Program.tgds

(* [scanned] counts the candidates walked: the exact bucket of the
   composite index on the bound positions (or the delta set).  So an
   atom joined on its bound positions reads selectivity 1, and only a
   filter no index expresses brings it below 1: a repeated variable,
   or the semi-naive exclusion of delta facts. *)
let test_profile_scanned_is_bucket () =
  let module R = Mdqa_relational in
  let module Eval = Mdqa_datalog.Eval in
  let module Atom = Mdqa_datalog.Atom in
  let module Term = Mdqa_datalog.Term in
  let _, _, snap = profiled_hospital_assessment () in
  (match Profile.find_atom snap ("measurements_q_gen", 2, "patient_unit") with
   | None -> Alcotest.fail "patient_unit not attributed"
   | Some a ->
     Alcotest.(check bool) "patient_unit matched" true (a.Profile.matched > 0);
     Alcotest.(check int) "patient_unit: exact bucket, selectivity 1"
       a.Profile.scanned a.Profile.matched);
  let sym = R.Value.sym and v = Term.var in
  let inst = R.Instance.create () in
  List.iter
    (fun (p, rows) ->
      ignore
        (R.Instance.declare inst
           (R.Rel_schema.of_names p
              (List.init (List.length (List.hd rows)) (Printf.sprintf "c%d"))));
      List.iter
        (fun row ->
          ignore
            (R.Instance.add_tuple inst p (R.Tuple.of_list (List.map sym row))))
        rows)
    [ ("r", [ [ "a"; "a" ]; [ "a"; "b" ]; [ "b"; "b" ]; [ "c"; "a" ] ]);
      ("s", [ [ "a" ]; [ "b" ] ]) ];
  let profiled name f =
    let p = Profile.create () in
    Profile.install p;
    Fun.protect ~finally:Profile.uninstall (fun () ->
        ignore (Profile.with_scope p name f));
    Profile.snapshot p
  in
  let atom snap name i pred =
    match Profile.find_atom snap (name, i, pred) with
    | Some a -> (a.Profile.scanned, a.Profile.matched)
    | None -> Alcotest.failf "%s[%d] not attributed" name i
  in
  (* s(Y) binds Y, then r(Y, Z) walks r's bucket for each Y. *)
  let body = [ Atom.make "s" [ v "Y" ]; Atom.make "r" [ v "Y"; v "Z" ] ] in
  let snap = profiled "join" (fun () -> Eval.answers inst body) in
  let bucket y =
    List.length (R.Relation.scan (R.Instance.get inst "r") [ (0, sym y) ])
  in
  Alcotest.(check (pair int int)) "r: scanned = probed buckets = matched"
    (bucket "a" + bucket "b", bucket "a" + bucket "b")
    (atom snap "join" 1 "r");
  Alcotest.(check (list string)) "join plan"
    [ "[0] s scan > [1] r index{0}" ]
    (Profile.find_plans snap "join");
  (* A constant compared for equality drives the index. *)
  let snap =
    profiled "pushdown" (fun () ->
        Eval.answers
          ~cmps:[ Atom.Cmp.make Atom.Cmp.Eq (Term.sym "a") (v "Y") ]
          inst [ Atom.make "r" [ v "Y"; v "Z" ] ])
  in
  Alcotest.(check (list string)) "Y = a probes r's index on Y"
    [ "[0] r index{0}" ]
    (Profile.find_plans snap "pushdown");
  Alcotest.(check (pair int int)) "pushdown walks one bucket" (2, 2)
    (atom snap "pushdown" 0 "r");
  let snap =
    profiled "diag" (fun () ->
        Eval.answers inst [ Atom.make "r" [ v "X"; v "X" ] ])
  in
  Alcotest.(check (pair int int)) "r(X, X): 4 scanned, 2 on the diagonal"
    (4, 2) (atom snap "diag" 0 "r");
  let delta = function
    | "r" -> R.Tuple.Set.singleton (R.Tuple.of_list [ sym "a"; sym "b" ])
    | _ -> R.Tuple.Set.singleton (R.Tuple.of_list [ sym "b" ])
  in
  let snap =
    profiled "delta" (fun () ->
        Eval.delta_answers inst ~delta
          [ Atom.make "r" [ v "X"; v "Y" ]; Atom.make "s" [ v "Y" ] ])
  in
  let scanned, matched = atom snap "delta" 0 "r" in
  Alcotest.(check bool)
    (Printf.sprintf "delta exclusion: %d of %d kept" matched scanned)
    true
    (matched > 0 && matched < scanned)

(* --- stats sidecar ----------------------------------------------------- *)

module Stats = Mdqa_store.Stats

let with_tmp_sidecar f =
  let store = Filename.temp_file "mdqa_stats" ".store" in
  let path = Stats.path_of store in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ store; path ])
    (fun () -> f ~store ~path)

let prop_stats_roundtrip =
  QCheck.Test.make ~name:"sidecar write/read round-trips" ~count:50
    obs_list_arb (fun ops ->
      let snap = profile_snapshot_of ops in
      with_tmp_sidecar (fun ~store:_ ~path ->
          Stats.write ~path snap;
          Stats.read ~path = Ok snap))

let prop_stats_corruption_detected =
  QCheck.Test.make ~name:"every single-byte flip is rejected" ~count:10
    obs_list_arb (fun ops ->
      let snap = profile_snapshot_of ops in
      with_tmp_sidecar (fun ~store:_ ~path ->
          Stats.write ~path snap;
          let ic = open_in_bin path in
          let raw =
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          let ok = ref true in
          String.iteri
            (fun i c ->
              let damaged = Bytes.of_string raw in
              Bytes.set damaged i (Char.chr (Char.code c lxor 0x40));
              let oc = open_out_bin path in
              output_bytes oc damaged;
              close_out oc;
              match Stats.read ~path with
              | Error _ -> ()
              | Ok _ -> ok := false)
            raw;
          !ok))

let test_stats_record_accumulates () =
  let s1 = profile_snapshot_of [ 0; 1; 2; 3; 17 ]
  and s2 = profile_snapshot_of [ 7; 8; 9; 10; 24 ] in
  with_tmp_sidecar (fun ~store ~path ->
      Stats.record ~store s1;
      Stats.record ~store s2;
      match Stats.read ~path with
      | Error e -> Alcotest.fail e
      | Ok got ->
        Alcotest.(check bool) "merge of both runs" true
          (got = Profile.merge s1 s2))

let test_stats_read_absent_and_truncated () =
  with_tmp_sidecar (fun ~store:_ ~path ->
      (try Sys.remove path with Sys_error _ -> ());
      Alcotest.(check bool) "absent file is an error, not a crash" true
        (match Stats.read ~path with Error _ -> true | Ok _ -> false);
      let oc = open_out_bin path in
      output_string oc "MDQA";
      close_out oc;
      Alcotest.(check bool) "truncated header rejected" true
        (match Stats.read ~path with Error _ -> true | Ok _ -> false))

(* A damaged (or healthy) sidecar must be invisible to store triage:
   fsck walks the snapshot, journal and generations, never [path.stats]. *)
let test_stats_opaque_to_fsck () =
  let module Store = Mdqa_store.Store in
  let module Fsck = Mdqa_store.Fsck in
  let dir = Filename.temp_file "mdqa_fsck_stats" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "s.store" in
  let guard = Mdqa_datalog.Guard.unlimited () in
  let program_text = "p(a). q(X) :- p(X)." in
  let program = (Mdqa_datalog.Parser.parse_string program_text).Mdqa_datalog.Parser.program in
  let store =
    Store.create ~guard ~path ~program_text ~variant:Mdqa_datalog.Chase.Restricted ()
  in
  ignore
    (Mdqa_datalog.Chase.run ~guard ~checkpoint:(Store.checkpoint store)
       program (Mdqa_relational.Instance.create ()));
  let oc = open_out_bin (Stats.path_of path) in
  output_string oc "garbage, not a valid sidecar at all";
  close_out oc;
  let report = Fsck.check ~path in
  Alcotest.(check bool) "store stays clean under a damaged sidecar" true
    (report.Fsck.status = Fsck.Clean)

(* ---------------------------------------------------------------------- *)

let case name f = Alcotest.test_case name `Quick f

let props = List.map QCheck_alcotest.to_alcotest

let suites =
  [ ( "obs.metrics",
      props
        [ prop_merge_commutative; prop_merge_associative;
          prop_merge_preserves_count_sum; prop_bucketing;
          prop_counter_monotone ]
      @ [ case "add rejects negative" test_counter_rejects_negative;
          case "registration kind clash" test_register_kind_clash;
          case "prometheus exposition" test_prometheus_exposition ] );
    ( "obs.trace",
      props [ prop_spans_survive_exceptions ]
      @ [ case "one JSON string escaper" test_json_escape_bytes;
          case "export is valid trace JSON" test_export_is_valid_json;
          case "ring buffer drops oldest" test_ring_buffer_drops_oldest ] );
    ( "obs.logger",
      [ case "JSONL records and level filtering" test_logger_json_and_levels;
        case "text format" test_logger_text_format;
        case "level parsing" test_level_of_string ] );
    ( "obs.profile",
      props
        [ prop_profile_merge_commutative; prop_profile_merge_associative;
          prop_profile_merge_identity; prop_profile_merge_counts_sum;
          prop_profile_json_parses ]
      @ [ case "scope discipline" test_profile_scope_discipline;
          case "off is transparent" test_profile_off_is_transparent;
          case "hospital assessment attributes every used rule"
            test_profile_attributes_hospital_rules;
          case "each body match enumerated once"
            test_profile_matches_enumerated_once;
          case "scanned counts the probed bucket"
            test_profile_scanned_is_bucket ] );
    ( "obs.stats",
      props [ prop_stats_roundtrip; prop_stats_corruption_detected ]
      @ [ case "record accumulates across runs" test_stats_record_accumulates;
          case "absent and truncated sidecars are errors"
            test_stats_read_absent_and_truncated;
          case "fsck treats the sidecar as opaque" test_stats_opaque_to_fsck ] ) ]
