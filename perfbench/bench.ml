(* The repository benchmark: the paper's Figure 2 pipeline measured end
   to end and per layer, on three workloads (see README.md for why each
   was chosen and which layers it exercises or bypasses).

     bench.exe --workload W --seed N --seconds S --trace 0|1
               --mdqa PATH --commit ID --nproc N [--quick]

   Inputs are generated from the seed outside the timed region; the
   program under test receives only those inputs (.mdq text, in-memory
   context and update tuples, a .dl file and request lines).  The last
   stdout line is the result object; the line before it is a report
   with the raw figures, the serve tail figures, the host fingerprint
   and sample counts.  [--quick] shrinks every size to a tiny one and
   runs one iteration: the benchmark's own self-check. *)

module R = Mdqa_relational
module Hospital = Mdqa_hospital.Hospital
module Gen = Hospital.Gen
module Context = Mdqa_context.Context
module Md_parser = Mdqa_context.Md_parser
module Md_pretty = Mdqa_context.Md_pretty
module Assessment = Mdqa_context.Assessment
module Repair = Mdqa_context.Repair
module Md_ontology = Mdqa_multidim.Md_ontology
module Profile = Mdqa_obs.Profile
module Service = Mdqa_server.Service
module Protocol = Mdqa_server.Protocol
module Jsonl = Mdqa_server.Jsonl
open Mdqa_datalog

(* ------------------------------------------------------------------ *)
(* Command line *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  mdqa : string;  (** the mdqa CLI executable, for serve *)
  commit : string;
  nproc : int;  (** the host's CPUs, counted before the run was pinned *)
  quick : bool;
}

let parse_args () =
  let a = Sys.argv in
  let get flag =
    let rec find i =
      if i + 1 >= Array.length a then None
      else if a.(i) = flag then Some a.(i + 1)
      else find (i + 1)
    in
    find 1
  in
  let req flag =
    match get flag with
    | Some v -> v
    | None ->
      Printf.eprintf "bench: missing %s\n" flag;
      exit 2
  in
  let int_of flag s =
    match int_of_string_opt s with
    | Some n -> n
    | None ->
      Printf.eprintf "bench: %s wants an integer, got %S\n" flag s;
      exit 2
  in
  { workload = req "--workload";
    seed = int_of "--seed" (req "--seed");
    seconds = float_of_int (int_of "--seconds" (req "--seconds"));
    trace = int_of "--trace" (req "--trace") <> 0;
    mdqa = Option.value (get "--mdqa") ~default:"";
    commit = Option.value (get "--commit") ~default:"unknown";
    nproc =
      (match get "--nproc" with
       | Some n -> int_of "--nproc" n
       | None -> Domain.recommended_domain_count ());
    quick = Array.mem "--quick" a }

(* ------------------------------------------------------------------ *)
(* Measurement helpers *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Nearest-rank quantile; 0 for an empty sample. *)
let quantile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.
let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1048576.

(* Host-speed calibration.  On a shared host each CPU's speed swings by
   a fifth and more, from second to second and from minute to minute,
   and a fixed loop's time swings as much as a whole pipeline's.  A
   fixed kernel that calls no library code is timed before and after
   every measured interval; it allocates and hashes like the measured
   work, which is what makes its time track that work's.  Each interval's
   times are scaled by [calib_ref] over the kernel's time around it:
   seconds on a host where the kernel takes [calib_ref].  The raw times
   are in the report line. *)
let calib_ref = 0.025
let calib = ref []

(* One calibration point: the median of three kernel runs. *)
let calibrate () =
  let ks =
    List.init 3 (fun _ ->
        let t0 = now () in
        let tbl = Hashtbl.create 1024 in
        for i = 0 to 19_999 do
          Hashtbl.replace tbl (string_of_int (i * 7919 mod 20_011)) i
        done;
        let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
        ignore (Sys.opaque_identity (List.sort compare l));
        now () -. t0)
  in
  calib := ks @ !calib;
  median ks

let factor k0 k1 = 2. *. calib_ref /. (k0 +. k1)

(* [f x] for each item in turn, with a calibration point before the
   first and after each; every result comes with the factor that turns
   the wall times measured inside it into reference seconds. *)
let calibrated_each f items =
  let k = ref (calibrate ()) in
  List.map
    (fun x ->
      let r = f x in
      let k1 = calibrate () in
      let fr = factor !k k1 in
      k := k1;
      (r, fr))
    items

(* A time and the factor of the interval it was measured in. *)
type sample = { raw : float; factor : float }

let scaled s = s.raw *. s.factor
let samples factor = List.map (fun raw -> { raw; factor })

(* Set-up is repeated and its median reported, so that work moved into
   set-up shows against a steady figure. *)
let setup_reps quick = if quick then 1 else 3

let measure_setup ~quick build =
  let runs =
    calibrated_each (fun () -> timed build) (List.init (setup_reps quick) ignore)
  in
  ( fst (fst (List.hd (List.rev runs))),
    List.map (fun ((_, raw), factor) -> { raw; factor }) runs )

(* Every operation attempted in the measured window, and every output
   check, is one attempt; a wrong answer or a refused request is a
   failure. *)
let attempted = ref 0
let failed = ref 0

let outcome label ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "bench: check failed: %s\n%!" label
  end

let sorted_tuples ts = List.sort R.Tuple.compare ts

let same_answers a b =
  match (a, b) with
  | Some x, Some y -> sorted_tuples x = sorted_tuples y
  | _ -> false

let qv_set a =
  Option.map R.Relation.to_set (Context.quality_version a "measurements")

let same_qv x y =
  match (x, y) with Some a, Some b -> R.Tuple.Set.equal a b | _ -> false

(* ------------------------------------------------------------------ *)
(* Generated inputs *)

let sym s = Term.Const (R.Value.sym s)
let var = Term.var

(* "Body temperatures of patient p between days d and d+w": the
   doctor's query of the paper, over the original schema. *)
let doctor_query name ~patient ~day ~last_day =
  Query.make ~name
    ~cmps:
      [ Atom.Cmp.make Atom.Cmp.Eq (var "P") (sym (Gen.patient_name patient));
        Atom.Cmp.make Atom.Cmp.Ge (var "T") (sym (Gen.day_name day));
        Atom.Cmp.make Atom.Cmp.Le (var "T") (sym (Gen.day_name last_day ^ "~"))
      ]
    ~head:[ var "T"; var "P"; var "V" ]
    [ Atom.make "measurements" [ var "T"; var "P"; var "V" ] ]

let random_doctor_query rng (g : Gen.params) name =
  let patient = 1 + Random.State.int rng g.Gen.patients in
  let day = 1 + Random.State.int rng g.Gen.days in
  let last_day = min g.Gen.days (day + Random.State.int rng 3) in
  doctor_query name ~patient ~day ~last_day

(* A fact statement of the .mdq text: a top-level line that is neither
   a declaration, a rule, a constraint nor a query. *)
let is_fact_line l =
  let n = String.length l in
  n > 3
  && (match l.[0] with 'a' .. 'z' -> true | _ -> false)
  && String.sub l (n - 2) 2 = ")."
  && (not (String.contains l ':'))
  && not
       (List.exists
          (fun kw ->
            String.length l > String.length kw
            && String.sub l 0 (String.length kw + 1) = kw ^ " ")
          [ "dimension"; "relation"; "source"; "external"; "map"; "quality" ])

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The seed also sets the order of the fact statements. *)
let shuffle_facts rng text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let slots =
    Array.of_list
      (List.filter (fun i -> is_fact_line lines.(i))
         (List.init (Array.length lines) Fun.id))
  in
  let facts = Array.map (fun i -> lines.(i)) slots in
  shuffle rng facts;
  Array.iteri (fun k i -> lines.(i) <- facts.(k)) slots;
  (String.concat "\n" (Array.to_list lines), Array.length slots)

(* ------------------------------------------------------------------ *)
(* Layer calls, each under its span.  The spans sit in the benchmark,
   around the library's public functions. *)

let chase_counts guard (a : Context.assessment) =
  let s = a.Context.chase.Chase.stats in
  [ ("tgd_fires", float_of_int s.Chase.tgd_fires);
    ("nulls", float_of_int s.Chase.nulls_created);
    ("rows", float_of_int (Guard.consumption guard).Guard.rows) ]

let assess_layers ctx ~source =
  let prepared =
    Span.with_span "context.prepare" (fun () -> Context.prepare ctx ~source)
  in
  let guard = Guard.unlimited () in
  Span.with_span "chase" ~counts:(chase_counts guard) (fun () ->
      Context.assess_prepared ~guard ctx ~source ~prepared)

(* Step 6 of the pipeline, and the doctor's reads: one span per query. *)
let answer_all a queries =
  List.map
    (fun (q : Query.t) ->
      (q.Query.name, Span.with_span "query" (fun () -> Context.clean_answers a q)))
    queries

(* ------------------------------------------------------------------ *)
(* Per-layer figures from the recorded spans *)

type layers = {
  spans : Span.t list;
  selfs : (Span.t * float) list;
  root : int -> int;
}

let layers_of spans =
  { spans; selfs = Span.self_times spans; root = Span.root_of spans }

(* Per root operation, the summed self time of the named layer. *)
let per_op_self l name =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ((s : Span.t), self) ->
      if s.Span.name = name then
        let r = l.root s.Span.id in
        Hashtbl.replace tbl r
          ((try Hashtbl.find tbl r with Not_found -> 0.) +. self))
    l.selfs;
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []

let per_call_self l name =
  List.filter_map
    (fun ((s : Span.t), self) -> if s.Span.name = name then Some self else None)
    l.selfs

let counts l name key =
  List.filter_map
    (fun (s : Span.t) ->
      if s.Span.name = name then List.assoc_opt key s.Span.counts else None)
    l.spans


(* The part of the traced end-to-end time that no layer span covers. *)
let uncovered_share l =
  let rs = List.filter (fun ((s : Span.t), _) -> s.Span.parent < 0) l.selfs in
  let total = sum (List.map (fun ((s : Span.t), _) -> s.Span.stop -. s.Span.start) rs) in
  if total <= 0. then 0. else sum (List.map snd rs) /. total

(* Major collections per main operation. *)
let op_majors l = counts l "op" "major_collections"

(* Fires over triggers, and the hottest rule's share of rule time, from
   one profiled assessment outside the timed operations. *)
let profile_assess run =
  let p = Profile.create () in
  Profile.install p;
  Fun.protect ~finally:Profile.uninstall (fun () -> ignore (run ()));
  let snap = Profile.snapshot p in
  let rules = List.map snd snap.Profile.rules in
  let fires = List.fold_left (fun n r -> n + r.Profile.fires) 0 rules in
  let triggers = List.fold_left (fun n r -> n + r.Profile.triggers) 0 rules in
  let secs = List.map (fun r -> r.Profile.rule_seconds) rules in
  let fire_ratio =
    if triggers = 0 then 0. else float_of_int fires /. float_of_int triggers
  in
  let hot = List.fold_left Float.max 0. secs in
  let total = sum secs in
  (fire_ratio, if total <= 0. then 0. else hot /. total)

(* ------------------------------------------------------------------ *)
(* Metric tables: the names and units BENCHMARK.json lists. *)

let end_to_end_units =
  [ ("setup_s", "s"); ("op_p50_ms", "ms"); ("op_per_s", "1/s");
    ("step_p50_ms", "ms"); ("peak_heap_mb", "MB") ]

let per_layer_units =
  [ ("md_parser.check_s", "s"); ("md_parser.alloc_mw", "Mwords");
    ("md_parser.facts_per_s", "1/s"); ("md_ontology.static_s", "s");
    ("context.prepare_s", "s"); ("chase.assess_s", "s");
    ("chase.alloc_mw", "Mwords"); ("chase.tgd_fires", "count");
    ("chase.nulls", "count"); ("chase.fire_ratio", "ratio");
    ("chase.hot_rule_share", "ratio"); ("eval.rows", "count");
    ("eval.rows_per_fire", "ratio"); ("incremental.update_ms", "ms");
    ("incremental.fires_per_update", "count");
    ("assessment.report_s", "s"); ("query.clean_answers_ms", "ms");
    ("parser.parse_s", "s"); ("service.load_s", "s");
    ("service.query_ms", "ms"); ("protocol.codec_us", "us");
    ("server.overhead_ms", "ms"); ("server.queue_ms", "ms");
    ("server.shed", "count"); ("gc.major_collections", "count");
    ("trace.uncovered_share", "ratio"); ("trace.overhead_share", "ratio") ]

type result = {
  setup : sample list;
  ops : sample list;  (** the workload's main operation *)
  rate : sample;  (** main operations per second *)
  steps : sample list;  (** the workload's stream of small steps *)
  heap_mb : float;
  layer : (string * float) list;  (** absent names read 0: layer not called *)
  report : (string * Jsonl.t) list;  (** extra figures, sample counts *)
}

(* The end-to-end metrics, in reference seconds or (with [~raw]) as
   measured.  A rate scales inversely.  The steps' tail goes to the
   report only: on a shared host their p90 spreads by a quarter from
   run to run, too wide to gate. *)
let end_to_end ?(raw = false) r =
  let v s = if raw then s.raw else scaled s in
  let ms ss = List.map (fun s -> 1000. *. v s) ss in
  [ ("setup_s", median (List.map v r.setup));
    ("op_p50_ms", median (ms r.ops));
    ("op_per_s", if raw then r.rate.raw else r.rate.raw /. r.rate.factor);
    ("step_p50_ms", median (ms r.steps));
    ("peak_heap_mb", r.heap_mb);
    ("step_p90_ms", quantile 0.9 (ms r.steps)) ]

(* Main operations per second of operation time. *)
let rate_of ops =
  let raw = sum (List.map (fun s -> s.raw) ops) in
  { raw = float_of_int (List.length ops) /. raw;
    factor = sum (List.map scaled ops) /. raw }

let num x = Jsonl.Num x
let int_num n = Jsonl.Num (float_of_int n)

let peak_heap_mb () = mb_of_words (Gc.quick_stat ()).Gc.top_heap_words

(* The paper's own example, once per run and untimed: hospital.mdq,
   assessed through Repair.assess_repaired, still gives Table II, and
   the doctor's answer is its first row. *)
let check_hospital_example () =
  let ok =
    match Md_parser.parse_file "examples/hospital.mdq" with
    | exception _ -> false
    | p -> (
      match Repair.assess_repaired p.Md_parser.context ~source:p.Md_parser.source with
      | Error _ -> false
      | Ok (a, _) ->
        let table2 = R.Relation.to_set Hospital.expected_measurements_q in
        let doctor =
          List.find_opt (fun (q : Query.t) -> q.Query.name = "doctor")
            p.Md_parser.queries
        in
        same_qv (qv_set a) (Some table2)
        &&
        match doctor with
        | None -> false
        | Some q ->
          same_answers (Context.clean_answers a q)
            (Some [ List.hd (R.Tuple.Set.elements table2) ]))
  in
  outcome "examples/hospital.mdq gives Table II and its first row" ok

let out_dir = "perfbench/out"

let write_spans args =
  if args.trace then begin
    (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Span.write
      (Printf.sprintf "%s/spans-%s-seed%d.json" out_dir args.workload args.seed)
      (Span.spans ())
  end

(* The chase layer's figures, shared by the in-process workloads. *)
let chase_layer l ~fire_ratio ~hot_rule_share =
  let fires = median (counts l "chase" "tgd_fires") in
  let rows = median (counts l "chase" "rows") in
  [ ("chase.assess_s", median (per_op_self l "chase"));
    ("chase.alloc_mw", median (counts l "chase" "minor_words") /. 1e6);
    ("chase.tgd_fires", fires);
    ("chase.nulls", median (counts l "chase" "nulls"));
    ("chase.fire_ratio", fire_ratio);
    ("chase.hot_rule_share", hot_rule_share);
    ("eval.rows", rows);
    ("eval.rows_per_fire", if fires > 0. then rows /. fires else 0.);
    ("context.prepare_s", median (per_op_self l "context.prepare")) ]

(* The main-operation loop: at least [min_ops] operations (one in a
   quick run), then more until the measuring window closes.  [op]
   returns its own time and its small steps' times.  Traced runs trace
   every other operation; the result says which. *)
let measure_ops ?(min_ops = 3) args op =
  let t_end = now () +. args.seconds in
  let rec loop k k0 acc =
    if k >= (if args.quick then 1 else min_ops) && (args.quick || now () >= t_end)
    then List.rev acc
    else begin
      let traced = args.trace && k mod 2 = 0 in
      Span.enabled := traced;
      let t, steps =
        Fun.protect ~finally:(fun () -> Span.enabled := false) op
      in
      let k1 = calibrate () in
      let f = factor k0 k1 in
      loop (k + 1) k1 ((traced, { raw = t; factor = f }, samples f steps) :: acc)
    end
  in
  loop 0 (calibrate ()) []

let ops_of measured = List.map (fun (_, o, _) -> o) measured
let steps_of measured = List.concat_map (fun (_, _, ss) -> ss) measured

(* Tracing overhead: traced against untraced operations of one run. *)
let overhead_share measured =
  let pick tr =
    List.filter_map
      (fun (t, o, _) -> if t = tr then Some (scaled o) else None)
      measured
  in
  let u = median (pick false) and t = pick true in
  if u <= 0. || t = [] then 0. else (median t -. u) /. u

(* ------------------------------------------------------------------ *)
(* mdq-pipeline-160: the [mdqa context] user, from .mdq text to answers *)

(* One pipeline.  Its small step is the time to first output: [mdqa
   context] prints the static reports (steps 1-2) before it chases. *)
let pipeline text =
  let t0 = now () in
  let checked =
    Span.with_span "md_parser" (fun () -> Md_parser.check_string text)
  in
  match checked.Md_parser.parsed with
  | None -> None
  | Some p ->
    let m = p.Md_parser.ontology in
    Span.with_span "md_ontology" (fun () ->
        ignore (Md_ontology.referential_violations m);
        ignore (Md_ontology.classes m);
        ignore (Md_ontology.separability m));
    let first_output = now () -. t0 in
    let a = assess_layers p.Md_parser.context ~source:p.Md_parser.source in
    let qv =
      Span.with_span "assessment" (fun () ->
          let qv = qv_set a in
          ignore (Assessment.report a);
          qv)
    in
    Some (first_output, qv, answer_all a p.Md_parser.queries)

let pipeline_workload args =
  let g = Gen.scale (if args.quick then 20 else 160) in
  let n_queries = if args.quick then 4 else 64 in
  let (ctx, source, queries, text, n_facts), setup =
    measure_setup ~quick:args.quick (fun () ->
        let rng = Random.State.make [| args.seed |] in
        let ctx = Gen.context g and source = Gen.source g in
        let queries =
          List.init n_queries (fun i ->
              random_doctor_query rng g (Printf.sprintf "doctor%02d" i))
        in
        let text, n_facts =
          shuffle_facts rng (Md_pretty.context_to_string ~source ~queries ctx)
        in
        ignore (pipeline text);
        (ctx, source, queries, text, n_facts))
  in
  (* the reference: the in-memory assessment of the same parameters *)
  let ref_qv, ref_answers =
    let a = Context.assess ctx ~source in
    ( qv_set a,
      List.map (fun (q : Query.t) -> (q.Query.name, Context.clean_answers a q))
        queries )
  in
  check_hospital_example ();
  Gc.compact ();
  let measured =
    measure_ops args (fun () ->
        let r, t = timed (fun () -> Span.with_span "op" (fun () -> pipeline text)) in
        let check = "pipeline quality version and answers match the in-memory assessment" in
        match r with
        | None ->
          outcome check false;
          (t, [])
        | Some (first_output, qv, answers) ->
          outcome check
            (same_qv qv ref_qv
            && List.length answers = List.length ref_answers
            && List.for_all
                 (fun (name, ans) ->
                   match List.assoc_opt name ref_answers with
                   | Some expected -> same_answers ans expected
                   | None -> false)
                 answers);
          (t, [ first_output ]))
  in
  let layer =
    if not args.trace then []
    else begin
      let fire_ratio, hot_rule_share =
        profile_assess (fun () ->
            let p = Md_parser.parse_string text in
            Context.assess p.Md_parser.context ~source:p.Md_parser.source)
      in
      let l = layers_of (Span.spans ()) in
      let check_s = median (per_op_self l "md_parser") in
      [ ("md_parser.check_s", check_s);
        ("md_parser.alloc_mw", median (counts l "md_parser" "minor_words") /. 1e6);
        ( "md_parser.facts_per_s",
          if check_s > 0. then float_of_int n_facts /. check_s else 0. );
        ("md_ontology.static_s", median (per_op_self l "md_ontology"));
        ("assessment.report_s", median (per_op_self l "assessment"));
        ("query.clean_answers_ms", 1000. *. median (per_call_self l "query"));
        ("gc.major_collections", median (op_majors l));
        ("trace.uncovered_share", uncovered_share l);
        ("trace.overhead_share", overhead_share measured) ]
      @ chase_layer l ~fire_ratio ~hot_rule_share
    end
  in
  let ops = ops_of measured in
  { setup;
    ops;
    rate = rate_of ops;
    steps = steps_of measured;
    heap_mb = peak_heap_mb ();
    layer;
    report =
      [ ("pipelines", int_num (List.length ops));
        ("mdq_bytes", int_num (String.length text));
        ("mdq_facts", int_num n_facts);
        ("queries_per_pipeline", int_num n_queries) ] }

(* ------------------------------------------------------------------ *)
(* assess-320: the library user, in memory, with incremental updates *)

let assess_op ctx ~source queries =
  Span.with_span "op" (fun () ->
      let a = assess_layers ctx ~source in
      let qv = Span.with_span "assessment" (fun () -> qv_set a) in
      (a, qv, answer_all a queries))

let update_stream a updates =
  List.fold_left
    (fun (prev, times) t ->
      let next, dt =
        timed (fun () ->
            Span.with_span "update" (fun () ->
                Span.with_span "incremental"
                  ~counts:(fun (b : Context.assessment) ->
                    [ ( "tgd_fires",
                        float_of_int b.Context.chase.Chase.stats.Chase.tgd_fires ) ])
                  (fun () ->
                    Context.assess_incremental prev ~added:[ ("measurements", t) ])))
      in
      outcome "update saturates"
        (next.Context.chase.Chase.outcome = Chase.Saturated);
      (next, dt :: times))
    (a, []) updates

(* The update stream is calibrated ten updates at a time: half a second
   each, short enough to follow the host's swings. *)
let rec in_tens = function
  | [] -> []
  | l ->
    let rec split k acc = function
      | x :: rest when k > 0 -> split (k - 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let chunk, rest = split 10 [] l in
    chunk :: in_tens rest

let assess_workload args =
  let g = Gen.scale (if args.quick then 20 else 320) in
  let n_updates = if args.quick then 10 else 100 in
  let build () =
    let rng = Random.State.make [| args.seed |] in
    let ctx = Gen.context g and source = Gen.source g in
    let queries =
      Gen.doctor_query g
      :: List.init 7 (fun i ->
             random_doctor_query rng g (Printf.sprintf "doctor%02d" i))
    in
    (* new readings at instants the Time dimension knows, with values
       no generated reading has *)
    let updates =
      List.init n_updates (fun _ ->
          let p = 1 + Random.State.int rng g.Gen.patients in
          let d = 1 + Random.State.int rng g.Gen.days in
          R.Tuple.of_list
            [ R.Value.sym (Gen.day_name d ^ "-" ^ Gen.patient_name p ^ "-01");
              R.Value.sym (Gen.patient_name p);
              R.Value.real
                (40. +. (float_of_int (Random.State.int rng 1_000_000) /. 1e6)) ])
    in
    let a, _, _ = assess_op ctx ~source queries in
    (ctx, source, queries, updates, a)
  in
  let (ctx, source, queries, updates, base), setup =
    measure_setup ~quick:args.quick build
  in
  check_hospital_example ();
  (* The update stream, chained on the set-up assessment; only its
     times and its final reads outlive it, so the assessments below run
     on a heap that no longer holds the chained instances. *)
  let steps, inc_qv, inc_answers =
    let final = ref base in
    let chunks =
      Span.enabled := args.trace;
      Fun.protect
        ~finally:(fun () -> Span.enabled := false)
        (fun () ->
          calibrated_each
            (fun chunk ->
              let last, times = update_stream !final chunk in
              final := last;
              times)
            (in_tens updates))
    in
    ( List.concat_map (fun (times, f) -> samples f times) chunks,
      qv_set !final,
      List.map (Context.clean_answers !final) queries )
  in
  (* ...then full assessments of the source plus the added tuples, each
     of which must give the incremental quality version and answers *)
  let source' = R.Instance.copy source in
  List.iter
    (fun t -> ignore (R.Instance.add_tuple source' "measurements" t))
    updates;
  Gc.compact ();
  (* two 5-second assessments, so that a run stays under a minute *)
  let measured =
    measure_ops ~min_ops:2 args (fun () ->
        let (_, qv, answers), t =
          timed (fun () -> assess_op ctx ~source:source' queries)
        in
        outcome
          "incremental quality version and answers equal full re-assessment"
          (same_qv qv inc_qv
          && List.for_all2
               (fun (_, x) y -> same_answers x y)
               answers inc_answers);
        (t, []))
  in
  let layer =
    if not args.trace then []
    else begin
      let fire_ratio, hot_rule_share =
        profile_assess (fun () -> Context.assess ctx ~source)
      in
      let l = layers_of (Span.spans ()) in
      [ ("assessment.report_s", median (per_op_self l "assessment"));
        ("query.clean_answers_ms", 1000. *. median (per_call_self l "query"));
        ("incremental.update_ms", 1000. *. median (per_call_self l "incremental"));
        ( "incremental.fires_per_update",
          median (counts l "incremental" "tgd_fires") );
        ("gc.major_collections", median (op_majors l));
        ("trace.uncovered_share", uncovered_share l);
        ("trace.overhead_share", overhead_share measured) ]
      @ chase_layer l ~fire_ratio ~hot_rule_share
    end
  in
  let ops = ops_of measured in
  { setup;
    ops;
    rate = rate_of ops;
    steps;
    heap_mb = peak_heap_mb ();
    layer;
    report =
      [ ("assessments", int_num (List.length ops));
        ("updates", int_num (List.length steps)) ] }

(* ------------------------------------------------------------------ *)
(* serve-320: the warm [mdqa serve] reader over a Unix socket *)

(* Open-loop arrival rate, requests per second.  Fixed once at about
   half the closed-loop serve rate of the default seed (see README.md)
   and not re-tuned afterwards, so open-loop latency stays comparable
   across commits. *)
let open_rate = 100.

let rec retry_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

type conn = {
  fd : Unix.file_descr;
  pending : Buffer.t;  (** bytes of a reply line not yet complete *)
  mutable inflight : (int * float) option;
      (** stream position and the time its latency counts from *)
}

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> { fd; pending = Buffer.create 4096; inflight = None }
  | exception e ->
    Unix.close fd;
    raise e

let send c line =
  let b = Bytes.unsafe_of_string line in
  let rec go off =
    if off < Bytes.length b then
      go (off + retry_eintr (fun () -> Unix.write c.fd b off (Bytes.length b - off)))
  in
  go 0

let chunk = Bytes.create 65536

(* Read what is available; the reply lines it completes. *)
let receive c =
  let n = retry_eintr (fun () -> Unix.read c.fd chunk 0 (Bytes.length chunk)) in
  if n = 0 then failwith "server closed the connection";
  Buffer.add_subbytes c.pending chunk 0 n;
  let s = Buffer.contents c.pending in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some i ->
    Buffer.clear c.pending;
    Buffer.add_string c.pending (String.sub s (i + 1) (String.length s - i - 1));
    String.split_on_char '\n' (String.sub s 0 i)

let rec read_reply c =
  match receive c with l :: _ -> l | [] -> read_reply c

let control sock request =
  let c = connect sock in
  Fun.protect
    ~finally:(fun () -> Unix.close c.fd)
    (fun () ->
      send c (request ^ "\n");
      Jsonl.parse (read_reply c))

type request = {
  line : string;  (** the request as sent *)
  text : string;  (** its query, Q^q in surface syntax *)
  expected : string list list;  (** in-process answers, rendered, sorted *)
}

let rendered answers =
  match Protocol.parse_reply (Protocol.complete_reply ~answers:(Some answers) ()) with
  | Ok { Protocol.answers = Some a; _ } -> List.sort compare a
  | _ -> []

let reply_ok req line =
  match Protocol.parse_reply line with
  | Ok r ->
    r.Protocol.status = "complete"
    && (match r.Protocol.answers with
        | Some a -> List.sort compare a = req.expected
        | None -> false)
  | Error _ -> false

(* Mostly Q^q — the doctor's query for a random patient and day window,
   rewritten to measurements_q — plus a minority of navigation queries
   over patient_unit.  Expected answers come from the in-process
   Context.clean_answers of the same query. *)
let request_pool rng g ctx a n =
  Array.init n (fun i ->
      let q =
        if Random.State.int rng 100 < 85 then
          random_doctor_query rng g (Printf.sprintf "doctor%03d" i)
        else
          let p = 1 + Random.State.int rng g.Gen.patients in
          Query.make ~name:(Printf.sprintf "units%03d" i)
            ~head:[ var "U"; var "D" ]
            [ Atom.make "patient_unit"
                [ var "U"; var "D"; sym (Gen.patient_name p) ] ]
      in
      let text = Pretty.query_to_string (Context.rewrite_query ctx q) in
      let expected =
        match Context.clean_answers a q with
        | Some ts -> rendered ts
        | None -> failwith "reference assessment failed"
      in
      { line =
          Jsonl.to_string
            (Jsonl.Obj
               [ ("kind", Jsonl.Str "query"); ("query", Jsonl.Str text);
                 ("engine", Jsonl.Str "chase") ])
          ^ "\n";
        text;
        expected })

(* The .dl the server loads: the context's program plus the facts of
   the prepared contextual instance. *)
let dl_export ctx ~source =
  let facts = ref [] in
  R.Instance.iter_facts
    (fun pred t ->
      facts :=
        Atom.make pred (List.map (fun v -> Term.Const v) (R.Tuple.to_list t))
        :: !facts)
    (Context.prepare ctx ~source);
  let p = Context.program ctx in
  Pretty.program_to_string
    (Program.make ~tgds:p.Program.tgds ~egds:p.Program.egds ~ncs:p.Program.ncs
       ~facts:(List.rev !facts) ())

let spawn_server args ~dl ~sock =
  (try Sys.remove sock with Sys_error _ -> ());
  let log =
    Unix.openfile (out_dir ^ "/serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close log;
        Unix.close null)
      (fun () ->
        Unix.create_process args.mdqa
          [| args.mdqa; "serve"; dl; "--socket"; sock; "--workers"; "0" |]
          null log log)
  in
  pid

let stop_server pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (retry_eintr (fun () -> Unix.waitpid [] pid))

(* Spawn to the first [ready] reply that says ready. *)
let wait_ready pid sock =
  let deadline = now () +. 150. in
  let rec poll () =
    if now () > deadline then failwith "server not ready within 150s";
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
     | 0, _ -> ()
     | _ -> failwith "server exited before it was ready");
    match control sock {|{"kind":"ready"}|} with
    | Ok j when Jsonl.member "ready" j = Some (Jsonl.Bool true) -> ()
    | _ | (exception Unix.Unix_error _) ->
      Unix.sleepf 0.005;
      poll ()
  in
  poll ()

(* Sum of a metric's samples in the server's exposition. *)
let scrape sock name =
  match control sock {|{"kind":"metrics"}|} with
  | Ok j ->
    let text = Option.value (Jsonl.str_field "exposition" j) ~default:"" in
    List.fold_left
      (fun acc l ->
        match String.split_on_char ' ' l with
        | [ key; v ] ->
          let base =
            match String.index_opt key '{' with
            | Some i -> String.sub key 0 i
            | None -> key
          in
          if base = name then
            acc +. Option.value (float_of_string_opt v) ~default:0.
          else acc
        | _ -> acc)
      0. (String.split_on_char '\n' text)
  | Error _ -> 0.

let inflight_fds conns =
  List.filter_map (fun c -> Option.map (fun _ -> c.fd) c.inflight) conns

(* Wait for replies; hand each (conn, stream position, clock start,
   arrival time, line) to [on_reply]. *)
let collect conns ~timeout on_reply =
  let r, _, _ =
    retry_eintr (fun () -> Unix.select (inflight_fds conns) [] [] timeout)
  in
  List.iter
    (fun c ->
      if List.mem c.fd r then
        List.iter
          (fun line ->
            let t1 = now () in
            match c.inflight with
            | Some (i, t0) ->
              c.inflight <- None;
              on_reply c i t0 t1 line
            | None -> failwith "reply without a request")
          (receive c))
    conns;
  r <> []

type phase = {
  latencies : float list;  (** seconds *)
  replies : (int * string) list;  (** checked after the phase *)
  wall : float;
  lateness : float list;  (** open loop: send time minus due time *)
}

(* Closed loop: each connection sends its next request as soon as the
   previous reply arrives, until [until] has passed and at least
   [min_requests] replies are in. *)
let closed_loop ?(span = false) ?(min_requests = 0) conns stream ~next ~until =
  let lat = ref [] and replies = ref [] and n = ref 0 in
  let t_start = now () in
  let issue c =
    let i = !next in
    incr next;
    c.inflight <- Some (i, now ());
    send c stream.(i mod Array.length stream).line
  in
  List.iter issue conns;
  while inflight_fds conns <> [] do
    if
      not
        (collect conns ~timeout:30. (fun c i t0 t1 line ->
             lat := (t1 -. t0) :: !lat;
             replies := (i, line) :: !replies;
             incr n;
             if span then Span.record "request" ~start:t0 ~stop:t1;
             if t1 < until || !n + List.length conns <= min_requests then
               issue c))
    then failwith "no reply within 30s"
  done;
  { latencies = !lat; replies = !replies; wall = now () -. t_start; lateness = [] }

(* Open loop: request k is due at start + k/rate whatever the replies
   do; latency counts from the due time, so a stall charges every
   request queued behind it.  At most one request is in flight per
   connection; due requests wait for a free one. *)
let open_loop conns stream ~next ~rate ~count =
  let lat = ref [] and replies = ref [] and late = ref [] in
  let t_start = now () +. 0.01 in
  let due k = t_start +. (float_of_int k /. rate) in
  let sent = ref 0 in
  let rec send_due () =
    if !sent < count && due !sent <= now () then
      match List.find_opt (fun c -> c.inflight = None) conns with
      | Some c ->
        let i = !next in
        incr next;
        late := (now () -. due !sent) :: !late;
        c.inflight <- Some (i, due !sent);
        send c stream.(i mod Array.length stream).line;
        incr sent;
        send_due ()
      | None -> ()
  in
  while !sent < count || inflight_fds conns <> [] do
    send_due ();
    let free = List.exists (fun c -> c.inflight = None) conns in
    let timeout =
      if !sent < count && free then Float.max 0. (due !sent -. now ()) else 30.
    in
    if inflight_fds conns = [] then Unix.sleepf timeout
    else if
      (not
         (collect conns ~timeout (fun _ i t0 t1 line ->
              lat := (t1 -. t0) :: !lat;
              replies := (i, line) :: !replies)))
      && timeout >= 30.
    then failwith "no reply within 30s"
  done;
  { latencies = !lat; replies = !replies; wall = now () -. t_start;
    lateness = !late }

let check_replies stream phase =
  List.iter
    (fun (i, line) ->
      outcome "serve answer equals the in-process Context.clean_answers"
        (reply_ok stream.(i mod Array.length stream) line))
    phase.replies

let serve_workload args =
  if args.mdqa = "" then failwith "serve needs --mdqa PATH";
  let g = Gen.scale (if args.quick then 20 else 320) in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let tag = Printf.sprintf "%s/serve-%d" out_dir (Unix.getpid ()) in
  let dl = tag ^ ".dl" and sock = tag ^ ".sock" in
  (* inputs, untimed: the .dl file and the request lines *)
  let rng = Random.State.make [| args.seed |] in
  let ctx = Gen.context g and source = Gen.source g in
  let dl_text = dl_export ctx ~source in
  Out_channel.with_open_bin dl (fun oc -> output_string oc dl_text);
  let pool =
    request_pool rng g ctx (Context.assess ctx ~source)
      (if args.quick then 20 else 200)
  in
  let stream =
    Array.init 50_000 (fun _ -> pool.(Random.State.int rng (Array.length pool)))
  in
  check_hospital_example ();
  Gc.compact ();
  let reps = setup_reps args.quick in
  let server = ref None in
  Fun.protect
    ~finally:(fun () ->
      Option.iter stop_server !server;
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ dl; sock ])
  @@ fun () ->
  let setup =
    calibrated_each
      (fun () ->
        Option.iter stop_server !server;
        let t0 = now () in
        let pid = spawn_server args ~dl ~sock in
        server := Some pid;
        wait_ready pid sock;
        now () -. t0)
      (List.init reps ignore)
    |> List.map (fun (raw, factor) -> { raw; factor })
  in
  let heap = ref (scrape sock "mdqa_process_heap_words") in
  (* one process, as many connections as the host has cores *)
  let conns = List.init args.nproc (fun _ -> connect sock) in
  let next = ref 0 in
  let s = args.seconds in
  let closed_s = if args.quick then 0.2 else 0.5 *. s in
  let closed_n = if args.quick then 10 else 1000 in
  let open_n = if args.quick then 20 else int_of_float (open_rate *. 0.5 *. s) in
  (* Warm-up, answers checked but not timed: right after the load the
     server's major GC is still working off the chase's garbage, and
     its query times settle only after some thousand requests. *)
  let warm =
    closed_loop ~min_requests:closed_n conns stream ~next ~until:(now ())
  in
  check_replies stream warm;
  (* Both loops run in slices with calibration points between them.
     Traced runs trace every other closed-loop slice: the difference is
     the tracing overhead. *)
  let slices = 6 in
  let closed =
    calibrated_each
      (fun k ->
        let traced = args.trace && k mod 2 = 1 in
        Span.enabled := traced;
        Fun.protect
          ~finally:(fun () -> Span.enabled := false)
          (fun () ->
            ( traced,
              closed_loop ~span:traced conns stream ~next
                ~min_requests:(closed_n / slices)
                ~until:(now () +. (closed_s /. float_of_int slices)) )))
      (List.init slices Fun.id)
    |> List.map (fun ((traced, p), f) -> (traced, p, f))
  in
  heap := Float.max !heap (scrape sock "mdqa_process_heap_words");
  let opened =
    calibrated_each
      (fun () ->
        open_loop conns stream ~next ~rate:open_rate ~count:(open_n / slices))
      (List.init slices ignore)
  in
  heap := Float.max !heap (scrape sock "mdqa_process_heap_words");
  let latencies =
    List.concat_map (fun (_, p, f) -> samples f p.latencies) closed
  in
  let closed_wall = sum (List.map (fun (_, p, _) -> p.wall) closed) in
  (* a single connection, one request at a time: the round trip without
     queueing behind the other connection *)
  let probe_n = if args.quick then 10 else 300 in
  let probe_start = !next in
  let single =
    if not args.trace then None
    else begin
      let c = List.hd conns in
      let lat = ref [] in
      for _ = 1 to probe_n do
        let i = !next in
        incr next;
        let t0 = now () in
        send c stream.(i mod Array.length stream).line;
        let line = read_reply c in
        lat := (now () -. t0) :: !lat;
        outcome "serve answer equals the in-process Context.clean_answers"
          (reply_ok stream.(i mod Array.length stream) line)
      done;
      Some !lat
    end
  in
  let shed = scrape sock "mdqa_server_shed_total" in
  List.iter (fun c -> Unix.close c.fd) conns;
  List.iter (fun (_, p, _) -> check_replies stream p) closed;
  List.iter (fun (p, _) -> check_replies stream p) opened;
  if shed > 0. then outcome "no request shed" false;
  let layer =
    match single with
    | None -> []
    | Some single ->
      (* the same probe stream in process: parse, load, answer, codec *)
      Span.enabled := true;
      Fun.protect ~finally:(fun () -> Span.enabled := false) @@ fun () ->
      ignore (Span.with_span "parser" (fun () -> Parser.parse_string dl_text));
      let svc =
        match
          Span.with_span "service.load" (fun () -> Service.load ~program_file:dl ())
        with
        | Ok svc -> svc
        | Error _ -> failwith "in-process Service.load failed"
      in
      for k = 0 to probe_n - 1 do
        let req = stream.((probe_start + k) mod Array.length stream) in
        Span.with_span "op" (fun () ->
            let answers =
              Span.with_span "service" (fun () ->
                  match Service.query svc ~engine:Protocol.Chase req.text with
                  | Service.Answers a -> a
                  | _ ->
                    outcome "in-process Service.query answers completely" false;
                    [])
            in
            Span.with_span "protocol" (fun () ->
                ignore (Protocol.parse_request req.line);
                ignore
                  (Protocol.parse_reply
                     (Protocol.complete_reply ~answers:(Some answers) ()))))
      done;
      Service.close svc;
      let l = layers_of (Span.spans ()) in
      let service = median (per_call_self l "service") in
      let codec = median (per_call_self l "protocol") in
      let rt_single = median single in
      let rt_closed = median (List.map (fun s -> s.raw) latencies) in
      let phase_p50 traced =
        median
          (List.concat_map
             (fun (tr, p, f) ->
               if tr = traced then List.map (fun l -> l *. f) p.latencies
               else [])
             closed)
      in
      let untraced = phase_p50 false in
      [ ("parser.parse_s", median (per_call_self l "parser"));
        ("service.load_s", median (per_call_self l "service.load"));
        ("service.query_ms", 1000. *. service);
        ("protocol.codec_us", 1e6 *. codec);
        ("server.overhead_ms", 1000. *. (rt_single -. service -. codec));
        ("server.queue_ms", 1000. *. (rt_closed -. rt_single));
        ("server.shed", shed);
        ( "gc.major_collections",
          median (counts l "service.load" "major_collections") );
        ( "trace.uncovered_share",
          if rt_closed > 0. then
            Float.max 0. (rt_closed -. service -. codec) /. rt_closed
          else 0. );
        ( "trace.overhead_share",
          if untraced > 0. then (phase_p50 true -. untraced) /. untraced else 0. ) ]
  in
  let lat_raw = List.map (fun s -> s.raw) latencies in
  let olat = List.concat_map (fun (p, f) -> samples f p.latencies) opened in
  let olat_raw = List.map (fun s -> s.raw) olat in
  let closed_factor =
    (* the closed phases' factors, weighted by their replies *)
    sum (List.map scaled latencies) /. sum lat_raw
  in
  { setup;
    ops = latencies;
    rate =
      { raw = float_of_int (List.length latencies) /. closed_wall;
        factor = closed_factor };
    steps = olat;
    heap_mb = mb_of_words (int_of_float !heap);
    layer;
    report =
      [ ("serve_p99_ms", num (1000. *. quantile 0.99 lat_raw));
        ("closed_requests", int_num (List.length lat_raw));
        ("serve_open_p99_ms", num (1000. *. quantile 0.99 olat_raw));
        ( "open_lateness_p99_ms",
          num
            (1000.
            *. quantile 0.99 (List.concat_map (fun (p, _) -> p.lateness) opened)
            ) );
        ("open_rate_per_s", num open_rate);
        ("open_requests", int_num (List.length olat));
        ("connections", int_num (List.length conns));
        ("dl_bytes", int_num (String.length dl_text));
        ("shed", num shed) ] }

(* ------------------------------------------------------------------ *)
(* Output *)

let workloads =
  [ ("mdq-pipeline-160", pipeline_workload); ("assess-320", assess_workload);
    ("serve-320", serve_workload) ]

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.12g" x

let metrics_json table values =
  String.concat ", "
    (List.map
       (fun (name, unit) ->
         let v = Option.value (List.assoc_opt name values) ~default:0. in
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v)
           unit)
       table)

let fingerprint args =
  let gc = Gc.get () in
  Jsonl.Obj
    [ ("nproc", int_num args.nproc);
      ("ocaml", Jsonl.Str Sys.ocaml_version);
      ("commit", Jsonl.Str args.commit);
      ( "gc",
        Jsonl.Obj
          [ ("minor_heap_words", int_num gc.Gc.minor_heap_size);
            ("space_overhead", int_num gc.Gc.space_overhead) ] );
      ("seed", int_num args.seed);
      ("seconds", num args.seconds);
      ("trace", Jsonl.Bool args.trace);
      ("quick", Jsonl.Bool args.quick) ]

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = parse_args () in
  let run =
    match List.assoc_opt args.workload workloads with
    | Some run -> run
    | None ->
      Printf.eprintf "bench: unknown workload %S (want %s)\n" args.workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  let r = run args in
  write_spans args;
  let attempted = !attempted and failed = !failed in
  let named l = Jsonl.Obj (List.map (fun (k, v) -> (k, num v)) l) in
  print_endline
    (Jsonl.to_string
       (Jsonl.Obj
          [ ("workload", Jsonl.Str args.workload);
            ("fingerprint", fingerprint args);
            ( "report",
              Jsonl.Obj
                (r.report
                @ [ ( "error_ratio",
                      num (float_of_int failed /. float_of_int (max 1 attempted))
                    );
                    ("raw", named (end_to_end ~raw:true r));
                    ("scaled", named (end_to_end r));
                    ("calibration_kernel_s", num (median !calib));
                    ("calibration_samples", int_num (List.length !calib)) ]) ) ]));
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (if args.trace then metrics_json per_layer_units r.layer
     else metrics_json end_to_end_units (end_to_end r))
