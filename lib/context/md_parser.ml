open Mdqa_datalog
open Mdqa_multidim
module R = Mdqa_relational
module Raw = Parser.Raw

type parsed = {
  ontology : Md_ontology.t;
  context : Context.t;
  source : R.Instance.t;
  queries : Query.t list;
}

type checked = {
  parsed : parsed option;
  diags : Diag.t list;
}

exception Error of { line : int; message : string }

(* Intermediate, pre-assembly representation of the declarations.
   Every item carries the position of its declaration, so each
   validation failure is reported at its real source line — never at
   line 0.  The parser conses each item onto its list and reverses
   every list once when its block ends, so the lists below are in
   declaration order once [collect] returns. *)
type dim_decl = {
  dim_name : string;
  dim_pos : Lexer.pos;
  mutable cat_edges : (string * string * Lexer.pos) list;  (* child, parent *)
  mutable standalone : (string * Lexer.pos) list;
  mutable dmembers : (string * string * Lexer.pos) list;  (* member, category *)
  mutable links : (string * string * Lexer.pos) list;
      (* child member, parent member *)
}

type decls = {
  mutable dims : dim_decl list;
  mutable relations : (R.Rel_schema.t * Lexer.pos) list;
  mutable sources : (R.Rel_schema.t * Lexer.pos) list;
  mutable externals : (R.Rel_schema.t * Lexer.pos) list;
  mutable maps : (string * string * Lexer.pos) list;
  mutable qualities : (string * string * Lexer.pos) list;
  mutable facts : (Atom.t * Lexer.pos) list;
  mutable tgds : (Tgd.t * Lexer.pos) list;
  mutable egds : (Egd.t * Lexer.pos) list;
  mutable ncs : (Nc.t * Lexer.pos) list;
  mutable queries : (Query.t * Lexer.pos) list;
}

let fail st message = Raw.error st message

(* a name usable as a category / member / dimension *)
let name_token st what =
  match Raw.peek st with
  | Lexer.VAR s, _ | Lexer.IDENT s, _ | Lexer.STRING s, _ ->
    Raw.advance st;
    s
  | t, _ ->
    fail st
      (Printf.sprintf "expected %s, found %s" what (Lexer.token_to_string t))

let dotted_category st =
  let s = name_token st "Dimension.Category" in
  match String.split_on_char '.' s with
  | [ d; c ] when d <> "" && c <> "" -> (d, c)
  | _ ->
    fail st
      (Printf.sprintf "expected Dimension.Category, found %S" s)

let comma_list st parse_one =
  let rec go acc =
    let x = parse_one st in
    match Raw.peek st with
    | Lexer.COMMA, _ ->
      Raw.advance st;
      go (x :: acc)
    | _ -> List.rev (x :: acc)
  in
  go []

let keyword st = function
  | Lexer.IDENT k -> (
    match k with
    | "dimension" | "relation" | "source" | "external" | "map" | "quality"
    | "category" | "member" ->
      (* a declaration only when not immediately a predicate call *)
      (match Raw.peek2 st with Lexer.LPAREN -> None | _ -> Some k)
    | _ -> None)
  | _ -> None

let record_parse_error ?file diags (pe : exn) =
  match pe with
  | Parser.Error { line; col; code; message } ->
    Diag.error diags ?file ~line ~col ~code message
  | e -> raise e

let parse_dimension st ?file diags decls ~start =
  Raw.advance st (* 'dimension' *);
  let dim_name = name_token st "a dimension name" in
  Raw.expect st Lexer.LBRACE "'{'";
  let d =
    { dim_name; dim_pos = start; cat_edges = []; standalone = [];
      dmembers = []; links = [] }
  in
  let item () =
    match Raw.peek st with
    | Lexer.IDENT "category", pos ->
      Raw.advance st;
      let child = name_token st "a category name" in
      (match Raw.peek st with
       | Lexer.ARROW, _ ->
         Raw.advance st;
         let parents = comma_list st (fun st -> name_token st "a category") in
         d.cat_edges <-
           List.fold_left (fun acc p -> (child, p, pos) :: acc) d.cat_edges
             parents
       | _ -> d.standalone <- (child, pos) :: d.standalone);
      Raw.expect st Lexer.PERIOD "'.'"
    | Lexer.IDENT "member", pos ->
      Raw.advance st;
      let m = name_token st "a member name" in
      (match Raw.peek st with
       | Lexer.IDENT "in", _ -> Raw.advance st
       | t, _ ->
         fail st
           (Printf.sprintf "expected 'in', found %s"
              (Lexer.token_to_string t)));
      let cat = name_token st "a category" in
      d.dmembers <- (m, cat, pos) :: d.dmembers;
      (match Raw.peek st with
       | Lexer.ARROW, _ ->
         Raw.advance st;
         let parents = comma_list st (fun st -> name_token st "a member") in
         d.links <-
           List.fold_left (fun acc p -> (m, p, pos) :: acc) d.links parents
       | _ -> ());
      Raw.expect st Lexer.PERIOD "'.'"
    | t, _ ->
      fail st
        (Printf.sprintf
           "expected 'category', 'member' or '}' in dimension body, found %s"
           (Lexer.token_to_string t))
  in
  (* Per-item recovery: one bad category/member line is reported and
     skipped; the rest of the dimension body still parses. *)
  let rec body () =
    match Raw.peek st with
    | Lexer.RBRACE, _ -> Raw.advance st
    | Lexer.EOF, _ -> fail st "unexpected end of input in dimension body"
    | _ ->
      let before = Raw.pos st in
      (try item ()
       with Parser.Error _ as pe ->
         record_parse_error ?file diags pe;
         if Raw.pos st = before then Raw.advance st;
         Raw.recover st);
      body ()
  in
  body ();
  d.cat_edges <- List.rev d.cat_edges;
  d.standalone <- List.rev d.standalone;
  d.dmembers <- List.rev d.dmembers;
  d.links <- List.rev d.links;
  decls.dims <- d :: decls.dims

let parse_relation st decls ~kind ~start =
  Raw.advance st (* 'relation' | 'source' | 'external' *);
  let name =
    match Raw.peek st with
    | Lexer.IDENT n, _ ->
      Raw.advance st;
      n
    | t, _ ->
      fail st
        (Printf.sprintf "expected a relation name, found %s"
           (Lexer.token_to_string t))
  in
  Raw.expect st Lexer.LPAREN "'('";
  let parse_attr st =
    match Raw.peek st with
    | Lexer.IDENT a, _ ->
      Raw.advance st;
      (match Raw.peek st with
       | Lexer.IDENT "in", _ ->
         Raw.advance st;
         let dimension, category = dotted_category st in
         R.Attribute.categorical a ~dimension ~category
       | _ -> R.Attribute.plain a)
    | t, _ ->
      fail st
        (Printf.sprintf "expected an attribute name, found %s"
           (Lexer.token_to_string t))
  in
  let attrs = comma_list st parse_attr in
  Raw.expect st Lexer.RPAREN "')'";
  Raw.expect st Lexer.PERIOD "'.'";
  let schema =
    try R.Rel_schema.make name attrs
    with Invalid_argument m ->
      raise
        (Parser.Error
           { line = start.Lexer.line; col = start.Lexer.col; code = "E018";
             message = m })
  in
  match kind with
  | `Source -> decls.sources <- (schema, start) :: decls.sources
  | `External -> decls.externals <- (schema, start) :: decls.externals
  | `Relation -> decls.relations <- (schema, start) :: decls.relations

let parse_wiring st decls ~quality ~start =
  Raw.advance st (* 'map' | 'quality' *);
  let from = name_token st "a relation name" in
  Raw.expect st Lexer.ARROW "'->'";
  let target = name_token st "a predicate name" in
  Raw.expect st Lexer.PERIOD "'.'";
  if quality then decls.qualities <- (from, target, start) :: decls.qualities
  else decls.maps <- (from, target, start) :: decls.maps

(* Collect every declaration, recovering at statement boundaries so
   one pass reports all syntax errors. *)
let collect ?file diags st =
  let decls =
    { dims = []; relations = []; sources = []; externals = []; maps = [];
      qualities = []; facts = []; tgds = []; egds = []; ncs = [];
      queries = [] }
  in
  let rec go () =
    if not (Raw.at_eof st) then begin
      let start = Raw.pos st in
      (try
         match keyword st (fst (Raw.peek st)) with
         | Some "dimension" -> parse_dimension st ?file diags decls ~start
         | Some "relation" -> parse_relation st decls ~kind:`Relation ~start
         | Some "source" -> parse_relation st decls ~kind:`Source ~start
         | Some "external" -> parse_relation st decls ~kind:`External ~start
         | Some "map" -> parse_wiring st decls ~quality:false ~start
         | Some "quality" -> parse_wiring st decls ~quality:true ~start
         | Some k ->
           fail st (Printf.sprintf "'%s' is only allowed inside a dimension" k)
         | None -> (
           match Raw.statement st with
           | Raw.S_fact f -> decls.facts <- (f, start) :: decls.facts
           | Raw.S_tgd t -> decls.tgds <- (t, start) :: decls.tgds
           | Raw.S_egd e -> decls.egds <- (e, start) :: decls.egds
           | Raw.S_nc n -> decls.ncs <- (n, start) :: decls.ncs
           | Raw.S_query q -> decls.queries <- (q, start) :: decls.queries)
       with Parser.Error { code; _ } as pe ->
         record_parse_error ?file diags pe;
         if Raw.pos st = start then Raw.advance st;
         (* statement-level semantic errors (E003) are raised after
            the whole statement was consumed, '.' included —
            resyncing would swallow the next declaration *)
         if code <> "E003" then begin
           Raw.recover st;
           (* a '}' left over from a broken dimension body would
              otherwise cascade into a statement error *)
           match Raw.peek st with
           | Lexer.RBRACE, _ -> Raw.advance st
           | _ -> ()
         end);
      go ()
    end
  in
  go ();
  { dims = List.rev decls.dims;
    relations = List.rev decls.relations;
    sources = List.rev decls.sources;
    externals = List.rev decls.externals;
    maps = List.rev decls.maps;
    qualities = List.rev decls.qualities;
    facts = List.rev decls.facts;
    tgds = List.rev decls.tgds;
    egds = List.rev decls.egds;
    ncs = List.rev decls.ncs;
    queries = List.rev decls.queries }

(* --- semantic validation ------------------------------------------- *)

module Smap = Map.Make (String)

type artifacts = {
  dim_schemas : Dim_schema.t Smap.t;
  dim_instances : Dim_instance.t Smap.t;  (* only error-free dimensions *)
  md_schema : Md_schema.t option;
}

let err ?file diags (pos : Lexer.pos) code fmt =
  Diag.errorf diags ?file ~line:pos.Lexer.line ~col:pos.Lexer.col ~code fmt

let warn ?file diags (pos : Lexer.pos) code fmt =
  Diag.warningf diags ?file ~line:pos.Lexer.line ~col:pos.Lexer.col ~code fmt

let validate_dimension ?file diags (d : dim_decl) =
  let ok = ref true in
  (* member -> (category, position) of its first declaration *)
  let seen = Hashtbl.create 16 in
  let schema =
    let edges =
      List.map (fun (c, p, _) -> (c, p)) d.cat_edges
      @ List.filter_map
          (fun (c, _) ->
            if
              List.exists (fun (a, b, _) -> a = c || b = c) d.cat_edges
            then None
            else Some (c, Dim_schema.all))
          d.standalone
    in
    match Dim_schema.make ~name:d.dim_name ~edges with
    | s -> Some s
    | exception Invalid_argument m ->
      err ?file diags d.dim_pos "E014" "%s" m;
      ok := false;
      None
  in
  (match schema with
   | None -> ()
   | Some schema ->
     (* members: known categories, no duplicates *)
     List.iter
       (fun (m, cat, pos) ->
         if not (Dim_schema.mem_category schema cat) then begin
           err ?file diags pos "E015"
             "dimension %s has no category %s (member %s)" d.dim_name cat m;
           ok := false
         end;
         (match Hashtbl.find_opt seen m with
          | Some (other_cat, _) ->
            err ?file diags pos "E016"
              "member %s already declared in category %s of dimension %s" m
              other_cat d.dim_name;
            ok := false
          | None -> Hashtbl.add seen m (cat, pos)))
       d.dmembers;
     (* links: known members, along a schema edge *)
     List.iter
       (fun (child, parent, pos) ->
         match Hashtbl.find_opt seen child, Hashtbl.find_opt seen parent with
         | None, _ ->
           err ?file diags pos "E017"
             "link references unknown member %s of dimension %s" child
             d.dim_name;
           ok := false
         | _, None ->
           if parent <> "all" then begin
             err ?file diags pos "E017"
               "link references unknown member %s of dimension %s" parent
               d.dim_name;
             ok := false
           end
         | Some (cc, _), Some (pc, _) ->
           if not (List.mem pc (Dim_schema.parents schema cc)) then begin
             err ?file diags pos "E017"
               "link %s -> %s does not follow a schema edge (%s -> %s) in \
                dimension %s"
               child parent cc pc d.dim_name;
             ok := false
           end)
       d.links);
  let instance =
    if not !ok then None
    else
      match schema with
      | None -> None
      | Some schema -> (
        let members_by_cat =
          List.fold_left
            (fun acc (m, cat, _) ->
              let cur = Option.value ~default:[] (List.assoc_opt cat acc) in
              (cat, m :: cur) :: List.remove_assoc cat acc)
            []
            (List.rev d.dmembers)
        in
        match
          Dim_instance.make schema ~members:members_by_cat
            ~links:(List.rev_map (fun (c, p, _) -> (c, p)) (List.rev d.links))
        with
        | i -> Some i
        | exception Invalid_argument m ->
          (* pre-empted by the checks above; located safety net *)
          err ?file diags d.dim_pos "E014" "%s" m;
          None)
  in
  (* hierarchy quality warnings: strictness and homogeneity *)
  (match instance with
   | None -> ()
   | Some i ->
     let pos_of_member m =
       match Hashtbl.find_opt seen m with
       | Some (_, pos) -> pos
       | None -> d.dim_pos
     in
     List.iter
       (fun (m, anc, ups) ->
         warn ?file diags (pos_of_member m) "W043"
           "dimension %s is not strict: member %s rolls up to %d members of \
            %s (%s)"
           d.dim_name m (List.length ups) anc
           (String.concat ", " (List.map R.Value.to_string ups)))
       (Dim_instance.strictness_violations i);
     List.iter
       (fun (m, pcat) ->
         warn ?file diags (pos_of_member m) "W044"
           "dimension %s is not homogeneous: member %s has no parent in \
            category %s (roll-up is not total)"
           d.dim_name m pcat)
       (Dim_instance.homogeneity_violations i));
  (schema, instance)

(* Classify an [Md_schema] conflict message onto a stable code. *)
let schema_conflict_code message =
  let contains sub =
    let n = String.length sub and m = String.length message in
    let rec go i = i + n <= m && (String.sub message i n = sub || go (i + 1)) in
    go 0
  in
  if contains "unknown dimension" then "E018"
  else if contains "unknown category" then "E015"
  else "E010"

let validate ?file diags (decls : decls) =
  (* 1. dimensions *)
  let dim_schemas = ref Smap.empty and dim_instances = ref Smap.empty in
  List.iter
    (fun (d : dim_decl) ->
      if Smap.mem d.dim_name !dim_schemas then
        err ?file diags d.dim_pos "E010" "duplicate dimension %s" d.dim_name
      else begin
        let schema, instance = validate_dimension ?file diags d in
        (match schema with
         | Some s -> dim_schemas := Smap.add d.dim_name s !dim_schemas
         | None -> ());
        match instance with
        | Some i -> dim_instances := Smap.add d.dim_name i !dim_instances
        | None -> ()
      end)
    decls.dims;
  (* 2. relation / source / external namespaces are disjoint *)
  let decl_pos = Hashtbl.create 16 in
  List.iter
    (fun (what, schemas) ->
      List.iter
        (fun (s, pos) ->
          let n = R.Rel_schema.name s in
          (match Hashtbl.find_opt decl_pos n with
           | Some (other, (first : Lexer.pos)) ->
             err ?file diags pos "E010"
               "%s %s already declared as a %s at line %d" what n other
               first.Lexer.line
           | None -> ());
          Hashtbl.replace decl_pos n (what, pos))
        schemas)
    [ ("relation", decls.relations); ("source", decls.sources);
      ("external", decls.externals) ];
  (* 3. the MD schema itself *)
  let dims_in_order =
    (* first declaration of each name, when its schema built *)
    let seen = Hashtbl.create 8 in
    List.filter_map
      (fun (d : dim_decl) ->
        if Hashtbl.mem seen d.dim_name then None
        else begin
          Hashtbl.add seen d.dim_name ();
          Smap.find_opt d.dim_name !dim_schemas
        end)
      decls.dims
  in
  let relations = List.map fst decls.relations in
  let conflicts =
    Md_schema.conflicts ~dimensions:dims_in_order ~relations
  in
  List.iter
    (fun { Md_schema.subject; message } ->
      let pos =
        match Hashtbl.find_opt decl_pos subject with
        | Some (_, pos) -> pos
        | None -> (
          match
            List.find_opt
              (fun (d : dim_decl) -> String.equal d.dim_name subject)
              decls.dims
          with
          | Some d -> d.dim_pos
          | None -> { Lexer.line = 1; col = 0 })
      in
      err ?file diags pos (schema_conflict_code message) "%s" message)
    conflicts;
  let md_schema =
    if
      conflicts = []
      && List.length dims_in_order = List.length decls.dims
    then
      match Md_schema.make ~dimensions:dims_in_order ~relations with
      | s -> Some s
      | exception Invalid_argument m ->
        err ?file diags { Lexer.line = 1; col = 0 } "E014" "%s" m;
        None
    else None
  in
  (* 4. facts: declared predicates only ([decl_pos] holds every
     relation, source and external name) *)
  List.iter
    (fun (f, pos) ->
      let p = Atom.pred f in
      if not (Hashtbl.mem decl_pos p) then
        err ?file diags pos "E013"
          "fact over undeclared predicate %s (declare it with 'relation', \
           'source' or 'external')"
          p)
    decls.facts;
  (* 5. global arity consistency: declarations, then facts, then rules,
     constraints and queries — each clash located at its statement *)
  let seen_arity = Hashtbl.create 32 in
  let check_entry what pos p k =
    match Hashtbl.find_opt seen_arity p with
    | None -> Hashtbl.add seen_arity p (k, pos)
    | Some (k', (first : Lexer.pos)) ->
      if k <> k' then
        err ?file diags pos "E011"
          "%s uses predicate %s with arity %d but it has arity %d (line %d)"
          what p k k' first.Lexer.line
  in
  (match md_schema with
   | Some s ->
     List.iter
       (fun d ->
         List.iter
           (fun c ->
             if c <> Dim_schema.all then
               check_entry "category" { Lexer.line = 1; col = 0 }
                 (Md_schema.category_pred c) 1)
           (Dim_schema.categories d);
         List.iter
           (fun (child, parent) ->
             if parent <> Dim_schema.all then
               check_entry "roll-up" { Lexer.line = 1; col = 0 }
                 (Md_schema.parent_child_pred ~parent ~child) 2)
           (Dim_schema.edges d))
       (Md_schema.dimensions s)
   | None -> ());
  List.iter
    (fun (s, pos) ->
      check_entry "declaration" pos (R.Rel_schema.name s)
        (R.Rel_schema.arity s))
    (decls.relations @ decls.sources @ decls.externals);
  List.iter
    (fun (f, pos) -> check_entry "fact" pos (Atom.pred f) (Atom.arity f))
    decls.facts;
  let atoms_arities what atoms pos =
    List.iter (fun a -> check_entry what pos (Atom.pred a) (Atom.arity a)) atoms
  in
  List.iter
    (fun ((t : Tgd.t), pos) ->
      atoms_arities "rule" (t.Tgd.body @ t.Tgd.head) pos)
    decls.tgds;
  List.iter
    (fun ((e : Egd.t), pos) -> atoms_arities "EGD" e.Egd.body pos)
    decls.egds;
  List.iter
    (fun ((n : Nc.t), pos) -> atoms_arities "constraint" n.Nc.body pos)
    decls.ncs;
  List.iter
    (fun ((q : Query.t), pos) -> atoms_arities "query" q.Query.body pos)
    decls.queries;
  (* 6. rules and constraints against the MD schema *)
  (match md_schema with
   | None -> ()
   | Some schema ->
     let md_pred p =
       Md_schema.relation schema p <> None
       || Md_schema.category_of_pred schema p <> None
       || Md_schema.parent_child_of_pred schema p <> None
     in
     let md_rules, _ctx_rules =
       List.partition
         (fun ((t : Tgd.t), _) ->
           List.for_all md_pred (Tgd.body_preds t @ Tgd.head_preds t))
         decls.tgds
     in
     List.iter
       (fun ((t : Tgd.t), pos) ->
         match Dim_rule.analyze schema t with
         | Ok _ -> ()
         | Error e ->
           err ?file diags pos "E019" "dimensional rule %s: %s" t.Tgd.name e)
       md_rules;
     List.iter
       (fun ((e : Egd.t), pos) ->
         if not (List.for_all md_pred (List.map Atom.pred e.Egd.body)) then
           err ?file diags pos "E020"
             "EGD %s mentions non-dimensional predicates" e.Egd.name)
       decls.egds;
     List.iter
       (fun ((n : Nc.t), pos) ->
         if not (List.for_all md_pred (List.map Atom.pred n.Nc.body)) then
           err ?file diags pos "E020"
             "constraint %s mentions non-dimensional predicates" n.Nc.name)
       decls.ncs;
     (* unknown predicates in rule and query bodies *)
     let known = Hashtbl.create 64 in
     let know n = Hashtbl.replace known n () in
     List.iter
       (fun (s, _) -> know (R.Rel_schema.name s))
       (decls.relations @ decls.sources @ decls.externals);
     List.iter (fun (_, t, _) -> know t) decls.maps;
     List.iter (fun (_, t, _) -> know t) decls.qualities;
     List.iter
       (fun ((t : Tgd.t), _) -> List.iter know (Tgd.head_preds t))
       decls.tgds;
     List.iter (fun (f, _) -> know (Atom.pred f)) decls.facts;
     let check_known what name preds pos =
       List.iter
         (fun p ->
           if not (md_pred p || Hashtbl.mem known p) then
             err ?file diags pos "E012"
               "%s %s references unknown predicate %s (not a declared \
                relation, a generated category/roll-up predicate, a mapped \
                copy, or the head of any rule)"
               what name p)
         preds
     in
     List.iter
       (fun ((t : Tgd.t), pos) ->
         check_known "rule" t.Tgd.name (Tgd.body_preds t) pos)
       decls.tgds;
     List.iter
       (fun ((q : Query.t), pos) ->
         check_known "query" q.Query.name
           (List.map Atom.pred q.Query.body)
           pos)
       decls.queries);
  (* 7. wiring: map / quality sources must be declared sources *)
  let source_names =
    List.map (fun (s, _) -> R.Rel_schema.name s) decls.sources
  in
  let check_wiring what entries =
    let seen = Hashtbl.create 8 in
    List.iter
      (fun (from, _target, pos) ->
        if not (List.mem from source_names) then
          err ?file diags pos "E021"
            "%s %s -> ... does not refer to a declared source relation" what
            from;
        if Hashtbl.mem seen from then
          err ?file diags pos "E010" "duplicate %s for source %s" what from;
        Hashtbl.replace seen from ())
      entries
  in
  check_wiring "map" decls.maps;
  check_wiring "quality" decls.qualities;
  let head_preds =
    List.concat_map (fun ((t : Tgd.t), _) -> Tgd.head_preds t) decls.tgds
  in
  let body_preds =
    List.concat_map (fun ((t : Tgd.t), _) -> Tgd.body_preds t) decls.tgds
    @ List.concat_map
        (fun ((q : Query.t), _) -> List.map Atom.pred q.Query.body)
        decls.queries
  in
  List.iter
    (fun (from, target, pos) ->
      if not (List.mem target head_preds) then
        warn ?file diags pos "W042"
          "quality version %s of %s is not the head of any rule: it will \
           always be empty"
          target from)
    decls.qualities;
  List.iter
    (fun (from, target, (pos : Lexer.pos)) ->
      if not (List.mem target body_preds) then
        Diag.hintf diags ?file ~line:pos.Lexer.line ~col:pos.Lexer.col
          ~code:"H051"
          "mapped copy %s of %s is never used in a rule or query body" target
          from)
    decls.maps;
  { dim_schemas = !dim_schemas;
    dim_instances = !dim_instances;
    md_schema }

(* --- assembly (validated declarations only) ------------------------- *)

let build (decls : decls) (arts : artifacts) =
  let md_schema =
    match arts.md_schema with
    | Some s -> s
    | None -> invalid_arg "Md_parser.build: unvalidated declarations"
  in
  let dim_instances =
    List.map
      (fun (d : dim_decl) -> Smap.find d.dim_name arts.dim_instances)
      decls.dims
  in
  (* predicate -> where its facts go: the first declaration of the
     name, relations before sources before externals *)
  let target = Hashtbl.create 64 in
  let first s v =
    let n = R.Rel_schema.name s in
    if not (Hashtbl.mem target n) then Hashtbl.add target n v
  in
  List.iter (fun (s, _) -> first s (`Relation s)) decls.relations;
  List.iter (fun (s, _) -> first s `Source) decls.sources;
  List.iter (fun (s, _) -> first s `External) decls.externals;
  (* Facts. *)
  let data = R.Instance.create () in
  let source = R.Instance.create () in
  let externals = R.Instance.create () in
  List.iter
    (fun (s, _) -> ignore (R.Instance.declare source s))
    decls.sources;
  List.iter
    (fun (s, _) -> ignore (R.Instance.declare externals s))
    decls.externals;
  List.iter
    (fun (f, _) ->
      let p = Atom.pred f in
      match Hashtbl.find_opt target p with
      | Some (`Relation schema) ->
        ignore (R.Instance.declare data schema);
        ignore (R.Instance.add_tuple data p (Atom.to_tuple f))
      | Some `Source ->
        ignore (R.Instance.add_tuple source p (Atom.to_tuple f))
      | Some `External ->
        ignore (R.Instance.add_tuple externals p (Atom.to_tuple f))
      | None ->
        invalid_arg
          (Printf.sprintf "fact over undeclared predicate %s" p))
    decls.facts;
  (* Rules: dimensional when every predicate is an MD predicate. *)
  let md_pred p =
    Md_schema.relation md_schema p <> None
    || Md_schema.category_of_pred md_schema p <> None
    || Md_schema.parent_child_of_pred md_schema p <> None
  in
  let md_rules, ctx_rules =
    List.partition
      (fun (t : Tgd.t) ->
        List.for_all md_pred (Tgd.body_preds t @ Tgd.head_preds t))
      (List.map fst decls.tgds)
  in
  let ontology =
    Md_ontology.make ~schema:md_schema ~dim_instances ~data ~rules:md_rules
      ~egds:(List.map fst decls.egds) ~ncs:(List.map fst decls.ncs) ()
  in
  let context =
    Context.make ~ontology
      ~mappings:
        (List.map
           (fun (s, t, _) -> { Context.source = s; target = t })
           decls.maps)
      ~rules:ctx_rules
      ~externals:(R.Instance.relations externals)
      ~quality_versions:(List.map (fun (f, t, _) -> (f, t)) decls.qualities)
      ()
  in
  { ontology; context; source; queries = List.map fst decls.queries }

module Fact_tbl = Hashtbl.Make (struct
  type t = string * R.Tuple.t

  let equal (p, t) (q, u) = String.equal p q && R.Tuple.equal t u
  let hash (p, t) = Hashtbl.hash (Hashtbl.hash p, R.Tuple.hash t)
end)

(* Post-build advisory analyses: the weak-stickiness certificate and
   the closed-world referential check, as warnings/hints. *)
let advisory ?file diags (decls : decls) (p : parsed) =
  let program = Context.program p.context in
  let statements =
    List.map
      (fun (t, pos) -> { Parser.stmt = Raw.S_tgd t; pos })
      decls.tgds
  in
  Validate.check_certificate ?file diags statements program;
  (* fact -> position of its first statement, built on the first
     violation *)
  let fact_pos =
    lazy
      (let tbl = Fact_tbl.create 1024 in
       List.iter
         (fun (f, pos) ->
           let key = (Atom.pred f, Atom.to_tuple f) in
           if not (Fact_tbl.mem tbl key) then Fact_tbl.add tbl key pos)
         decls.facts;
       tbl)
  in
  List.iter
    (fun (v : Md_ontology.referential_violation) ->
      let pos =
        Fact_tbl.find_opt (Lazy.force fact_pos)
          (v.Md_ontology.relation, v.Md_ontology.tuple)
      in
      let line = Option.map (fun p -> p.Lexer.line) pos in
      let col = Option.map (fun p -> p.Lexer.col) pos in
      Diag.warningf diags ?file ?line ?col ~code:"W045" "%s"
        (Format.asprintf "referential violation: %a" Md_ontology.pp_violation
           v))
    (Md_ontology.referential_violations p.ontology)

let check_string ?file input =
  let diags = Diag.collector ?file () in
  let decls =
    let st = Raw.init ~diags input in
    collect ?file diags st
  in
  let arts = validate ?file diags decls in
  let parsed =
    if Diag.has_errors diags then None
    else
      match build decls arts with
      | p ->
        advisory ?file diags decls p;
        Some p
      | exception Invalid_argument m ->
        (* validation pre-empts every assembly failure; located net *)
        Diag.error diags ?file ~line:1 ~code:"E003" m;
        None
  in
  { parsed; diags = Diag.to_list diags }

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      really_input_string ic n)

let check_file path = check_string ~file:path (read_file path)

let parse_string input =
  let { parsed; diags } = check_string input in
  match parsed with
  | Some p -> p
  | None -> (
    match List.find_opt (fun d -> d.Diag.severity = Diag.Error) diags with
    | Some d ->
      raise
        (Error { line = d.Diag.span.Diag.line; message = d.Diag.message })
    | None ->
      raise (Error { line = 1; message = "invalid context file" }))

let parse_file path = parse_string (read_file path)
