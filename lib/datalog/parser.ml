module Value = Mdqa_relational.Value

type parsed = {
  program : Program.t;
  queries : Query.t list;
}

exception
  Error of { line : int; col : int; code : string; message : string }

type state = {
  mutable toks : (Lexer.token * Lexer.pos) list;
  mutable last_pos : Lexer.pos;
  mutable rules : int;  (* TGDs parsed so far, for their names *)
}

let fail_at ?(code = "E002") (pos : Lexer.pos) message =
  raise (Error { line = pos.Lexer.line; col = pos.Lexer.col; code; message })

let peek st =
  match st.toks with
  | (t, pos) :: _ -> (t, pos)
  | [] -> (Lexer.EOF, st.last_pos)

let advance st =
  match st.toks with
  | (_, pos) :: rest ->
    st.last_pos <- pos;
    st.toks <- rest
  | [] -> ()

let expect st tok what =
  let t, pos = peek st in
  if t = tok then advance st
  else
    fail_at pos
      (Printf.sprintf "expected %s but found %s" what
         (Lexer.token_to_string t))

(* term := VAR | IDENT | STRING | INT | FLOAT *)
let parse_term st =
  let t, pos = peek st in
  match t with
  | Lexer.VAR v ->
    advance st;
    Term.Var v
  | Lexer.IDENT s ->
    advance st;
    Term.Const (Value.sym s)
  | Lexer.STRING s ->
    advance st;
    Term.Const (Value.sym s)
  | Lexer.INT i ->
    advance st;
    Term.Const (Value.int i)
  | Lexer.FLOAT f ->
    advance st;
    Term.Const (Value.real f)
  | other ->
    fail_at pos
      (Printf.sprintf "expected a term but found %s"
         (Lexer.token_to_string other))

let parse_term_list st =
  let rec go acc =
    let t = parse_term st in
    match peek st with
    | Lexer.COMMA, _ ->
      advance st;
      go (t :: acc)
    | _ -> List.rev (t :: acc)
  in
  go []

(* atom := IDENT '(' terms ')' *)
let parse_atom st =
  let t, pos = peek st in
  match t with
  | Lexer.IDENT pred ->
    advance st;
    expect st Lexer.LPAREN "'('";
    let args =
      match peek st with
      | Lexer.RPAREN, _ -> []
      | _ -> parse_term_list st
    in
    expect st Lexer.RPAREN "')'";
    Atom.make pred args
  | other ->
    fail_at pos
      (Printf.sprintf "expected a predicate but found %s"
         (Lexer.token_to_string other))

let cmp_op_of_token = function
  | Lexer.EQ -> Some Atom.Cmp.Eq
  | Lexer.NEQ -> Some Atom.Cmp.Neq
  | Lexer.LT -> Some Atom.Cmp.Lt
  | Lexer.LE -> Some Atom.Cmp.Le
  | Lexer.GT -> Some Atom.Cmp.Gt
  | Lexer.GE -> Some Atom.Cmp.Ge
  | _ -> None

(* literal := atom | term op term *)
let parse_literal st =
  let t, _ = peek st in
  match t with
  | Lexer.IDENT _ -> (
    (* could still be a comparison whose lhs is a symbol constant:
       look ahead past the identifier *)
    match st.toks with
    | (Lexer.IDENT _, _) :: (Lexer.LPAREN, _) :: _ -> `Atom (parse_atom st)
    | _ ->
      let lhs = parse_term st in
      let op_tok, pos = peek st in
      (match cmp_op_of_token op_tok with
       | Some op ->
         advance st;
         let rhs = parse_term st in
         `Cmp (Atom.Cmp.make op lhs rhs)
       | None ->
         fail_at pos
           (Printf.sprintf "expected a comparison operator, found %s"
              (Lexer.token_to_string op_tok))))
  | _ ->
    let lhs = parse_term st in
    let op_tok, pos = peek st in
    (match cmp_op_of_token op_tok with
     | Some op ->
       advance st;
       let rhs = parse_term st in
       `Cmp (Atom.Cmp.make op lhs rhs)
     | None ->
       fail_at pos
         (Printf.sprintf "expected a comparison operator, found %s"
            (Lexer.token_to_string op_tok)))

let parse_body st =
  let rec go atoms cmps =
    (match parse_literal st with
     | `Atom a -> go_next (a :: atoms) cmps
     | `Cmp c -> go_next atoms (c :: cmps))
  and go_next atoms cmps =
    match peek st with
    | Lexer.COMMA, _ ->
      advance st;
      go atoms cmps
    | _ -> (List.rev atoms, List.rev cmps)
  in
  go [] []

type statement =
  | S_fact of Atom.t
  | S_tgd of Tgd.t
  | S_egd of Egd.t
  | S_nc of Nc.t
  | S_query of Query.t

(* Construction-time failures (non-ground facts, unsafe queries, empty
   bodies) are statement-level semantic errors: code E003, located at
   the statement's first token. *)
let wrap_invalid pos f =
  try f () with Invalid_argument m -> fail_at ~code:"E003" pos m

(* Parsed rules are named after their head predicate (for readable
   diagnostics and provenance), suffixed with their number in the
   document: unique within it, and the same in every process. *)
let rule_name st head =
  st.rules <- st.rules + 1;
  match head with
  | a :: _ -> Printf.sprintf "%s/%d" (Atom.pred a) st.rules
  | [] -> Printf.sprintf "rule/%d" st.rules

(* statement :=
   | '!' ':-' body '.'
   | '?' [atom] ':-' body '.'  |  '?' atom-with-head-vars ':-' body '.'
   | VAR '=' term ':-' body '.'
   | atoms '.'                        (fact, single ground atom)
   | atoms ':-' body '.'              (TGD, multi-atom head) *)
let parse_statement st =
  let t, pos = peek st in
  match t with
  | Lexer.BANG ->
    advance st;
    expect st Lexer.TURNSTILE "':-'";
    let atoms, cmps = parse_body st in
    expect st Lexer.PERIOD "'.'";
    if atoms = [] then
      fail_at ~code:"E003" pos "constraint body needs at least one atom";
    wrap_invalid pos (fun () -> S_nc (Nc.make ~cmps atoms))
  | Lexer.QMARK ->
    advance st;
    let name, head =
      match peek st with
      | Lexer.TURNSTILE, _ -> (None, [])
      | Lexer.IDENT _, _ ->
        let a = parse_atom st in
        (Some (Atom.pred a), Atom.args a)
      | other, p ->
        fail_at p
          (Printf.sprintf "expected query head or ':-', found %s"
             (Lexer.token_to_string other))
    in
    expect st Lexer.TURNSTILE "':-'";
    let atoms, cmps = parse_body st in
    expect st Lexer.PERIOD "'.'";
    if atoms = [] then
      fail_at ~code:"E003" pos "query body needs at least one atom";
    wrap_invalid pos (fun () -> S_query (Query.make ?name ~cmps ~head atoms))
  | Lexer.VAR v ->
    advance st;
    expect st Lexer.EQ "'='";
    let rhs = parse_term st in
    expect st Lexer.TURNSTILE "':-'";
    let atoms, cmps = parse_body st in
    expect st Lexer.PERIOD "'.'";
    if cmps <> [] then
      fail_at ~code:"E003" pos "EGD bodies cannot contain comparisons";
    wrap_invalid pos (fun () -> S_egd (Egd.make ~body:atoms (Term.Var v) rhs))
  | Lexer.IDENT _ -> (
    let first = parse_atom st in
    let rec more acc =
      match peek st with
      | Lexer.COMMA, _ ->
        advance st;
        more (parse_atom st :: acc)
      | _ -> List.rev acc
    in
    let head = first :: more [] in
    match peek st with
    | Lexer.PERIOD, _ ->
      advance st;
      (match head with
       | [ a ] when Atom.is_ground a -> S_fact a
       | [ _ ] -> fail_at ~code:"E003" pos "facts must be ground"
       | _ -> fail_at ~code:"E003" pos "a fact is a single ground atom")
    | Lexer.TURNSTILE, _ ->
      advance st;
      let atoms, cmps = parse_body st in
      expect st Lexer.PERIOD "'.'";
      if cmps <> [] then
        fail_at ~code:"E003" pos "TGD bodies cannot contain comparisons";
      if atoms = [] then
        fail_at ~code:"E003" pos "TGD body needs at least one atom";
      wrap_invalid pos (fun () ->
          S_tgd (Tgd.make ~name:(rule_name st head) ~body:atoms ~head ()))
    | other, p ->
      fail_at p
        (Printf.sprintf "expected '.' or ':-', found %s"
           (Lexer.token_to_string other)))
  | other ->
    fail_at pos
      (Printf.sprintf "expected a statement but found %s"
         (Lexer.token_to_string other))

(* Resynchronization point for error recovery: consume tokens up to
   and including the next '.', but stop (without consuming) at '}' or
   EOF so enclosing parsers — e.g. a dimension body — can close. *)
let recover st =
  let rec go () =
    match peek st with
    | Lexer.EOF, _ | Lexer.RBRACE, _ -> ()
    | Lexer.PERIOD, _ -> advance st
    | _ ->
      advance st;
      go ()
  in
  go ()

module Raw = struct
  type nonrec state = state

  let init ?diags input =
    let toks =
      match diags with
      | Some c -> Lexer.tokens_pos ~diags:c input
      | None -> (
        try Lexer.tokens_pos input
        with Lexer.Error { line; col; message } ->
          raise (Error { line; col; code = "E001"; message }))
    in
    { toks; last_pos = { Lexer.line = 1; col = 1 }; rules = 0 }

  let at_eof st = match peek st with Lexer.EOF, _ -> true | _ -> false
  let peek = peek

  let peek2 st =
    match st.toks with _ :: (t, _) :: _ -> t | _ -> Lexer.EOF

  let pos st = snd (peek st)
  let advance = advance
  let expect = expect
  let recover = recover
  let error st message = fail_at (pos st) message

  type nonrec statement = statement =
    | S_fact of Atom.t
    | S_tgd of Tgd.t
    | S_egd of Egd.t
    | S_nc of Nc.t
    | S_query of Query.t

  let statement = parse_statement
end

type located_statement = { stmt : statement; pos : Lexer.pos }

(* Recovery-mode parse: every syntax error becomes a diagnostic and
   parsing resumes at the next '.', so a single pass reports them all.
   Lexical errors were already collected by {!Raw.init}. *)
let parse_statements ?file diags input =
  let st = Raw.init ~diags input in
  let out = ref [] in
  let rec go () =
    if not (Raw.at_eof st) then begin
      let start = Raw.pos st in
      (match parse_statement st with
       | s -> out := { stmt = s; pos = start } :: !out
       | exception Error { line; col; code; message } ->
         Diag.error diags ?file ~line ~col ~code message;
         (* if no token was consumed (e.g. a stray '}'), drop one so
            recovery always makes progress *)
         if Raw.pos st = start then Raw.advance st;
         (* statement-level semantic errors (E003) are raised after
            the whole statement was consumed, '.' included — resyncing
            would swallow the next statement *)
         if code <> "E003" then recover st);
      go ()
    end
  in
  go ();
  List.rev !out

let program_of_statements ?file diags statements =
  let facts = ref [] and tgds = ref [] and egds = ref [] in
  let ncs = ref [] and queries = ref [] in
  List.iter
    (fun { stmt; _ } ->
      match stmt with
      | S_fact f -> facts := f :: !facts
      | S_tgd t -> tgds := t :: !tgds
      | S_egd e -> egds := e :: !egds
      | S_nc n -> ncs := n :: !ncs
      | S_query q -> queries := q :: !queries)
    statements;
  match
    Program.make ~tgds:(List.rev !tgds) ~egds:(List.rev !egds)
      ~ncs:(List.rev !ncs) ~facts:(List.rev !facts) ()
  with
  | p -> Some { program = p; queries = List.rev !queries }
  | exception Invalid_argument m ->
    (* normally pre-empted by per-statement arity checks; a safety net
       so assembly failures still surface as located diagnostics *)
    Diag.error diags ?file ~line:1 ~code:"E003" m;
    None

let parse_string input =
  Mdqa_obs.Trace.with_span "parse" @@ fun () ->
  let st = Raw.init input in
  let rec go facts tgds egds ncs queries =
    match peek st with
    | Lexer.EOF, pos -> (
      let mk () =
        Program.make ~tgds:(List.rev tgds) ~egds:(List.rev egds)
          ~ncs:(List.rev ncs) ~facts:(List.rev facts) ()
      in
      match mk () with
      | p -> { program = p; queries = List.rev queries }
      | exception Invalid_argument m -> fail_at ~code:"E003" pos m)
    | _ -> (
      match parse_statement st with
      | S_fact f -> go (f :: facts) tgds egds ncs queries
      | S_tgd t -> go facts (t :: tgds) egds ncs queries
      | S_egd e -> go facts tgds (e :: egds) ncs queries
      | S_nc n -> go facts tgds egds (n :: ncs) queries
      | S_query q -> go facts tgds egds ncs (q :: queries))
  in
  go [] [] [] [] []

let parse_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      parse_string (really_input_string ic n))

let parse_query input =
  let input = String.trim input in
  let input =
    if String.length input > 0 && input.[0] = '?' then input
    else "?" ^ input
  in
  let input =
    if String.length input > 0 && input.[String.length input - 1] = '.' then
      input
    else input ^ "."
  in
  match parse_string input with
  | { queries = [ q ]; program }
    when program.Program.tgds = [] && program.Program.facts = [] ->
    q
  | _ ->
    raise
      (Error
         { line = 1; col = 0; code = "E002";
           message = "expected exactly one query" })
