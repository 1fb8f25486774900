(** Recursive-descent parser for the Datalog± surface syntax.

    Statement forms (each terminated by [.]):

    {v
    % comment                      # comment
    p(a, "Tom Waits", 3).          fact (must be ground)
    h(X, Y) :- p(X, Z), q(Z, Y).   TGD; head vars not in the body are
                                   existential; multi-atom heads:
                                   h1(X), h2(X) :- p(X).
    X = Y :- p(X), p(Y).           EGD
    ! :- p(X), q(X), X >= 5.       negative constraint (comparisons ok)
    ?ans(X) :- p(X, Y), Y != b.    named query
    ? :- p(X).                     boolean query
    v}

    Constants are lowercase identifiers, quoted strings or numbers;
    variables start with an uppercase letter or [_].  A TGD is named
    [p/n] after its first head predicate [p] and its number [n] among
    the TGDs of the parsed document, so the same document gets the same
    names in any process.

    Two entry styles are provided: the historical fail-fast one
    ({!parse_string}, raising {!Error} on the first problem) and the
    recovering one ({!parse_statements}), which resynchronizes on ['.']
    after an error and accumulates every problem in a
    {!Diag.collector} — the substrate of [mdqa check]. *)

type parsed = {
  program : Program.t;
  queries : Query.t list;  (** in source order *)
}

exception
  Error of { line : int; col : int; code : string; message : string }
(** [code] is the stable diagnostic code ({!Diag.codes}): [E001]
    lexical, [E002] syntax, [E003] statement-level semantic error. *)

val parse_string : string -> parsed
(** @raise Error on syntax errors, non-ground facts, unsafe rules. *)

val parse_file : string -> parsed
(** @raise Sys_error on I/O failure, {!Error} on syntax errors. *)

val parse_query : string -> Query.t
(** Parse a single query statement (with or without the leading [?]).
    @raise Error if the input is not exactly one query. *)

(** Lower-level parsing toolkit, for layers that extend the surface
    syntax with their own declarations (e.g. the multidimensional
    context format of [Mdqa_context.Md_parser]) while reusing the
    statement grammar above. *)
module Raw : sig
  type state

  val init : ?diags:Diag.collector -> string -> state
  (** Tokenize an input.  With [diags], lexical errors are collected
      and skipped (see {!Lexer.tokens_pos}); without it they raise
      {!Error}. *)

  val at_eof : state -> bool

  val peek : state -> Lexer.token * Lexer.pos
  (** Current token and its position, without consuming. *)

  val peek2 : state -> Lexer.token
  (** One token of extra lookahead. *)

  val pos : state -> Lexer.pos
  (** Position of the current token. *)

  val advance : state -> unit
  val expect : state -> Lexer.token -> string -> unit

  val recover : state -> unit
  (** Skip to the next statement boundary: consume up to and including
      the next ['.'], stopping (without consuming) at ['}'] or EOF. *)

  val error : state -> string -> 'a
  (** @raise Error at the current position. *)

  type statement =
    | S_fact of Atom.t
    | S_tgd of Tgd.t
    | S_egd of Egd.t
    | S_nc of Nc.t
    | S_query of Query.t

  val statement : state -> statement
  (** Parse one datalog statement (as documented above).
      @raise Error on syntax errors. *)
end

(** {1 Recovering entry points} *)

type located_statement = {
  stmt : Raw.statement;
  pos : Lexer.pos;  (** position of the statement's first token *)
}

val parse_statements :
  ?file:string -> Diag.collector -> string -> located_statement list
(** Parse a whole input, accumulating every lexical and syntax error in
    the collector (resynchronizing on ['.']) instead of raising.
    Returns the statements that did parse, each with its source
    position.  Never raises {!Error}. *)

val program_of_statements :
  ?file:string ->
  Diag.collector ->
  located_statement list ->
  parsed option
(** Assemble parsed statements into a program.  [None] (with a
    diagnostic) if assembly fails — e.g. inconsistent arities not
    caught earlier. *)
