(* Cost-attribution profiler.  Mirrors Trace's installation idiom (a
   global [current] ref, one ref read on the disabled path) and
   Metrics' snapshot algebra (immutable sorted association lists with
   an associative, commutative merge).  The chase hot loop increments
   through pre-resolved mutable records so the enabled path costs a
   few field writes per trigger, not a hash lookup. *)

type rule = {
  mutable r_fires : int;
  mutable r_triggers : int;
  mutable r_matches : int;
  mutable r_seconds : float;
}

type atom_cell = { mutable a_scanned : int; mutable a_matched : int }

type round_cell = {
  mutable rd_count : int;
  mutable rd_seconds : float;
  mutable rd_minor : int;
  mutable rd_major : int;
  mutable rd_heap : int;
}

type query_cell = { mutable q_evals : int; mutable q_seconds : float }
type phase_cell = { mutable p_calls : int; mutable p_seconds : float }

type t = {
  clock : unit -> float;
  rules : (string, rule) Hashtbl.t;
  atoms : (string * int * string, atom_cell) Hashtbl.t;
  rounds : (int, round_cell) Hashtbl.t;
  queries : (string, query_cell) Hashtbl.t;
  phases : (string, phase_cell) Hashtbl.t;
  plans : (string * string, unit) Hashtbl.t;
  mutable scope : string option;
}

let monotonic () =
  let last = ref 0. in
  fun () ->
    let t = Unix.gettimeofday () in
    if t > !last then last := t;
    !last

let create ?clock () =
  let clock = match clock with Some c -> c | None -> monotonic () in
  {
    clock;
    rules = Hashtbl.create 16;
    atoms = Hashtbl.create 64;
    rounds = Hashtbl.create 16;
    queries = Hashtbl.create 16;
    phases = Hashtbl.create 8;
    plans = Hashtbl.create 16;
    scope = None;
  }

let clear t =
  Hashtbl.reset t.rules;
  Hashtbl.reset t.atoms;
  Hashtbl.reset t.rounds;
  Hashtbl.reset t.queries;
  Hashtbl.reset t.phases;
  Hashtbl.reset t.plans;
  t.scope <- None

(* ------------------------------------------------- global installation *)

let current : t option ref = ref None
let install t = current := Some t
let uninstall () = current := None
let installed () = !current
let active () = !current <> None

(* ------------------------------------------------------------- hooks *)

let now t = t.clock ()

let rule t name =
  match Hashtbl.find_opt t.rules name with
  | Some r -> r
  | None ->
    let r = { r_fires = 0; r_triggers = 0; r_matches = 0; r_seconds = 0. } in
    Hashtbl.add t.rules name r;
    r

let add_trigger r = r.r_triggers <- r.r_triggers + 1
let add_fire r = r.r_fires <- r.r_fires + 1
let add_matches r n = r.r_matches <- r.r_matches + n
let add_rule_seconds r s = r.r_seconds <- r.r_seconds +. s

let with_scope t name f =
  let saved = t.scope in
  t.scope <- Some name;
  Fun.protect ~finally:(fun () -> t.scope <- saved) f

let scoped () =
  match !current with
  | Some t when t.scope <> None -> Some t
  | _ -> None

let atom_visit t ~idx ~pred ~scanned ~matched =
  match t.scope with
  | None -> ()
  | Some scope ->
    let cell =
      let key = (scope, idx, pred) in
      match Hashtbl.find_opt t.atoms key with
      | Some c -> c
      | None ->
        let c = { a_scanned = 0; a_matched = 0 } in
        Hashtbl.add t.atoms key c;
        c
    in
    cell.a_scanned <- cell.a_scanned + scanned;
    cell.a_matched <- cell.a_matched + matched

let plan t desc =
  match t.scope with
  | None -> ()
  | Some scope -> Hashtbl.replace t.plans (scope, desc) ()

let with_round n f =
  match !current with
  | None -> f ()
  | Some t ->
    let g0 = Gc.quick_stat () in
    let t0 = t.clock () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = t.clock () in
        let g1 = Gc.quick_stat () in
        let cell =
          match Hashtbl.find_opt t.rounds n with
          | Some c -> c
          | None ->
            let c =
              { rd_count = 0; rd_seconds = 0.; rd_minor = 0; rd_major = 0;
                rd_heap = 0 }
            in
            Hashtbl.add t.rounds n c;
            c
        in
        cell.rd_count <- cell.rd_count + 1;
        cell.rd_seconds <- cell.rd_seconds +. Float.max 0. (t1 -. t0);
        cell.rd_minor <-
          cell.rd_minor
          + max 0 (g1.Gc.minor_collections - g0.Gc.minor_collections);
        cell.rd_major <-
          cell.rd_major
          + max 0 (g1.Gc.major_collections - g0.Gc.major_collections);
        cell.rd_heap <- max cell.rd_heap g1.Gc.heap_words)
      f

let with_query name f =
  match !current with
  | None -> f ()
  | Some t ->
    let t0 = t.clock () in
    Fun.protect
      ~finally:(fun () ->
        let dt = Float.max 0. (t.clock () -. t0) in
        let cell =
          match Hashtbl.find_opt t.queries name with
          | Some c -> c
          | None ->
            let c = { q_evals = 0; q_seconds = 0. } in
            Hashtbl.add t.queries name c;
            c
        in
        cell.q_evals <- cell.q_evals + 1;
        cell.q_seconds <- cell.q_seconds +. dt)
      (fun () -> with_scope t name f)

let with_phase name f =
  match !current with
  | None -> f ()
  | Some t ->
    let t0 = t.clock () in
    Fun.protect
      ~finally:(fun () ->
        let dt = Float.max 0. (t.clock () -. t0) in
        let cell =
          match Hashtbl.find_opt t.phases name with
          | Some c -> c
          | None ->
            let c = { p_calls = 0; p_seconds = 0. } in
            Hashtbl.add t.phases name c;
            c
        in
        cell.p_calls <- cell.p_calls + 1;
        cell.p_seconds <- cell.p_seconds +. dt)
      f

(* --------------------------------------------------------- snapshots *)

type rule_stat = {
  fires : int;
  triggers : int;
  matches : int;
  rule_seconds : float;
}

type atom_stat = { scanned : int; matched : int }

type round_stat = {
  round_count : int;
  round_seconds : float;
  minor_collections : int;
  major_collections : int;
  heap_words : int;
}

type query_stat = { evals : int; query_seconds : float }
type phase_stat = { calls : int; phase_seconds : float }

type snapshot = {
  rules : (string * rule_stat) list;
  atoms : ((string * int * string) * atom_stat) list;
  rounds : (int * round_stat) list;
  queries : (string * query_stat) list;
  phases : (string * phase_stat) list;
  plans : (string * string list) list;
}

let empty =
  { rules = []; atoms = []; rounds = []; queries = []; phases = []; plans = [] }

let sorted_bindings cmp tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> cmp a b)

let snapshot (t : t) =
  {
    rules =
      sorted_bindings String.compare t.rules (fun r ->
          { fires = r.r_fires; triggers = r.r_triggers;
            matches = r.r_matches; rule_seconds = r.r_seconds });
    atoms =
      sorted_bindings compare t.atoms (fun c ->
          { scanned = c.a_scanned; matched = c.a_matched });
    rounds =
      sorted_bindings compare t.rounds (fun c ->
          { round_count = c.rd_count; round_seconds = c.rd_seconds;
            minor_collections = c.rd_minor; major_collections = c.rd_major;
            heap_words = c.rd_heap });
    queries =
      sorted_bindings String.compare t.queries (fun c ->
          { evals = c.q_evals; query_seconds = c.q_seconds });
    phases =
      sorted_bindings String.compare t.phases (fun c ->
          { calls = c.p_calls; phase_seconds = c.p_seconds });
    plans =
      List.fold_right
        (fun (scope, desc) acc ->
          match acc with
          | (s, l) :: rest when s = scope -> (s, desc :: l) :: rest
          | _ -> (scope, [ desc ]) :: acc)
        (List.map fst (sorted_bindings compare t.plans Fun.id))
        [];
  }

(* Merge two sorted association lists, combining values under equal
   keys with [f]; keys only in one side pass through, so the result is
   sorted and the operation inherits [f]'s associativity. *)
let rec merge_assoc cmp f a b =
  match (a, b) with
  | [], l | l, [] -> l
  | (ka, va) :: ra, (kb, vb) :: rb ->
    let c = cmp ka kb in
    if c < 0 then (ka, va) :: merge_assoc cmp f ra b
    else if c > 0 then (kb, vb) :: merge_assoc cmp f a rb
    else (ka, f va vb) :: merge_assoc cmp f ra rb

let merge a b =
  {
    rules =
      merge_assoc String.compare
        (fun x y ->
          { fires = x.fires + y.fires;
            triggers = x.triggers + y.triggers;
            matches = x.matches + y.matches;
            rule_seconds = x.rule_seconds +. y.rule_seconds })
        a.rules b.rules;
    atoms =
      merge_assoc compare
        (fun x y ->
          { scanned = x.scanned + y.scanned; matched = x.matched + y.matched })
        a.atoms b.atoms;
    rounds =
      merge_assoc compare
        (fun x y ->
          { round_count = x.round_count + y.round_count;
            round_seconds = x.round_seconds +. y.round_seconds;
            minor_collections = x.minor_collections + y.minor_collections;
            major_collections = x.major_collections + y.major_collections;
            heap_words = max x.heap_words y.heap_words })
        a.rounds b.rounds;
    queries =
      merge_assoc String.compare
        (fun x y ->
          { evals = x.evals + y.evals;
            query_seconds = x.query_seconds +. y.query_seconds })
        a.queries b.queries;
    phases =
      merge_assoc String.compare
        (fun x y ->
          { calls = x.calls + y.calls;
            phase_seconds = x.phase_seconds +. y.phase_seconds })
        a.phases b.phases;
    plans =
      merge_assoc String.compare
        (fun x y -> List.sort_uniq String.compare (x @ y))
        a.plans b.plans;
  }

let find_rule s name = List.assoc_opt name s.rules
let find_atom s key = List.assoc_opt key s.atoms
let find_query s name = List.assoc_opt name s.queries
let find_phase s name = List.assoc_opt name s.phases
let find_plans s name = Option.value ~default:[] (List.assoc_opt name s.plans)

let selectivity a =
  if a.scanned = 0 then 0. else float_of_int a.matched /. float_of_int a.scanned

let total_rule_seconds s =
  List.fold_left (fun acc (_, r) -> acc +. r.rule_seconds) 0. s.rules

let total_query_seconds s =
  List.fold_left (fun acc (_, q) -> acc +. q.query_seconds) 0. s.queries

(* ------------------------------------------------------------ export *)

let to_json s =
  let rows l f = Json.List (List.map f l) in
  let int = Json.int and str s = Json.Str s and num f = Json.Num f in
  Json.Obj
    [ ("rules",
       rows s.rules (fun (name, r) ->
           Json.Obj
             [ ("rule", str name); ("fires", int r.fires);
               ("triggers", int r.triggers); ("matches", int r.matches);
               ("seconds", num r.rule_seconds) ]));
      ("atoms",
       rows s.atoms (fun ((scope, idx, pred), a) ->
           Json.Obj
             [ ("rule", str scope); ("atom", int idx); ("pred", str pred);
               ("scanned", int a.scanned); ("matched", int a.matched);
               ("selectivity", num (selectivity a)) ]));
      ("rounds",
       rows s.rounds (fun (n, r) ->
           Json.Obj
             [ ("round", int n); ("count", int r.round_count);
               ("seconds", num r.round_seconds);
               ("minor_collections", int r.minor_collections);
               ("major_collections", int r.major_collections);
               ("heap_words", int r.heap_words) ]));
      ("queries",
       rows s.queries (fun (name, q) ->
           Json.Obj
             [ ("query", str name); ("evals", int q.evals);
               ("seconds", num q.query_seconds) ]));
      ("phases",
       rows s.phases (fun (name, p) ->
           Json.Obj
             [ ("phase", str name); ("calls", int p.calls);
               ("seconds", num p.phase_seconds) ]));
      ("plans",
       rows s.plans (fun (scope, l) ->
           Json.Obj [ ("rule", str scope); ("plans", rows l str) ])) ]
