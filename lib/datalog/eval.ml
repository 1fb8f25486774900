module Instance = Mdqa_relational.Instance
module Relation = Mdqa_relational.Relation
module Tuple = Mdqa_relational.Tuple
module Value = Mdqa_relational.Value

(* A term after slot assignment: body variables are numbered, and a
   match under construction is an array indexed by those numbers. *)
type arg = Slot of int | Const of Value.t

(* The tuples a body atom ranges over: the whole relation, only a delta
   set (the semi-naive delta atom), or the relation minus a delta set
   (atoms before the delta atom, so no match is produced twice). *)
type range = All | Only of Tuple.Set.t | Except of Tuple.Set.t

type item = {
  idx : int;  (* source position in the rule body: the stable atom id *)
  pred : string;
  rel : Relation.t;
  args : arg array;
  range : range;
  card : int;  (* tuples in range *)
}

(* How a plan step finds its candidates: a membership test when every
   position is bound, the exact bucket of the composite index on the
   bound positions, a walk over the delta set, or a full scan. *)
type access = Member | Index of int array | Delta of Tuple.Set.t | Scan

type cmp = { op : Atom.Cmp.op; lhs : arg; rhs : arg }

type step = {
  item : item;
  access : access;
  ix : Relation.index Lazy.t;  (* forced by the first Index probe *)
  key : arg array;  (* Member: every position; Index: the bound ones *)
  kbuf : Value.t array;  (* the key of the current probe *)
  binds : (int * int) array;  (* (position, slot) set from the candidate *)
  checks : (int * arg) array;  (* (position, value) the candidate must have *)
  keep : Tuple.t -> bool;
  cmps : cmp array;  (* comparisons decidable once this step is bound *)
  mutable probes : int;
  mutable scanned : int;
  mutable matched : int;
}

let value env = function Slot s -> env.(s) | Const c -> c

let arg_bound bound = function Slot s -> bound s | Const _ -> true

(* ----------------------------------------------------------- planning *)

(* Per item, per position: the distinct-count estimate (at least 1),
   read only if a plan needs it (a one-atom body outside a delta
   partition never does). *)
let distincts items =
  Array.map
    (fun it ->
      lazy
        (Array.init (Array.length it.args) (fun p ->
             float_of_int (max 1 (Relation.distinct it.rel p)))))
    items

(* Estimated tuples that [card] tuples of an atom with [args] yield per
   incoming binding when the slots satisfying [bound] are bound: [card]
   divided by the product of the distinct counts of the bound positions
   (a repeated variable binds at its first occurrence).  A probe of a
   partially bound atom is assumed to find something (at least 1); a
   membership test yields at most 1. *)
let fanout dist card args bound =
  if card = 0 then 0.
  else begin
    let d = ref 1. and all = ref true and local = ref [] in
    Array.iteri
      (fun p a ->
        match a with
        | Slot s when not (bound s || List.mem s !local) ->
          all := false;
          local := s :: !local
        | _ -> d := !d *. dist.(p))
      args;
    let est = float_of_int card /. !d in
    if !all then Float.min 1. est else Float.max 1. est
  end

let slot_mask it =
  Array.fold_left
    (fun m a -> match a with Slot s -> m lor (1 lsl s) | Const _ -> m)
    0 it.args

(* The join order minimising the sum of the estimated intermediate
   result sizes: exact subset dynamic programming up to [dp_atoms]
   atoms, greedy (smallest fan-out next) beyond, where 2^n subsets get
   too many.  Reads only cardinalities and distinct-count sketches.
   The greedy order is not a substitute below the cut: on the hospital
   rule [measurements_q_gen] it opens [patient_unit] before [day_time]
   and walks a patient's [measurements_c] of every day, per unit and
   day. *)
let dp_atoms = 10

let order items dist prebound nslots =
  let n = Array.length items in
  if n <= 1 then Array.init n Fun.id
  else begin
    if n <= dp_atoms && nslots < Sys.int_size then begin
      let full = (1 lsl n) - 1 in
      let pre =
        let m = ref 0 in
        Array.iteri (fun s b -> if b then m := !m lor (1 lsl s)) prebound;
        !m
      in
      let cost = Array.make (full + 1) infinity
      and size = Array.make (full + 1) 1.
      and last = Array.make (full + 1) 0
      and vars = Array.make (full + 1) pre in
      cost.(0) <- 0.;
      for m = 0 to full - 1 do
        if cost.(m) < infinity then
          for a = 0 to n - 1 do
            if m land (1 lsl a) = 0 then begin
              let bound s = vars.(m) land (1 lsl s) <> 0 in
              let it = items.(a) in
              let f = fanout (Lazy.force dist.(a)) it.card it.args bound in
              let sz = size.(m) *. f in
              let m' = m lor (1 lsl a) in
              if cost.(m) +. sz < cost.(m') then begin
                cost.(m') <- cost.(m) +. sz;
                size.(m') <- sz;
                last.(m') <- a;
                vars.(m') <- vars.(m) lor slot_mask items.(a)
              end
            end
          done
      done;
      let out = Array.make n 0 in
      let m = ref full in
      for k = n - 1 downto 0 do
        out.(k) <- last.(!m);
        m := !m lxor (1 lsl last.(!m))
      done;
      out
    end
    else begin
      let bound = Array.copy prebound and placed = Array.make n false in
      Array.init n (fun _ ->
          let best = ref (-1) and best_f = ref infinity in
          Array.iteri
            (fun a it ->
              if not placed.(a) then
                let dist = Lazy.force dist.(a) in
                let f = fanout dist it.card it.args (Array.get bound) in
                if !best < 0 || f < !best_f then begin
                  best := a;
                  best_f := f
                end)
            items;
          placed.(!best) <- true;
          Array.iter
            (function Slot s -> bound.(s) <- true | Const _ -> ())
            items.(!best).args;
          !best)
    end
  end

let access_label = function
  | Member -> "member"
  | Delta _ -> "delta"
  | Scan -> "scan"
  | Index ps ->
    "index{"
    ^ String.concat "," (Array.to_list (Array.map string_of_int ps))
    ^ "}"

(* Compile the atoms in plan order: each becomes an access path on the
   positions bound by then, the slots it binds, the checks it needs
   (repeated variables, bound positions of a walked delta), its range
   filter and the comparisons it completes.  A slot fixed by [X = c]
   ([pushed]) keys its first atom by [c] but is bound there from the
   matched tuple, so answers carry the stored value.  [None] when some
   comparison can never be decided (a variable outside the body). *)
let compile items dist order pushed cmps =
  let bound = Array.map Option.is_some pushed
  and pushed = Array.copy pushed in
  let pending = ref cmps in
  let steps =
    Array.map
      (fun a ->
        let it = items.(a) in
        let keyed = ref [] and binds = ref [] and checks = ref [] in
        let binds_slot s = List.exists (fun (_, s') -> s' = s) !binds in
        Array.iteri
          (fun p arg ->
            match arg with
            | Slot s when not bound.(s) ->
              if binds_slot s then checks := (p, arg) :: !checks
              else binds := (p, s) :: !binds
            | Slot s when Option.is_some pushed.(s) ->
              if not (binds_slot s) then binds := (p, s) :: !binds;
              keyed := (p, Const (Option.get pushed.(s))) :: !keyed
            | _ -> keyed := (p, arg) :: !keyed)
          it.args;
        let keyed = Array.of_list (List.rev !keyed) in
        let positions = Array.map fst keyed in
        let all_keyed = Array.length keyed = Array.length it.args in
        (* The delta atom walks its delta unless the bucket of its
           bound positions is estimated smaller; then it probes and
           keeps delta facts. *)
        let bucket () =
          fanout (Lazy.force dist.(a)) (Relation.cardinal it.rel) it.args
            (Array.get bound)
        in
        let access =
          match it.range with
          | Only d when keyed = [||] || float_of_int it.card <= bucket () ->
            Delta d
          | _ ->
            if all_keyed then Member
            else if keyed = [||] then Scan
            else Index positions
        in
        List.iter
          (fun (_, s) ->
            bound.(s) <- true;
            pushed.(s) <- None)
          !binds;
        let keep =
          match access, it.range with
          | Delta _, _ | _, All -> fun _ -> true
          | _, Only d -> fun t -> Tuple.Set.mem t d
          | _, Except d ->
            if Tuple.Set.is_empty d then fun _ -> true
            else fun t -> not (Tuple.Set.mem t d)
        in
        let checks =
          match access with
          | Delta _ -> Array.append keyed (Array.of_list !checks)
          | _ -> Array.of_list !checks
        in
        let now, later =
          List.partition
            (fun c -> arg_bound (Array.get bound) c.lhs
                      && arg_bound (Array.get bound) c.rhs)
            !pending
        in
        pending := later;
        let key =
          match access with
          | Member | Index _ -> Array.map snd keyed
          | Delta _ | Scan -> [||]
        in
        { item = it;
          access;
          ix = lazy (Relation.index it.rel positions);
          key;
          kbuf = Array.make (Array.length key) (Value.Int 0);
          binds = Array.of_list !binds;
          checks;
          keep;
          cmps = Array.of_list now;
          probes = 0;
          scanned = 0;
          matched = 0 })
      order
  in
  if !pending = [] then Some steps else None

(* ---------------------------------------------------------- execution *)

let cmps_hold env cmps =
  Array.for_all
    (fun c -> Atom.Cmp.holds c.op (value env c.lhs) (value env c.rhs))
    cmps

(* Backtracking join over the compiled steps.  Every candidate tuple
   ticks the guard and every complete match consumes a row. *)
let run ~tick ~count_row env steps emit =
  let n = Array.length steps in
  let rec go k =
    if k = n then begin
      count_row ();
      emit env
    end
    else begin
      let st = steps.(k) in
      st.probes <- st.probes + 1;
      let visit t =
        tick ();
        st.scanned <- st.scanned + 1;
        for i = 0 to Array.length st.binds - 1 do
          let p, s = st.binds.(i) in
          env.(s) <- Tuple.get t p
        done;
        let rec checks i =
          i >= Array.length st.checks
          ||
          let p, a = st.checks.(i) in
          Value.equal (Tuple.get t p) (value env a) && checks (i + 1)
        in
        if checks 0 && st.keep t then begin
          st.matched <- st.matched + 1;
          if cmps_hold env st.cmps then go (k + 1)
        end
      in
      for i = 0 to Array.length st.key - 1 do
        st.kbuf.(i) <- value env st.key.(i)
      done;
      match st.access with
      | Scan -> Relation.iter visit st.item.rel
      | Delta d -> Tuple.Set.iter visit d
      | Index _ -> List.iter visit (Relation.probe (Lazy.force st.ix) st.kbuf)
      | Member -> (
        (* the stored tuple, which a pushed-down slot binds from *)
        let set = Relation.to_set st.item.rel in
        match Tuple.Set.find (Tuple.of_array st.kbuf) set with
        | t -> visit t
        | exception Not_found -> ())
    end
  in
  go 0

let describe steps =
  String.concat " > "
    (Array.to_list
       (Array.map
          (fun st ->
            Printf.sprintf "[%d] %s %s" st.item.idx st.item.pred
              (access_label st.access))
          steps))

(* With an attribution scope open (chase rule body or named query),
   report the plan and, per atom probed, the candidates walked and the
   substitutions surviving it. *)
let flush p steps =
  Mdqa_obs.Profile.plan p (describe steps);
  Array.iter
    (fun st ->
      if st.probes > 0 then
        Mdqa_obs.Profile.atom_visit p ~idx:st.item.idx ~pred:st.item.pred
          ~scanned:st.scanned ~matched:st.matched)
    steps

(* Plan, compile and run one body.  [range j] restricts atom [j]. *)
let search ?guard ?(cmps = []) ?(range = fun _ -> All) inst atoms ~emit =
  let names = ref [] and nslots = ref 0 in
  let slot v =
    match List.assoc_opt v !names with
    | Some s -> s
    | None ->
      let s = !nslots in
      incr nslots;
      names := (v, s) :: !names;
      s
  in
  let arg = function Term.Var v -> Slot (slot v) | Term.Const c -> Const c in
  let items =
    List.mapi
      (fun j (a : Atom.t) ->
        match Instance.find inst a.Atom.pred with
        | None -> None
        | Some rel ->
          let range = range j in
          Some
            { idx = j; pred = a.Atom.pred; rel; range;
              args = Array.map arg a.Atom.args;
              card =
                (match range with
                 | Only d -> Tuple.Set.cardinal d
                 | All | Except _ -> Relation.cardinal rel) })
      atoms
  in
  let in_body = !nslots in
  let cmps =
    List.map
      (fun (c : Atom.Cmp.t) ->
        { op = c.Atom.Cmp.op;
          lhs = arg c.Atom.Cmp.lhs;
          rhs = arg c.Atom.Cmp.rhs })
      cmps
  in
  let env = Array.make !nslots (Value.Int 0) in
  (* [X = c] fixes X before the join, so the constant drives the index
     of the first atom mentioning X (and, through the value bound
     there, of every later one). *)
  let pushed = Array.make !nslots None in
  let cmps =
    List.filter
      (fun c ->
        match c.op, c.lhs, c.rhs with
        | Atom.Cmp.Eq, Slot s, Const v | Atom.Cmp.Eq, Const v, Slot s
          when s < in_body && Option.is_none pushed.(s) ->
          env.(s) <- v;
          pushed.(s) <- Some v;
          false
        | _ -> true)
      cmps
  in
  let prebound = Array.map Option.is_some pushed in
  let now, cmps =
    List.partition
      (fun c -> arg_bound (Array.get prebound) c.lhs
                && arg_bound (Array.get prebound) c.rhs)
      cmps
  in
  if
    List.for_all Option.is_some items
    && cmps_hold env (Array.of_list now)
  then begin
    let items = Array.of_list (List.map Option.get items) in
    let dist = distincts items in
    let order = order items dist prebound (Array.length env) in
    match compile items dist order pushed cmps with
    | None -> ()
    | Some steps ->
      let tick, count_row =
        match guard with
        | Some g -> ((fun () -> Guard.tick g), fun () -> Guard.count_row g)
        | None -> (ignore, ignore)
      in
      let names = !names in
      let emit env =
        emit
          (List.fold_left
             (fun s (v, slot) -> Subst.bind_exn s v (Term.Const env.(slot)))
             Subst.empty names)
      in
      match Mdqa_obs.Profile.scoped () with
      | None -> run ~tick ~count_row env steps emit
      | Some p ->
        Fun.protect
          ~finally:(fun () -> flush p steps)
          (fun () -> run ~tick ~count_row env steps emit)
  end

let answers ?guard ?cmps inst atoms =
  let out = ref [] in
  search ?guard ?cmps inst atoms ~emit:(fun s -> out := s :: !out);
  List.rev !out

let answers_guarded ?guard ?cmps inst atoms =
  let out = ref [] in
  match search ?guard ?cmps inst atoms ~emit:(fun s -> out := s :: !out) with
  | () -> Guard.Complete (List.rev !out)
  | exception Guard.Exhausted e -> Guard.Degraded (List.rev !out, e)

exception Found of Subst.t

let first ?guard ?cmps inst atoms =
  try
    search ?guard ?cmps inst atoms ~emit:(fun s -> raise (Found s));
    None
  with Found s -> Some s

let exists ?guard ?cmps inst atoms =
  Option.is_some (first ?guard ?cmps inst atoms)

let holds_fact inst a =
  if not (Atom.is_ground a) then
    invalid_arg "Eval.holds_fact: atom is not ground";
  match Instance.find inst (Atom.pred a) with
  | None -> false
  | Some r -> Relation.mem r (Atom.to_tuple a)

(* Semi-naive enumeration: exactly the matches using at least one
   delta fact, partitioned so no match is produced twice: for each atom
   index i with a non-empty delta, atom i matches delta facts only,
   atoms before i non-delta facts only, atoms after i are
   unrestricted.  Each partition gets its own plan. *)
let delta_answers ?guard ?cmps inst ~delta atoms =
  let out = ref [] in
  let deltas = Array.of_list (List.map (fun a -> delta (Atom.pred a)) atoms) in
  Array.iteri
    (fun i d_i ->
      if not (Tuple.Set.is_empty d_i) then
        let range j =
          if j = i then Only d_i else if j < i then Except deltas.(j) else All
        in
        search ?guard ?cmps ~range inst atoms ~emit:(fun s -> out := s :: !out))
    deltas;
  List.rev !out
