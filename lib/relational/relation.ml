(* Composite keys: the values of a tuple at an index's positions. *)
module Key = Hashtbl.Make (struct
  type t = Value.t array

  let equal a b =
    let n = Array.length a in
    let rec go i = i >= n || (Value.equal a.(i) b.(i) && go (i + 1)) in
    n = Array.length b && go 0

  let hash k = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 k
end)

type table = { positions : int array; buckets : Tuple.t list ref Key.t }

(* The indexes of one insertion history, shared by a relation and its
   copies.  [count] is the number of inserts the tables hold; the view
   whose own [inserts] equals it holds exactly those tuples and so owns
   the tables.  A view that has fallen behind (another view appended
   since) or has removed or rewritten tuples forks to a fresh set. *)
type shared = { mutable count : int; mutable tables : table list }

(* HyperLogLog with [registers] 6-bit registers per position, stored
   [registers] bytes per position in one [Bytes.t]. *)
let registers = 64

type t = {
  schema : Rel_schema.t;
  mutable tuples : Tuple.Set.t;
  mutable size : int;
  mutable inserts : int;  (* successful adds in this view's history *)
  mutable shared : shared;  (* one table per probed position set, lazily *)
  mutable handles : index list;  (* this view's, one per position set *)
  sketch : Bytes.t;
}

(* A handle remembers the history it was resolved in; a probe through a
   view that no longer owns it re-resolves first. *)
and index = {
  view : t;
  cols : int array;
  mutable owner : shared;
  mutable table : table;
}

let create schema =
  { schema; tuples = Tuple.Set.empty; size = 0; inserts = 0;
    shared = { count = 0; tables = [] }; handles = [];
    sketch = Bytes.make (registers * Rel_schema.arity schema) '\000' }

let owns r = r.inserts = r.shared.count
let fork r = r.shared <- { count = r.inserts; tables = [] }

let schema r = r.schema
let name r = Rel_schema.name r.schema
let arity r = Rel_schema.arity r.schema
let cardinal r = r.size
let is_empty r = r.size = 0

let key_of positions t = Array.map (Tuple.get t) positions

let table_insert tb t =
  let key = key_of tb.positions t in
  match Key.find_opt tb.buckets key with
  | Some b -> b := t :: !b
  | None -> Key.add tb.buckets key (ref [ t ])

(* Register j of position p takes the largest rank (1 + trailing zero
   bits above the 6 register bits) of any value hashed into it. *)
let rec rank h k = if k >= 25 || h land 1 = 1 then k else rank (h lsr 1) (k + 1)

let sketch_add sketch t =
  for p = 0 to Tuple.arity t - 1 do
    let h = Value.hash (Tuple.get t p) in
    let slot = (p * registers) + (h land (registers - 1)) in
    let k = rank (h lsr 6) 1 in
    if k > Char.code (Bytes.get sketch slot) then
      Bytes.set sketch slot (Char.chr k)
  done

let distinct r pos =
  if pos < 0 || pos >= arity r then
    invalid_arg
      (Printf.sprintf "Relation.distinct: position %d out of range" pos);
  if r.size = 0 then 0
  else begin
    let sum = ref 0. and zeros = ref 0 in
    for j = 0 to registers - 1 do
      let k = Char.code (Bytes.get r.sketch ((pos * registers) + j)) in
      if k = 0 then incr zeros;
      sum := !sum +. ldexp 1. (-k)
    done;
    let m = float_of_int registers in
    let raw = 0.709 *. m *. m /. !sum in
    let est =
      (* linear counting in the small range *)
      if raw <= 2.5 *. m && !zeros > 0 then m *. log (m /. float_of_int !zeros)
      else raw
    in
    max 1 (min r.size (int_of_float (Float.round est)))
  end

let check_arity r t =
  if Tuple.arity t <> arity r then
    invalid_arg
      (Printf.sprintf "Relation %s: arity mismatch (schema %d, tuple %d)"
         (name r) (arity r) (Tuple.arity t))

let add r t =
  check_arity r t;
  if Tuple.Set.mem t r.tuples then false
  else begin
    if not (owns r) then fork r;
    r.tuples <- Tuple.Set.add t r.tuples;
    r.size <- r.size + 1;
    r.inserts <- r.inserts + 1;
    r.shared.count <- r.inserts;
    List.iter (fun tb -> table_insert tb t) r.shared.tables;
    sketch_add r.sketch t;
    true
  end

let of_tuples schema ts =
  let r = create schema in
  List.iter (fun t -> ignore (add r t)) ts;
  r

let mem r t = Tuple.Set.mem t r.tuples

let remove r t =
  if not (Tuple.Set.mem t r.tuples) then false
  else begin
    r.tuples <- Tuple.Set.remove t r.tuples;
    r.size <- r.size - 1;
    (* Forking to fresh indexes is simpler than deleting from buckets,
       and leaves the tables of the other views alone; removals are
       rare (EGD merges rebuild wholesale).  The sketch keeps the
       value: a distinct count may only overestimate. *)
    fork r;
    true
  end

let iter f r = Tuple.Set.iter f r.tuples
let fold f r init = Tuple.Set.fold f r.tuples init
let to_list r = Tuple.Set.elements r.tuples
let to_set r = r.tuples

(* The view's table on [positions], forking first if it does not own
   its history's tables. *)
let resolve r positions =
  if not (owns r) then fork r;
  match List.find_opt (fun tb -> tb.positions = positions) r.shared.tables with
  | Some tb -> tb
  | None ->
    let tb = { positions; buckets = Key.create (max 16 r.size) } in
    Tuple.Set.iter (table_insert tb) r.tuples;
    r.shared.tables <- tb :: r.shared.tables;
    tb

let refresh ix =
  let r = ix.view in
  if not (r.shared == ix.owner && owns r) then begin
    ix.table <- resolve r ix.cols;
    ix.owner <- r.shared
  end

let index r positions =
  match List.find_opt (fun ix -> ix.cols = positions) r.handles with
  | Some ix ->
    refresh ix;
    ix
  | None ->
    let table = resolve r positions in
    let ix = { view = r; cols = positions; owner = r.shared; table } in
    r.handles <- ix :: r.handles;
    ix

let probe ix key =
  refresh ix;
  match Key.find_opt ix.table.buckets key with Some b -> !b | None -> []

let scan r binding =
  match binding with
  | [] -> to_list r
  | _ ->
    let positions = Array.of_list (List.map fst binding) in
    probe (index r positions) (Array.of_list (List.map snd binding))

let map_values r f =
  let tuples' =
    Tuple.Set.fold
      (fun t acc -> Tuple.Set.add (Tuple.map f t) acc)
      r.tuples Tuple.Set.empty
  in
  r.tuples <- tuples';
  r.size <- Tuple.Set.cardinal tuples';
  fork r;
  Bytes.fill r.sketch 0 (Bytes.length r.sketch) '\000';
  Tuple.Set.iter (sketch_add r.sketch) tuples'

let filter p r =
  let r' = create r.schema in
  iter (fun t -> if p t then ignore (add r' t)) r;
  r'

let copy r = { r with handles = []; sketch = Bytes.copy r.sketch }

let equal a b =
  Rel_schema.equal a.schema b.schema && Tuple.Set.equal a.tuples b.tuples

let pp ppf r =
  Format.fprintf ppf "@[<v2>%s = {" (name r);
  iter (fun t -> Format.fprintf ppf "@,%a" Tuple.pp t) r;
  Format.fprintf ppf "@]@,}"
