(* Composite keys: the values of a tuple at an index's positions. *)
module Key = Hashtbl.Make (struct
  type t = Value.t array

  let equal a b =
    let n = Array.length a in
    let rec go i = i >= n || (Value.equal a.(i) b.(i) && go (i + 1)) in
    n = Array.length b && go 0

  let hash k = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 k
end)

type index = { positions : int array; buckets : Tuple.t list ref Key.t }

(* HyperLogLog with [registers] 6-bit registers per position, stored
   [registers] bytes per position in one [Bytes.t]. *)
let registers = 64

type t = {
  schema : Rel_schema.t;
  mutable tuples : Tuple.Set.t;
  mutable size : int;
  mutable indexes : index list;  (* one per probed position set, built lazily *)
  sketch : Bytes.t;
}

let create schema =
  { schema; tuples = Tuple.Set.empty; size = 0; indexes = [];
    sketch = Bytes.make (registers * Rel_schema.arity schema) '\000' }

let schema r = r.schema
let name r = Rel_schema.name r.schema
let arity r = Rel_schema.arity r.schema
let cardinal r = r.size
let is_empty r = r.size = 0

let key_of positions t = Array.map (Tuple.get t) positions

let index_insert ix t =
  let key = key_of ix.positions t in
  match Key.find_opt ix.buckets key with
  | Some b -> b := t :: !b
  | None -> Key.add ix.buckets key (ref [ t ])

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
    r.tuples <- Tuple.Set.add t r.tuples;
    r.size <- r.size + 1;
    List.iter (fun ix -> index_insert ix t) r.indexes;
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
    (* Dropping the indexes is simpler than deleting from buckets;
       removals are rare (EGD merges rebuild wholesale).  The sketch
       keeps the value: a distinct count may only overestimate. *)
    r.indexes <- [];
    true
  end

let iter f r = Tuple.Set.iter f r.tuples
let fold f r init = Tuple.Set.fold f r.tuples init
let to_list r = Tuple.Set.elements r.tuples
let to_set r = r.tuples

let index r positions =
  match List.find_opt (fun ix -> ix.positions = positions) r.indexes with
  | Some ix -> ix
  | None ->
    let ix = { positions; buckets = Key.create (max 16 r.size) } in
    Tuple.Set.iter (index_insert ix) r.tuples;
    r.indexes <- ix :: r.indexes;
    ix

let probe ix key =
  match Key.find_opt ix.buckets key with Some b -> !b | None -> []

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
  r.indexes <- [];
  Bytes.fill r.sketch 0 (Bytes.length r.sketch) '\000';
  Tuple.Set.iter (sketch_add r.sketch) tuples'

let filter p r =
  let r' = create r.schema in
  iter (fun t -> if p t then ignore (add r' t)) r;
  r'

let copy r =
  { schema = r.schema; tuples = r.tuples; size = r.size; indexes = [];
    sketch = Bytes.copy r.sketch }

let equal a b =
  Rel_schema.equal a.schema b.schema && Tuple.Set.equal a.tuples b.tuples

let pp ppf r =
  Format.fprintf ppf "@[<v2>%s = {" (name r);
  iter (fun t -> Format.fprintf ppf "@,%a" Tuple.pp t) r;
  Format.fprintf ppf "@]@,}"
