(* In-memory span recorder for the traced run.

   Spans are recorded by the benchmark around its own calls into each
   layer's public functions; the library itself is not instrumented.
   With recording off, [with_span] is one branch on a bool ref, so the
   untraced run pays nothing measurable. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  start : float;
  stop : float;
  counts : (string * float) list;
}

let enabled = ref false
let recorded : t list ref = ref []
let open_stack : int list ref = ref []
let next_id = ref 0

let now = Unix.gettimeofday

(* [counts] reads per-call counts off the call's result; they are stored
   on the span, next to the minor words allocated and the major
   collections run inside it, so ratios are taken where the work
   happens. *)
let with_span ?(counts = fun _ -> []) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_stack with p :: _ -> p | [] -> -1 in
    open_stack := id :: !open_stack;
    let words0 = Gc.minor_words () in
    let majors0 = (Gc.quick_stat ()).Gc.major_collections in
    let start = now () in
    let close result_counts =
      let stop = now () in
      let gc =
        [ ("minor_words", Gc.minor_words () -. words0);
          ( "major_collections",
            float_of_int ((Gc.quick_stat ()).Gc.major_collections - majors0) )
        ]
      in
      open_stack := List.tl !open_stack;
      recorded :=
        { id; name; parent; start; stop; counts = result_counts @ gc }
        :: !recorded
    in
    match f () with
    | x ->
      close (counts x);
      x
    | exception e ->
      close [];
      raise e
  end

let spans () = List.rev !recorded

let clear () =
  recorded := [];
  open_stack := [];
  next_id := 0

(* Self time of every span: its duration minus the part its direct
   children cover (children never overlap: the recorder is
   single-threaded). *)
let self_times spans =
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          ((try Hashtbl.find child_time s.parent with Not_found -> 0.)
          +. (s.stop -. s.start)))
    spans;
  List.map
    (fun s ->
      let covered = try Hashtbl.find child_time s.id with Not_found -> 0. in
      (s, s.stop -. s.start -. covered))
    spans

let root_of spans =
  let parent = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace parent s.id s.parent) spans;
  let rec up id =
    match Hashtbl.find_opt parent id with
    | Some p when p >= 0 -> up p
    | _ -> id
  in
  up

let json_string s = Mdqa_server.Jsonl.to_string (Mdqa_server.Jsonl.Str s)

let write path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"id\": %d, \"name\": %s, \"parent\": %d, \"start\": %.6f, \
             \"end\": %.6f, \"counts\": {%s}}"
            (if i = 0 then "" else ",\n")
            s.id (json_string s.name) s.parent s.start s.stop
            (String.concat ", "
               (List.map
                  (fun (k, v) -> Printf.sprintf "%s: %.12g" (json_string k) v)
                  s.counts)))
        spans;
      output_string oc "\n]\n")

(* A root span timed by the caller: requests in flight on a select loop
   open and close out of call order. *)
let record name ~start ~stop =
  if !enabled then begin
    let id = !next_id in
    incr next_id;
    recorded := { id; name; parent = -1; start; stop; counts = [] } :: !recorded
  end
