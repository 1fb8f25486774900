module Diag = Mdqa_datalog.Diag
module Guard = Mdqa_datalog.Guard
module Failpoint = Mdqa_obs.Failpoint

(* --- frame codec ------------------------------------------------------- *)

(* u32 LE length prefix + payload, over a socketpair.  The parent end
   is nonblocking (it lives in the select loop); the child end blocks —
   a worker with nothing to do costs nothing. *)
module Frame = struct
  let max_payload = 1 lsl 26 (* 64 MiB: way past any reply we build *)

  let encode payload =
    let n = String.length payload in
    if n > max_payload then invalid_arg "Frame.encode: payload too large";
    let b = Bytes.create (4 + n) in
    Bytes.set_int32_le b 0 (Int32.of_int n);
    Bytes.blit_string payload 0 b 4 n;
    Bytes.to_string b

  type reader = { buf : Buffer.t; chunk : Bytes.t }

  let reader () = { buf = Buffer.create 256; chunk = Bytes.create 65536 }

  let decoded_length s =
    let v = Int32.to_int (Bytes.get_int32_le (Bytes.of_string s) 0) in
    if v < 0 || v > max_payload then None else Some v

  (* Pull every complete frame currently buffered; a partial frame
     stays put for the next readable event. *)
  let extract r =
    let rec go acc =
      let s = Buffer.contents r.buf in
      if String.length s < 4 then List.rev acc
      else
        match decoded_length s with
        | None -> raise Exit (* corrupt stream; caller treats as error *)
        | Some n ->
          if String.length s < 4 + n then List.rev acc
          else begin
            let payload = String.sub s 4 n in
            Buffer.clear r.buf;
            Buffer.add_substring r.buf s (4 + n) (String.length s - 4 - n);
            go (payload :: acc)
          end
    in
    go []

  let poll r fd =
    match Fdio.read_available fd r.chunk with
    | `Nothing -> `Nothing
    | `Eof -> `Eof
    | `Error e -> `Error e
    | `Data chunk -> (
      Buffer.add_string r.buf chunk;
      match extract r with
      | [] -> `Nothing
      | frames -> `Frames frames
      | exception Exit -> `Error "corrupt frame stream")

  (* Child side: block for one whole frame. *)
  let read_blocking fd =
    match Fdio.read_exact fd 4 with
    | Error `Eof -> None
    | Error (`Torn _ | `Unix _) -> None
    | Ok header -> (
      match decoded_length header with
      | None -> None
      | Some n -> (
        match Fdio.read_exact fd n with
        | Ok payload -> Some payload
        | Error _ -> None))
end

(* --- the one query path ------------------------------------------------ *)

type defaults = { timeout : float option; max_steps : int option }

(* Factored out of the server's inline branch so a reply is
   byte-identical whether it was computed in-process (workers = 0) or
   in a forked worker.  [stale] is the standby read path: complete
   answers get a W050 stale-read tag — the data is a replica of the
   primary's, correct as of the last applied journal frame but
   possibly behind it. *)
let answer_query ~svc ~defaults ?(stale = false) req =
  match req with
  | Protocol.Query { id; query; engine; timeout; max_steps } -> (
    let timeout =
      match timeout with Some _ -> timeout | None -> defaults.timeout
    in
    let max_steps =
      match max_steps with Some _ -> max_steps | None -> defaults.max_steps
    in
    match Service.query svc ?timeout ?max_steps ~engine query with
    | Service.Answers a ->
      let extra =
        if stale then
          [ ("stale", Jsonl.Bool true);
            ("warning", Jsonl.Str "W050");
            ("mnemonic", Jsonl.Str "stale-read") ]
        else []
      in
      ( Protocol.complete_reply ?id ~extra ~answers:(Some a) (),
        "complete",
        if stale then Some "W050" else None )
    | Service.Partial (a, e) ->
      ( Protocol.degraded_reply ?id
          ~reason:(Protocol.exhaustion_reason e)
          ~answers:(Some a)
          ~message:(Format.asprintf "%a" Guard.pp_exhaustion e)
          (),
        "degraded",
        None )
    | Service.Bad_query d ->
      (Protocol.error_reply ?id d, "error", Some d.Diag.code)
    | Service.Inconsistent msg ->
      ( Protocol.obj_reply ?id ~status:"error"
          [ ("inconsistent", Jsonl.Bool true); ("message", Jsonl.Str msg) ],
        "error",
        None ))
  | other ->
    (* the dispatcher never sends these; answer rather than die *)
    let id = Protocol.request_id other in
    ( Protocol.error_reply ?id
        (Diag.make Diag.Error ~code:"E024"
           (Printf.sprintf "worker cannot answer %S requests"
              (Protocol.request_kind other))),
      "error",
      Some "E024" )

(* Same crash-isolation contract as the inline path: one poisoned
   request costs one E027 reply, never the worker. *)
let answer_protected ~svc ~defaults req =
  match answer_query ~svc ~defaults req with
  | r -> r
  | exception e ->
    let id = Protocol.request_id req in
    ( Protocol.error_reply ?id
        (Diag.make Diag.Error ~code:"E027"
           (Printf.sprintf "request crashed: %s" (Printexc.to_string e))),
      "error",
      Some "E027" )

(* --- recycling --------------------------------------------------------- *)

type recycle = { max_requests : int; max_heap_mb : float }

let heap_mb () =
  let words = (Gc.quick_stat ()).Gc.heap_words in
  float_of_int (words * (Sys.word_size / 8)) /. (1024. *. 1024.)

let should_retire ~served ~heap_mb recycle =
  (recycle.max_requests > 0 && served >= recycle.max_requests)
  || (recycle.max_heap_mb > 0. && heap_mb > recycle.max_heap_mb)

(* --- reply envelope ---------------------------------------------------- *)

(* What travels back over the socketpair: the finished reply line plus
   enough bookkeeping for the parent to account it (status/code into
   the reply counters) and to mirror the child's failpoint hit
   counters into the parent registry (cumulative; the parent diffs
   against a per-spawn watermark). *)
let envelope ~line ~status ~code =
  Jsonl.to_string
    (Jsonl.Obj
       ([ ("status", Jsonl.Str status) ]
       @ (match code with
         | Some c -> [ ("code", Jsonl.Str c) ]
         | None -> [])
       @ [ ("line", Jsonl.Str line);
           ("fp",
            Jsonl.Obj
              (List.map
                 (fun (n, c) -> (n, Jsonl.Num (float_of_int c)))
                 (Failpoint.hits ()))) ]))

type parsed_reply = {
  line : string;
  status : string;
  code : string option;
  fp : (string * int) list;
}

let parse_envelope payload =
  match Jsonl.parse payload with
  | Error e -> Error e
  | Ok json -> (
    match (Jsonl.str_field "status" json, Jsonl.str_field "line" json) with
    | Some status, Some line ->
      let fp =
        match Jsonl.member "fp" json with
        | Some (Jsonl.Obj fields) ->
          List.filter_map
            (fun (n, v) ->
              Option.map (fun c -> (n, int_of_float c)) (Jsonl.to_num v))
            fields
        | _ -> []
      in
      Ok { line; status; code = Jsonl.str_field "code" json; fp }
    | _ -> Error "worker reply envelope missing status/line")

(* --- the child --------------------------------------------------------- *)

let child_loop ~svc ~defaults ~recycle fd =
  let served = ref 0 in
  let rec loop () =
    match Frame.read_blocking fd with
    | None -> Unix._exit 0 (* parent closed the pipe: clean retirement *)
    | Some request_line ->
      let line, status, code =
        match
          Failpoint.hit "worker.request";
          Protocol.parse_request request_line
        with
        | exception Failpoint.Injected name ->
          ( Protocol.error_reply
              (Diag.make Diag.Error ~code:"E027"
                 (Printf.sprintf "request crashed: injected failpoint %S"
                    name)),
            "error",
            Some "E027" )
        | Error d -> (Protocol.error_reply d, "error", Some d.Diag.code)
        | Ok req -> answer_protected ~svc ~defaults req
      in
      (match
         Fdio.write_all fd (Frame.encode (envelope ~line ~status ~code))
       with
      | Ok () -> ()
      | Error _ -> Unix._exit 0 (* parent went away *));
      incr served;
      if should_retire ~served:!served ~heap_mb:(heap_mb ()) recycle then
        Unix._exit 0
      else loop ()
  in
  loop ()

(* --- spawn / classify -------------------------------------------------- *)

type t = { pid : int; fd : Unix.file_descr; reader : Frame.reader }

let spawn ~svc ~defaults ~recycle ~on_child () =
  (* inherited stdio buffers flush in the child too unless emptied now *)
  flush stdout;
  flush stderr;
  let parent_end, child_end =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  match Unix.fork () with
  | 0 -> (
    let setup () =
      (try Unix.close parent_end with Unix.Unix_error _ -> ());
      on_child ();
      List.iter
        (fun s ->
          try Sys.set_signal s Sys.Signal_default
          with Invalid_argument _ | Sys_error _ -> ())
        [ Sys.sigterm; Sys.sigint; Sys.sigchld ];
      Fdio.ignore_sigpipe ();
      (* exactly one process may own the store file *)
      Service.disable_periodic_checkpoints svc
    in
    match setup () with
    | () -> child_loop ~svc ~defaults ~recycle child_end
    | exception _ -> Unix._exit 125)
  | pid ->
    (try Unix.close child_end with Unix.Unix_error _ -> ());
    Fdio.set_nonblock parent_end;
    { pid; fd = parent_end; reader = Frame.reader () }

let dispatch t ~write_deadline line =
  Fdio.write_all ~deadline:write_deadline t.fd (Frame.encode line)

let poll t = Frame.poll t.reader t.fd

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

type exit_class = Recycled | Crashed of string

let signal_name s =
  let known =
    [ (Sys.sigkill, "SIGKILL");
      (Sys.sigsegv, "SIGSEGV");
      (Sys.sigabrt, "SIGABRT");
      (Sys.sigbus, "SIGBUS");
      (Sys.sigterm, "SIGTERM");
      (Sys.sigint, "SIGINT");
      (Sys.sigfpe, "SIGFPE");
      (Sys.sigill, "SIGILL");
      (Sys.sigpipe, "SIGPIPE") ]
  in
  match List.assoc_opt s known with
  | Some n -> n
  | None -> Printf.sprintf "signal %d" s

let classify = function
  | Unix.WEXITED 0 -> Recycled
  | Unix.WEXITED n -> Crashed (Printf.sprintf "exit %d" n)
  | Unix.WSIGNALED s -> Crashed (signal_name s)
  | Unix.WSTOPPED s -> Crashed (Printf.sprintf "stopped by %s" (signal_name s))
