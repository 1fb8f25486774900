(* All deadlines here are absolute times on the Guard's monotonic
   clock: an NTP step must never spuriously expire (or extend) a write
   deadline or a select timeout.  Wall time is only for humans. *)
module Clock = Mdqa_datalog.Guard.Clock

let ignore_sigpipe () =
  (* Windows has no SIGPIPE; everything this library targets does. *)
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let set_nonblock fd = Unix.set_nonblock fd

let sleepf duration =
  let until = Clock.now () +. duration in
  let rec go () =
    let remaining = until -. Clock.now () in
    if remaining > 0. then
      match Unix.sleepf remaining with
      | () -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* One select over read fds that survives EINTR: with SIGCHLD arriving
   routinely from the worker pool, a signal mid-select retries with the
   timeout recomputed against the monotonic deadline instead of
   surfacing [Unix_error (EINTR, _, _)] to the event loop. *)
let select_read fds ~timeout =
  let deadline = Clock.now () +. Float.max 0. timeout in
  let rec go () =
    let remaining = Float.max 0. (deadline -. Clock.now ()) in
    match Unix.select fds [] [] remaining with
    | ready, _, _ -> Ok ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      if Clock.now () >= deadline then Ok [] else go ()
    | exception Unix.Unix_error (e, _, _) -> Error e
  in
  go ()

(* Wait until [fd] is writable or the deadline passes. *)
let wait_writable fd deadline =
  let rec go () =
    let timeout =
      match deadline with
      | None -> 1.0
      | Some d ->
        let remaining = d -. Clock.now () in
        if remaining <= 0. then -1.0 else remaining
    in
    if timeout < 0. then `Timeout
    else
      match Unix.select [] [ fd ] [] timeout with
      | _, _ :: _, _ -> `Writable
      | _ -> go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let write_all ?deadline fd s =
  let n = String.length s in
  let rec go off =
    if off >= n then Ok ()
    else
      match Unix.write_substring fd s off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        -> (
        match wait_writable fd deadline with
        | `Writable -> go off
        | `Timeout -> Error "write timed out")
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  go 0

let read_available fd buf =
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> `Eof
    | n -> `Data (Bytes.sub_string buf 0 n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      `Nothing
    | exception Unix.Unix_error (e, _, _) -> `Error (Unix.error_message e)
  in
  go ()

(* Blocking read of exactly [n] bytes; [None] on EOF at a record
   boundary, [Error] mid-record.  EINTR retries. *)
let read_exact fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off >= n then Ok (Bytes.to_string buf)
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> if off = 0 then Error `Eof else Error (`Torn off)
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (e, _, _) ->
        Error (`Unix (Unix.error_message e))
  in
  go 0
