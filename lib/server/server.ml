module Diag = Mdqa_datalog.Diag
module Guard = Mdqa_datalog.Guard
module Metrics = Mdqa_obs.Metrics
module Trace = Mdqa_obs.Trace
module Logger = Mdqa_obs.Logger
module Failpoint = Mdqa_obs.Failpoint
module Store = Mdqa_store.Store
module Scrub = Mdqa_store.Scrub
module Fsck = Mdqa_store.Fsck

type addr = Unix_path of string | Tcp of string * int

type config = {
  addr : addr;
  max_queue : int;
  max_clients : int;
  read_timeout : float;
  write_timeout : float;
  max_request_bytes : int;
  request_timeout : float option;
  request_max_steps : int option;
  drain_grace : float;
  workers : int;  (** 0 = answer queries inline (no forked pool) *)
  watchdog : float option;  (** per-request hang deadline for workers *)
  min_ready : int;  (** below this many live workers, shed with H054 *)
  worker_max_requests : int;  (** recycle a worker after this many; 0 = off *)
  worker_max_heap_mb : float;  (** recycle past this heap size; 0 = off *)
  scrub_interval : float option;
      (** seconds between online store-scrub steps; [None] = off *)
  scrub_budget : int;  (** bytes the scrubber verifies per step *)
}

let default_config addr =
  { addr;
    max_queue = 64;
    max_clients = 128;
    read_timeout = 10.;
    write_timeout = 10.;
    max_request_bytes = 1 lsl 20;
    request_timeout = None;
    request_max_steps = None;
    drain_grace = 5.;
    workers = 0;
    watchdog = None;
    min_ready = 1;
    worker_max_requests = 10_000;
    worker_max_heap_mb = 0.;
    scrub_interval = None;
    scrub_budget = 65536 }

type conn = {
  fd : Unix.file_descr;
  peer : string;
  buf : Buffer.t;
  mutable line_started : float option;
      (** when the oldest unfinished request line began arriving *)
  mutable alive : bool;
}

type state = {
  cfg : config;
  svc : Service.t;
  mutable conns : conn list;
  rbuf : Bytes.t;  (** scratch buffer for every socket read *)
  queue : (conn * Protocol.request * string) Admission.t;
      (** the raw line rides along: a dispatched request crosses the
          worker pipe verbatim *)
  mutable sup : Supervisor.t option;
  source : Replication.Source.t;
      (** the ship side of replication; inert until a standby fetches *)
  follower : Replication.Follower.t option;
      (** present iff this server started as a standby (--replica-of) *)
  mutable draining : bool;
  mutable drain_deadline : float;
  mutable degraded_events : int;
      (** requests degraded for server reasons (drain, dead pool), not
          budget *)
  mutable crashed : int;
  mutable scrub : Scrub.t option;
      (** the online store scrubber (present iff [scrub_interval] is
          set and the service has a store) *)
  mutable scrub_due : float;
  mutable scrub_repair_pending : bool;
      (** a scrub finding requested a one-shot repair; it runs on the
          next scrub tick, so the tripped-breaker state is observable
          for at least one scrape *)
  mutable scrub_bytes_seen : int;  (** folded into the counter so far *)
  mutable scrub_errors_seen : int;
  mutable trace_dropped_seen : int;
      (** span-ring evictions already folded into
          [mdqa_trace_dropped_total] *)
}

(* A promoted standby IS a primary — on the wire it says so, so a
   cascading follower can point at it.  The distinction survives in
   health fields and the role gauge. *)
let standby st =
  match st.follower with
  | Some f -> not (Replication.Follower.promoted f)
  | None -> false

let role_name st = if standby st then "standby" else "primary"

let role_gauge_value st =
  match st.follower with
  | None -> 0.
  | Some f -> if Replication.Follower.promoted f then 2. else 1.

(* Monotonic: deadlines (drain, write, slow-loris, watchdog) must not
   move when NTP steps the wall clock.  Wall time is only for logs. *)
let now () = Guard.Clock.now ()

let addr_string = function
  | Unix_path p -> p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

let close_conn c =
  if c.alive then (
    c.alive <- false;
    try Unix.close c.fd with Unix.Unix_error _ -> ())

let send st c line =
  if c.alive then
    match
      Fdio.write_all ~deadline:(now () +. st.cfg.write_timeout) c.fd line
    with
    | Ok () -> ()
    | Error _ -> close_conn c

(* Every reply leaving the server is accounted here, so the exposition's
   per-status totals always sum to the requests answered — the chaos
   harness holds us to that. *)
let send_reply st c ~status ?code line =
  let m = Service.metrics st.svc in
  Metrics.inc
    (Metrics.counter m ~help:"replies sent, by status"
       ~labels:[ ("status", status) ]
       "mdqa_server_replies_total");
  (match code with
  | Some code ->
    Metrics.inc
      (Metrics.counter m ~help:"replies carrying a diagnostic code"
         ~labels:[ ("code", code) ]
         "mdqa_server_diag_replies_total")
  | None -> ());
  send st c line

let count_shed st =
  Metrics.inc
    (Metrics.counter (Service.metrics st.svc)
       ~help:"requests or connections shed under overload"
       "mdqa_server_shed_total")

let worker_defaults cfg =
  { Worker.timeout = cfg.request_timeout; max_steps = cfg.request_max_steps }

(* Promotion: stop following, take ownership of the store (periodic
   checkpoints back on, one forced immediately so the new primary's
   authority over the bytes is durable).  The [repl.promote] failpoint
   fires first, so fault injection can kill the promotion path before
   any state changes — retrying is then safe. *)
let promote st ~reason =
  match st.follower with
  | Some f when not (Replication.Follower.promoted f) ->
    Failpoint.hit "repl.promote";
    Replication.Follower.mark_promoted f;
    Service.enable_periodic_checkpoints st.svc;
    ignore (Service.checkpoint st.svc ~force:true);
    Logger.info
      ~fields:
        [ ("reason", Logger.Str reason);
          ("old_primary", Logger.Str (Replication.Follower.primary_addr f)) ]
      "mdqa serve: standby promoted to primary (H055)";
    true
  | _ -> false

(* --- socket setup ----------------------------------------------------- *)

let listen_socket = function
  | Unix_path path ->
    if Sys.file_exists path then (
      try Unix.unlink path with Unix.Unix_error _ -> ());
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    Fdio.set_nonblock fd;
    fd
  | Tcp (host, port) ->
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    let inet =
      try Unix.inet_addr_of_string host
      with _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
    in
    Unix.bind fd (Unix.ADDR_INET (inet, port));
    Unix.listen fd 64;
    Fdio.set_nonblock fd;
    fd

let remove_unix_path = function
  | Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
  | Tcp _ -> ()

(* --- request answering ------------------------------------------------ *)

let server_fields st =
  [ ("queue",
     Jsonl.Obj
       [ ("depth", Jsonl.Num (float_of_int (Admission.length st.queue)));
         ("capacity", Jsonl.Num (float_of_int (Admission.capacity st.queue)));
         ("shed", Jsonl.Num (float_of_int (Admission.shed st.queue)));
         ("accepted",
          Jsonl.Num (float_of_int (Admission.accepted st.queue))) ]);
    ("connections",
     Jsonl.Num (float_of_int (List.length (List.filter (fun c -> c.alive) st.conns))));
    ("crashed_requests", Jsonl.Num (float_of_int st.crashed));
    ("draining", Jsonl.Bool st.draining);
    ("role", Jsonl.Str (role_name st)) ]
  @ (match st.follower with
    | Some f ->
      [ ("replication",
         Jsonl.Obj
           (Replication.Follower.lag_fields f
           @ [ ("promoted", Jsonl.Bool (Replication.Follower.promoted f)) ]))
      ]
    | None -> [])
  @ match st.sup with Some s -> Supervisor.health_fields s | None -> []

(* Refresh scrape-time gauges and render the Prometheus exposition.
   The reply counter for the metrics request itself is bumped after
   rendering, so an exposition never counts its own reply. *)
let exposition st =
  Service.record_metrics st.svc;
  let m = Service.metrics st.svc in
  let set name help v = Metrics.set (Metrics.gauge m ~help name) v in
  set "mdqa_server_admission_depth" "requests waiting in the admission queue"
    (float_of_int (Admission.length st.queue));
  set "mdqa_server_admission_capacity" "admission queue capacity"
    (float_of_int (Admission.capacity st.queue));
  set "mdqa_server_admission_accepted" "requests admitted to the queue"
    (float_of_int (Admission.accepted st.queue));
  set "mdqa_server_connections" "live client connections"
    (float_of_int (List.length (List.filter (fun c -> c.alive) st.conns)));
  set "mdqa_server_draining" "1 while the server drains"
    (if st.draining then 1. else 0.);
  set "mdqa_replication_role"
    "replication role (0=primary, 1=standby, 2=promoted standby)"
    (role_gauge_value st);
  (match Service.store_path st.svc with
  | Some p ->
    set "mdqa_store_generation" "previous snapshot generations on disk"
      (float_of_int (Store.generations ~path:p))
  | None -> ());
  (match st.sup with
  | Some s -> Supervisor.record_metrics s m
  | None -> ());
  (* Process heap health, so growth is observable without a bench run.
     [Gc.quick_stat] reads counters only — no heap traversal. *)
  let g = Gc.quick_stat () in
  set "mdqa_process_heap_words" "major heap size in words"
    (float_of_int g.Gc.heap_words);
  set "mdqa_process_minor_collections_total" "minor GC collections"
    (float_of_int g.Gc.minor_collections);
  set "mdqa_process_major_collections_total" "major GC collections"
    (float_of_int g.Gc.major_collections);
  (* Span-ring evictions, folded like the scrub counters: the tracer
     reports a lifetime total, the registry wants increments. *)
  (match Trace.installed () with
  | Some tr ->
    let dropped = Trace.dropped tr in
    Metrics.add
      (Metrics.counter m ~help:"trace spans evicted from the ring buffer"
         "mdqa_trace_dropped_total")
      (max 0 (dropped - st.trace_dropped_seen));
    st.trace_dropped_seen <- dropped
  | None -> ());
  Metrics.to_prometheus (Metrics.snapshot m)

let spans_json () =
  match Trace.installed () with
  | None -> Jsonl.List []
  | Some tr ->
    Jsonl.List
      (List.map
         (fun (e : Trace.event) ->
           Jsonl.Obj
             ([ ("name", Jsonl.Str e.Trace.name);
                ("ts", Jsonl.Num e.Trace.ts);
                ("dur", Jsonl.Num e.Trace.dur);
                ("depth", Jsonl.Num (float_of_int e.Trace.depth)) ]
             @
             match e.Trace.attrs with
             | [] -> []
             | attrs ->
               [ ("attrs",
                  Jsonl.Obj (List.map (fun (k, v) -> (k, Jsonl.Str v)) attrs))
               ]))
         (Trace.events tr))

let profile_json () =
  match Mdqa_obs.Profile.installed () with
  | None -> Jsonl.Obj []
  | Some p -> Mdqa_obs.Profile.to_json (Mdqa_obs.Profile.snapshot p)

let answer st conn req =
  let id = Protocol.request_id req in
  let compute () =
    match req with
    | Protocol.Ping _ ->
      (Protocol.complete_reply ?id ~answers:None (), "complete", None)
    | Protocol.Health _ ->
      ( Protocol.obj_reply ?id ~status:"complete"
          (Service.health_fields st.svc
          @ [ ("server", Jsonl.Obj (server_fields st)) ]),
        "complete",
        None )
    | Protocol.Ready _ ->
      let ok, reason = Service.ready st.svc in
      ( Protocol.obj_reply ?id ~status:"complete"
          [ ("ready", Jsonl.Bool ok); ("reason", Jsonl.Str reason) ],
        "complete",
        None )
    | Protocol.Metrics _ ->
      ( Protocol.obj_reply ?id ~status:"complete"
          [ ("exposition", Jsonl.Str (exposition st)) ],
        "complete",
        None )
    | Protocol.Spans _ ->
      ( Protocol.obj_reply ?id ~status:"complete"
          [ ("spans", spans_json ()) ],
        "complete",
        None )
    | Protocol.Profile _ ->
      ( Protocol.obj_reply ?id ~status:"complete"
          [ ("profile", profile_json ());
            ("installed",
             Jsonl.Bool (Mdqa_obs.Profile.active ())) ],
        "complete",
        None )
    | Protocol.Repl_status { acked; _ } ->
      if standby st then
        (* a standby reports its own follower state; it has no
           standbys of its own to record acks from *)
        ( Protocol.obj_reply ?id ~status:"complete"
            (("role", Jsonl.Str "standby")
            :: Replication.Follower.status_fields (Option.get st.follower)),
          "complete",
          None )
      else begin
        Option.iter (Replication.Source.record_ack st.source) acked;
        ( Protocol.obj_reply ?id ~status:"complete"
            (("role", Jsonl.Str "primary")
            :: Replication.Source.status_fields st.source),
          "complete",
          None )
      end
    | Protocol.Repl_fetch { what; offset; len; epoch; _ } ->
      if standby st then
        let d =
          Diag.make Diag.Error ~code:"E031"
            "this server is a standby; fetch from its primary"
        in
        (Protocol.error_reply ?id d, "error", Some "E031")
      else (
        match Replication.Source.fetch st.source ~what ~offset ~len ~epoch with
        | Ok fields ->
          (Protocol.obj_reply ?id ~status:"complete" fields, "complete", None)
        | Error d -> (Protocol.error_reply ?id d, "error", Some d.Diag.code))
    | Protocol.Promote _ ->
      if promote st ~reason:"requested" then
        ( Protocol.obj_reply ?id ~status:"complete"
            [ ("promoted", Jsonl.Bool true);
              ("code", Jsonl.Str "H055");
              ("mnemonic", Jsonl.Str "promoted") ],
          "complete",
          Some "H055" )
      else
        ( Protocol.obj_reply ?id ~status:"complete"
            [ ("promoted", Jsonl.Bool false);
              ("role", Jsonl.Str (role_name st));
              ("message", Jsonl.Str "already a primary") ],
          "complete",
          None )
    | Protocol.Query _ ->
      (* the same code path a forked worker runs, so a reply is
         byte-identical with or without the pool; a following standby
         tags complete answers with the W050 stale-read warning *)
      Worker.answer_query ~svc:st.svc ~defaults:(worker_defaults st.cfg)
        ~stale:(standby st) req
  in
  let reply, status, code =
    match compute () with
    | r -> r
    | exception e ->
      (* crash isolation: one poisoned request costs one error reply *)
      st.crashed <- st.crashed + 1;
      Metrics.inc
        (Metrics.counter (Service.metrics st.svc)
           ~help:"requests whose handler raised" "mdqa_server_crashed_total");
      Logger.error
        ~fields:[ ("error", Logger.Str (Printexc.to_string e)) ]
        "request crashed";
      ( Protocol.error_reply ?id
          (Diag.make Diag.Error ~code:"E027"
             (Printf.sprintf "request crashed: %s" (Printexc.to_string e))),
        "error",
        Some "E027" )
  in
  send_reply st conn ~status ?code reply;
  Service.request_served st.svc

(* answer never lets an exception out: the reply computation is wrapped
   above, and [send] reports socket failures by closing the conn.  Each
   request is timed into the latency histogram and carries a
   [serve.request] span when a tracer is installed. *)
let answer st conn req =
  let m = Service.metrics st.svc in
  let kind = Protocol.request_kind req in
  Metrics.inc
    (Metrics.counter m ~help:"requests received, by kind"
       ~labels:[ ("kind", kind) ]
       "mdqa_server_requests_total");
  let t0 = Guard.Clock.now () in
  (try
     Trace.with_span "serve.request"
       ~attrs:[ ("kind", kind) ]
       (fun () -> answer st conn req)
   with e ->
     st.crashed <- st.crashed + 1;
     Logger.error
       ~fields:[ ("error", Logger.Str (Printexc.to_string e)) ]
       "request handling crashed");
  Metrics.observe
    (Metrics.histogram m ~help:"request handling latency"
       "mdqa_server_request_seconds")
    (Guard.Clock.now () -. t0)

(* --- admission -------------------------------------------------------- *)

let handle_line st conn line =
  let line = String.trim line in
  if line <> "" then
    match Protocol.parse_request line with
    | Error d ->
      (* malformed request: answer and keep the connection; the peer
         may have well-formed requests behind it *)
      send_reply st conn ~status:"error" ~code:d.Diag.code
        (Protocol.error_reply d)
    | Ok req ->
      if st.draining then (
        st.degraded_events <- st.degraded_events + 1;
        send_reply st conn ~status:"degraded" ~code:"H053"
          (Protocol.degraded_reply
             ?id:(Protocol.request_id req)
             ~code:"H053" ~reason:"drain" ~answers:None
             ~message:"server is draining; retry against a fresh instance"
             ()))
      else if not (Admission.offer st.queue (conn, req, line)) then (
        count_shed st;
        send_reply st conn ~status:"degraded" ~code:"W047"
          (Protocol.degraded_reply
             ?id:(Protocol.request_id req)
             ~code:"W047" ~reason:"overload" ~answers:None
             ~message:
               (Printf.sprintf
                  "admission queue full (%d); request shed, retry with backoff"
                  (Admission.capacity st.queue))
             ()))

let rec drain_lines st conn =
  let s = Buffer.contents conn.buf in
  match String.index_opt s '\n' with
  | None ->
    if String.length s > st.cfg.max_request_bytes then (
      send_reply st conn ~status:"error" ~code:"E025"
        (Protocol.error_reply
           (Diag.make Diag.Error ~code:"E025"
              (Printf.sprintf "request exceeds %d bytes"
                 st.cfg.max_request_bytes)));
      close_conn conn)
    else if s = "" then conn.line_started <- None
    else if conn.line_started = None then conn.line_started <- Some (now ())
  | Some i ->
    let line = String.sub s 0 i in
    let rest_len = String.length s - i - 1 in
    Buffer.clear conn.buf;
    Buffer.add_substring conn.buf s (i + 1) rest_len;
    conn.line_started <- (if rest_len > 0 then Some (now ()) else None);
    if String.length line > st.cfg.max_request_bytes then (
      send_reply st conn ~status:"error" ~code:"E025"
        (Protocol.error_reply
           (Diag.make Diag.Error ~code:"E025"
              (Printf.sprintf "request exceeds %d bytes"
                 st.cfg.max_request_bytes)));
      close_conn conn)
    else (
      handle_line st conn line;
      if conn.alive then drain_lines st conn)

let feed st conn =
  match Fdio.read_available conn.fd st.rbuf with
  | `Nothing -> ()
  | `Eof | `Error _ -> close_conn conn
  | `Data chunk ->
    if conn.line_started = None then conn.line_started <- Some (now ());
    Buffer.add_string conn.buf chunk;
    drain_lines st conn

let check_slow_loris st =
  let t = now () in
  List.iter
    (fun c ->
      match c.line_started with
      | Some t0 when c.alive && t -. t0 > st.cfg.read_timeout ->
        send_reply st c ~status:"error" ~code:"E026"
          (Protocol.error_reply
             (Diag.make Diag.Error ~code:"E026"
                (Printf.sprintf
                   "request line not completed within %.1fs"
                   st.cfg.read_timeout)));
        close_conn c
      | _ -> ())
    st.conns

let rec accept_loop st lfd =
  match Unix.accept ~cloexec:true lfd with
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    ()
  | exception Unix.Unix_error _ -> ()
  | fd, sa ->
    Fdio.set_nonblock fd;
    let peer =
      match sa with
      | Unix.ADDR_UNIX _ -> "local"
      | Unix.ADDR_INET (a, p) ->
        Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
    in
    let c =
      { fd; peer; buf = Buffer.create 256; line_started = None; alive = true }
    in
    ignore c.peer;
    if
      List.length (List.filter (fun c -> c.alive) st.conns)
      >= st.cfg.max_clients
    then (
      (* connection-level shedding: refuse politely, don't hang *)
      count_shed st;
      send_reply st c ~status:"degraded" ~code:"W047"
        (Protocol.degraded_reply ~code:"W047" ~reason:"overload" ~answers:None
           ~message:"too many connections; retry with backoff" ());
      close_conn c)
    else st.conns <- c :: st.conns;
    accept_loop st lfd

(* --- dispatch to the pool --------------------------------------------- *)

(* The reply closure the supervisor invokes when the worker's frame
   (or its obituary) comes back: same accounting as an inline answer —
   reply counters via [send_reply], periodic checkpoints via
   [request_served], the latency histogram (measured dispatch-to-reply
   here) and the crash counter when the worker reported E027. *)
let dispatch_query st sup conn req line =
  let m = Service.metrics st.svc in
  let req_id = Protocol.request_id req in
  let t0 = now () in
  let reply ~status ~code out_line =
    (match code with
    | Some "E027" ->
      st.crashed <- st.crashed + 1;
      Metrics.inc
        (Metrics.counter m ~help:"requests whose handler raised"
           "mdqa_server_crashed_total")
    | _ -> ());
    send_reply st conn ~status ?code out_line;
    Service.request_served st.svc;
    Metrics.observe
      (Metrics.histogram m ~help:"request handling latency"
         "mdqa_server_request_seconds")
      (now () -. t0)
  in
  let accepted =
    Supervisor.dispatch sup ~line ~req_id
      ~write_deadline:(now () +. st.cfg.write_timeout)
      ~reply
  in
  if accepted then
    Metrics.inc
      (Metrics.counter m ~help:"requests received, by kind"
         ~labels:[ ("kind", Protocol.request_kind req) ]
         "mdqa_server_requests_total");
  accepted

let shed_dead_query st conn req =
  (* not enough live workers to promise progress: refuse the query
     outright rather than park it on a dead pool *)
  st.degraded_events <- st.degraded_events + 1;
  send_reply st conn ~status:"degraded" ~code:"H054"
    (Protocol.degraded_reply
       ?id:(Protocol.request_id req)
       ~code:"H054" ~reason:"workers" ~answers:None
       ~message:"worker pool unavailable (crash backoff); retry with backoff"
       ())

let process_queue st =
  match st.sup with
  | None ->
    let budget = ref (Admission.length st.queue) in
    while !budget > 0 do
      (match Admission.take st.queue with
       | None -> budget := 1
       | Some (conn, req, _line) -> answer st conn req);
      decr budget
    done
  | Some sup ->
    (* strict FIFO: a query head with no ready worker blocks the queue
       until a reply or a respawn frees one.  Below quorum, queries are
       refused outright (H054) instead of parking on a dead pool — but
       non-query requests are still answered inline: the control plane
       stays responsive through any worker storm. *)
    let continue = ref true in
    while !continue do
      match Admission.peek st.queue with
      | None -> continue := false
      | Some (conn, req, line) -> (
        match req with
        | Protocol.Query _ ->
          if not (Supervisor.quorum sup) then begin
            ignore (Admission.take st.queue);
            shed_dead_query st conn req
          end
          else if dispatch_query st sup conn req line then
            ignore (Admission.take st.queue)
          else continue := false
        | _ ->
          ignore (Admission.take st.queue);
          answer st conn req)
    done

let expire_queue st =
  let rec go () =
    match Admission.take st.queue with
    | None -> ()
    | Some (conn, req, _line) ->
      st.degraded_events <- st.degraded_events + 1;
      send_reply st conn ~status:"degraded" ~code:"H053"
        (Protocol.degraded_reply
           ?id:(Protocol.request_id req)
           ~code:"H053" ~reason:"drain" ~answers:None
           ~message:"drain deadline reached before this request ran" ());
      go ()
  in
  go ()

(* --- online scrub ------------------------------------------------------ *)

(* A scrub finding means the bytes under the server are not the bytes
   it wrote: trip the checkpoint breaker at once (evidence beats
   waiting for three checkpoint failures) and schedule one repair
   attempt for the next scrub tick — deferred a tick so the open
   breaker is scrapeable before repair heals it.  The service keeps
   answering from its in-memory fixpoint throughout. *)
let scrub_found st findings =
  List.iter
    (fun f ->
      Logger.warn
        ~fields:
          [ ("file", Logger.Str f.Scrub.file);
            ("offset", Logger.Int f.Scrub.offset);
            ("reason", Logger.Str f.Scrub.reason) ]
        "mdqa serve: scrub found store damage")
    findings;
  Breaker.trip (Service.breaker st.svc);
  st.scrub_repair_pending <- true

(* The one-shot repair: the fsck salvage chain, with a standby's
   stage 3 wired to a full re-sync from its primary (a standby's store
   must stay byte-identical to the primary's, so local salvage output
   would be divergence — re-shipping is the only honest repair). *)
let scrub_repair st =
  match Service.store_path st.svc with
  | None -> ()
  | Some path ->
    let resync =
      match st.follower with
      | Some f when not (Replication.Follower.promoted f) ->
        Some
          (fun () ->
            match Replication.Follower.initial_sync f with
            | Ok () -> Ok ()
            | Error d -> Error d.Diag.message)
      | _ -> None
    in
    Metrics.inc
      (Metrics.counter (Service.metrics st.svc)
         ~help:"scrub-triggered repair attempts"
         "mdqa_store_scrub_repairs_total");
    let rep = Fsck.repair ?resync ~path () in
    if rep.Fsck.repaired then
      Logger.info
        ~fields:
          [ ("path", Logger.Str path);
            ("quarantined",
             Logger.Str (String.concat "," rep.Fsck.quarantined)) ]
        "mdqa serve: scrub repair succeeded"
    else if rep.Fsck.status <> Fsck.Clean then
      Logger.error
        ~fields:
          [ ("path", Logger.Str path);
            ("status", Logger.Str (Fsck.status_name rep.Fsck.status)) ]
        "mdqa serve: scrub repair failed (E032); serving from memory only"

let scrub_tick st sc =
  let m = Service.metrics st.svc in
  if st.scrub_repair_pending then begin
    st.scrub_repair_pending <- false;
    (try scrub_repair st
     with e ->
       Logger.error
         ~fields:[ ("error", Logger.Str (Printexc.to_string e)) ]
         "mdqa serve: scrub repair crashed");
    (* restart the walk: the files under the scrubber just changed *)
    Scrub.close sc
  end
  else begin
    let findings = Scrub.tick sc in
    Metrics.add
      (Metrics.counter m ~help:"store bytes re-verified by the online scrubber"
         "mdqa_store_scrub_bytes_total")
      (max 0 (Scrub.bytes_scrubbed sc - st.scrub_bytes_seen));
    st.scrub_bytes_seen <- Scrub.bytes_scrubbed sc;
    Metrics.add
      (Metrics.counter m
         ~help:"store damage found by the online scrubber (injected faults \
                included)"
         "mdqa_store_scrub_errors_total")
      (max 0 (Scrub.errors_found sc - st.scrub_errors_seen));
    st.scrub_errors_seen <- Scrub.errors_found sc;
    if findings <> [] then scrub_found st findings
  end

(* --- the loop --------------------------------------------------------- *)

let drain_pipe fd =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read fd b 0 64 with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let run ?follower cfg svc =
  Fdio.ignore_sigpipe ();
  let lfd = listen_socket cfg.addr in
  let pr, pw = Unix.pipe ~cloexec:true () in
  Fdio.set_nonblock pr;
  Fdio.set_nonblock pw;
  let drain_flag = ref false in
  let wake () =
    try ignore (Unix.write pw (Bytes.of_string "x") 0 1)
    with Unix.Unix_error _ -> ()
  in
  let on_signal _ =
    drain_flag := true;
    wake ()
  in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
  let st =
    { cfg;
      svc;
      conns = [];
      rbuf = Bytes.create 65536;
      queue = Admission.create ~capacity:cfg.max_queue;
      sup = None;
      source =
        Replication.Source.create ~metrics:(Service.metrics svc)
          ~store_path:(Service.store_path svc);
      follower;
      draining = false;
      drain_deadline = 0.;
      degraded_events = 0;
      crashed = 0;
      scrub = None;
      scrub_due = 0.;
      scrub_repair_pending = false;
      scrub_bytes_seen = 0;
      scrub_errors_seen = 0;
      trace_dropped_seen = 0 }
  in
  (match (cfg.scrub_interval, Service.store_path svc) with
  | Some _, Some path ->
    st.scrub <- Some (Scrub.create ~budget:cfg.scrub_budget ~path ())
  | _ -> ());
  (* Fork the pool only now: the children share the warmed-up fixpoint
     copy-on-write, and [on_child] (run in each fresh child, at every
     respawn) closes whatever parent fds exist at that moment. *)
  let prev_chld = ref None in
  if cfg.workers > 0 then begin
    let on_child () =
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      (try Unix.close pr with Unix.Unix_error _ -> ());
      (try Unix.close pw with Unix.Unix_error _ -> ());
      List.iter
        (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
        st.conns
    in
    let spawn ~on_child =
      Worker.spawn ~svc ~defaults:(worker_defaults cfg)
        ~recycle:
          { Worker.max_requests = cfg.worker_max_requests;
            max_heap_mb = cfg.worker_max_heap_mb }
        ~on_child ()
    in
    st.sup <-
      Some
        (Supervisor.start ~metrics:(Service.metrics svc)
           ?watchdog:cfg.watchdog ~min_ready:cfg.min_ready ~count:cfg.workers
           ~spawn ~on_child ());
    (* SIGCHLD only wakes the select; the reap happens in the loop *)
    prev_chld :=
      Some (Sys.signal Sys.sigchld (Sys.Signal_handle (fun _ -> wake ())))
  end;
  let listener_open = ref true in
  Logger.info
    ~fields:
      [ ("addr", Logger.Str (addr_string cfg.addr));
        ("workers", Logger.Int cfg.workers) ]
    "mdqa serve: listening";
  let finished = ref false in
  while not !finished do
    if !drain_flag && not st.draining then (
      st.draining <- true;
      st.drain_deadline <- now () +. cfg.drain_grace;
      if !listener_open then (
        (try Unix.close lfd with Unix.Unix_error _ -> ());
        listener_open := false;
        remove_unix_path cfg.addr);
      Logger.info
        ~fields:[ ("grace_s", Logger.Float cfg.drain_grace) ]
        "mdqa serve: draining");
    st.conns <- List.filter (fun c -> c.alive) st.conns;
    (match st.sup with
    | Some sup ->
      ignore (Supervisor.reap sup);
      Supervisor.tick sup
    | None -> ());
    let worker_fds =
      match st.sup with Some sup -> Supervisor.fds sup | None -> []
    in
    let read_fds =
      (if !listener_open then [ lfd ] else [])
      @ (pr :: worker_fds)
      @ List.map (fun c -> c.fd) st.conns
    in
    let tmo =
      match st.sup with
      | None -> if Admission.is_empty st.queue then 0.25 else 0.
      | Some sup -> (
        (* queued work makes progress only via a worker event or a
           scheduled tick, both of which wake the select; no spin *)
        match Supervisor.next_wakeup sup with
        | None -> 0.25
        | Some at -> Float.min 0.25 (Float.max 0. (at -. now ())))
    in
    let tmo =
      (* don't let an idle select oversleep the next scrub step *)
      match st.scrub with
      | Some _ when not st.draining ->
        Float.min tmo (Float.max 0. (st.scrub_due -. now ()))
      | _ -> tmo
    in
    (match Fdio.select_read read_fds ~timeout:tmo with
     | Error Unix.EBADF ->
       (* a conn closed underneath us; the alive filter above cleans
          it up next iteration *)
       st.conns <- List.filter (fun c -> c.alive) st.conns
     | Error _ -> ()
     | Ok ready ->
       if List.mem pr ready then drain_pipe pr;
       (match st.sup with
       | Some sup ->
         List.iter
           (fun fd ->
             if List.mem fd ready then Supervisor.handle_readable sup fd)
           worker_fds
       | None -> ());
       if !listener_open && List.mem lfd ready then accept_loop st lfd;
       List.iter
         (fun c -> if c.alive && List.mem c.fd ready then feed st c)
         st.conns);
    check_slow_loris st;
    process_queue st;
    (* the standby's replication quantum: heartbeat / fetch / apply
       when the poll interval is due.  A crash here (including an
       injected repl.* failpoint surfacing through the fetch path)
       costs one tick, never the serve loop. *)
    (match st.follower with
    | Some f when (not (Replication.Follower.promoted f)) && not st.draining
      -> (
      match
        Replication.Follower.tick f
          ~apply:(fun records -> Service.apply_replicated st.svc records)
          ~resync:(fun snap -> Service.install_snapshot st.svc snap)
      with
      | `Idle | `Applied _ -> ()
      | `Lost -> (
        Logger.warn
          ~fields:
            [ ("primary",
               Logger.Str (Replication.Follower.primary_addr f)) ]
          "mdqa serve: primary lost; promoting standby";
        try ignore (promote st ~reason:"primary-loss")
        with e ->
          Logger.error
            ~fields:[ ("error", Logger.Str (Printexc.to_string e)) ]
            "mdqa serve: promotion failed")
      | exception e ->
        Logger.error
          ~fields:[ ("error", Logger.Str (Printexc.to_string e)) ]
          "mdqa serve: replication tick crashed")
    | _ -> ());
    (* the scrub quantum: bounded byte verification between requests.
       A crash here (including an injected store.fsck fault in the
       repair path) costs one tick, never the serve loop. *)
    (match (st.scrub, cfg.scrub_interval) with
    | Some sc, Some interval when (not st.draining) && now () >= st.scrub_due
      -> (
      st.scrub_due <- now () +. interval;
      try scrub_tick st sc
      with e ->
        Logger.error
          ~fields:[ ("error", Logger.Str (Printexc.to_string e)) ]
          "mdqa serve: scrub tick crashed")
    | _ -> ());
    if st.draining then begin
      if now () > st.drain_deadline then begin
        expire_queue st;
        match st.sup with
        | Some sup ->
          let aborted =
            Supervisor.abort_inflight sup ~code:"H053" ~reason:"drain"
              ~message:"drain deadline reached before this request finished"
          in
          st.degraded_events <- st.degraded_events + aborted
        | None -> ()
      end;
      let inflight =
        match st.sup with Some sup -> Supervisor.inflight sup | None -> 0
      in
      if Admission.is_empty st.queue && inflight = 0 then finished := true
    end
  done;
  List.iter close_conn st.conns;
  Sys.set_signal Sys.sigterm prev_term;
  Sys.set_signal Sys.sigint prev_int;
  (match !prev_chld with
  | Some prev -> Sys.set_signal Sys.sigchld prev
  | None -> ());
  (match st.sup with
  | Some sup -> Supervisor.shutdown sup ~grace:2.
  | None -> ());
  (try Unix.close pr with Unix.Unix_error _ -> ());
  (try Unix.close pw with Unix.Unix_error _ -> ());
  Option.iter Scrub.close st.scrub;
  Option.iter Replication.Follower.close st.follower;
  let checkpoint_failed =
    if standby st then
      (* a following standby never writes the store: its on-disk bytes
         are the primary's, and must stay byte-identical for the next
         sync to resume instead of re-shipping *)
      false
    else
      match Service.checkpoint svc ~force:true with
    | `Written bytes ->
      Logger.info
        ~fields:[ ("bytes", Logger.Int bytes) ]
        "mdqa serve: final checkpoint";
      false
    | `No_store -> false
    | `Breaker_open _ -> false
    | `Failed msg ->
      Logger.error
        ~fields:[ ("error", Logger.Str msg) ]
        "mdqa serve: final checkpoint failed";
      true
    | exception e ->
      Logger.error
        ~fields:[ ("error", Logger.Str (Printexc.to_string e)) ]
        "mdqa serve: final checkpoint failed";
      true
  in
  Service.close svc;
  Logger.info
    ~fields:
      [ ("requests", Logger.Int (Service.requests svc));
        ("shed", Logger.Int (Admission.shed st.queue));
        ("crashed", Logger.Int st.crashed);
        ("degraded", Logger.Int st.degraded_events);
        ("worker_restarts",
         Logger.Int
           (match st.sup with Some s -> Supervisor.restarts s | None -> 0))
      ]
    "mdqa serve: drained";
  if
    st.degraded_events > 0 || checkpoint_failed
    || not (Service.warm_saturated svc)
  then 2
  else 0
