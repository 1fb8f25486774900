(* Corruption triage and the salvage chain — the self-healing layer
   over {!Store}.

   [check] classifies damage without writing anything: it is the report
   behind [mdqa store verify].  [repair] executes the salvage chain —
   current snapshot + longest clean journal prefix, then the newest
   clean previous generation + journal replay, then (when the caller
   supplies one) a re-sync from a live peer — rewriting the store with
   the same tmp/fsync/rename discipline as every snapshot write.
   Damaged originals are never deleted: they are renamed into
   [<path>.d/quarantine/] before a fresh file takes their place, and
   every rewrite is ordered so that a crash at any point leaves a store
   no worse than the one repair started from. *)

module Diag = Mdqa_datalog.Diag
module Parser = Mdqa_datalog.Parser

type damage_kind =
  | Bad_header
  | Torn_tail
  | Crc_mismatch
  | Inapplicable
  | Unreadable
  | Bad_program

type damage = {
  file : string;
  kind : damage_kind;
  offset : int;
  reason : string;
}

type status = Clean | Salvageable | Unrepairable

type report = {
  path : string;
  status : status;
  damage : damage list;
  generations : int;
  plan : string option;
      (** the salvage stage [repair] would use (or used), human-readable *)
  repaired : bool;
  quarantined : string list;
  diags : Diag.t list;
  infos : string list;
}

let kind_name = function
  | Bad_header -> "bad-header"
  | Torn_tail -> "torn-tail"
  | Crc_mismatch -> "crc-mismatch"
  | Inapplicable -> "inapplicable-record"
  | Unreadable -> "unreadable"
  | Bad_program -> "bad-program"

let status_name = function
  | Clean -> "clean"
  | Salvageable -> "salvageable"
  | Unrepairable -> "unrepairable"

let exit_code r =
  match r.status with Clean -> 0 | Salvageable -> 2 | Unrepairable -> 1

(* --- classification --------------------------------------------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* The reader errors carry prose, not tags; triage keys on the stable
   phrases.  Classification only drives reporting — the salvage chain
   treats every kind the same way. *)
let classify_snapshot file (c : Snapshot.corruption) =
  let kind =
    if c.what = "file" then Unreadable
    else if c.what = "header" then Bad_header
    else if contains c.reason "remain" then Torn_tail
    else Crc_mismatch
  in
  { file; kind; offset = c.offset; reason = c.reason }

let classify_journal file (t : Journal.truncation) =
  let kind =
    if String.starts_with ~prefix:"unreadable journal" t.reason then Unreadable
    else if
      String.starts_with ~prefix:"bad or truncated journal header" t.reason
      || String.starts_with ~prefix:"unsupported journal version" t.reason
    then Bad_header
    else if String.starts_with ~prefix:"torn record" t.reason then Torn_tail
    else if
      contains t.reason "absent from snapshot"
      || contains t.reason "does not match"
    then Inapplicable
    else Crc_mismatch
  in
  { file; kind; offset = t.offset; reason = t.reason }

let pp_damage ppf d =
  Format.fprintf ppf "%s: byte %d (%s): %s" d.file d.offset (kind_name d.kind)
    d.reason

(* --- small file helpers ----------------------------------------------- *)

let file_size p =
  match (Unix.stat p).Unix.st_size with
  | s -> s
  | exception (Unix.Unix_error _ | Sys_error _) -> 0

let mkdir_p dir =
  let rec go d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let quarantine_dir path = path ^ ".d" ^ Filename.dir_sep ^ "quarantine"

(* Numbered destinations keep every incident's evidence. *)
let quarantine_dest ~path file =
  let dir = quarantine_dir path in
  mkdir_p dir;
  let base = Filename.basename file in
  let rec pick n =
    let d = Filename.concat dir (Printf.sprintf "%s.%d" base n) in
    if Sys.file_exists d then pick (n + 1) else d
  in
  pick 1

(* Move (never delete) a damaged original out of the way.  Rename, not
   copy: it needs no read permission on a sick file, it is atomic, and
   the repair that follows writes a complete fresh file at the original
   path. *)
let quarantine ~path file =
  if not (Sys.file_exists file) then None
  else begin
    let dest = quarantine_dest ~path file in
    Unix.rename file dest;
    Snapshot.fsync_dir (quarantine_dir path);
    Snapshot.fsync_dir (Filename.dirname file);
    Some dest
  end

(* Preserve a damaged original WITHOUT vacating its path: a hard link
   into quarantine keeps the sick inode alive while a replacement
   commits over the path by rename, so there is no instant where the
   store has no file at all.  Degrades to the rename on filesystems
   without hard links. *)
let quarantine_link ~path file =
  if not (Sys.file_exists file) then None
  else begin
    let dest = quarantine_dest ~path file in
    (match Unix.link file dest with
     | () -> ()
     | exception Unix.Unix_error (_, _, _) -> Unix.rename file dest);
    Snapshot.fsync_dir (quarantine_dir path);
    Snapshot.fsync_dir (Filename.dirname file);
    Some dest
  end

(* A salvage base must both decode and carry a program that still
   parses: [resume] needs the program, so an image with valid CRCs but
   unparseable program text (a writer bug, not bit rot) is no base. *)
let program_parses text =
  match Parser.parse_string text with
  | _ -> true
  | exception Parser.Error _ -> false

let snapshot_usable path =
  match Snapshot.read ~path with
  | Error _ -> false
  | Ok snap -> program_parses snap.Snapshot.program_text

(* The newest previous generation usable as a salvage base. *)
let first_clean_generation path =
  let n = Store.generations ~path in
  let rec go k =
    if k > n then None
    else if snapshot_usable (Store.generation_path path k) then Some k
    else go (k + 1)
  in
  go 1

(* --- check ------------------------------------------------------------ *)

type collector = {
  mutable ds : Diag.t list;
  mutable is_ : string list;
  mutable qs : string list;
}

let collector () = { ds = []; is_ = []; qs = [] }
let addd c d = c.ds <- d :: c.ds
let info c fmt = Printf.ksprintf (fun s -> c.is_ <- s :: c.is_) fmt

let finish c ~path ~status ~damage ~plan ~repaired =
  let tmp = path ^ ".tmp" in
  if Sys.file_exists tmp then
    addd c
      (Diag.make ~file:tmp Diag.Hint ~code:"H052"
         "stale temporary snapshot from an interrupted write; it is \
          ignored and will be overwritten");
  { path;
    status;
    damage;
    generations = Store.generations ~path;
    plan;
    repaired;
    quarantined = List.rev c.qs;
    diags = List.rev c.ds;
    infos = List.rev c.is_ }

let recovery_infos c jpath (r : Store.recovery) =
  info c "snapshot: %d relations, %d tuples, null base %d"
    (List.length (Mdqa_relational.Instance.relations r.instance))
    (Mdqa_relational.Instance.total_tuples r.instance)
    r.null_base;
  info c "chase state: %d rounds, %d TGD fires, %d EGD merges%s"
    r.stats.Mdqa_datalog.Chase.rounds r.stats.Mdqa_datalog.Chase.tgd_fires
    r.stats.Mdqa_datalog.Chase.egd_merges
    (match r.frontier with
     | Some f -> Printf.sprintf "; frontier of %d facts" (List.length f)
     | None -> "; no frontier (full first round on resume)");
  if Sys.file_exists jpath then
    info c "journal: %d records replayed" r.replayed
  else info c "journal: absent"

let snapshot_damage_text path = function
  | Some d ->
    Format.asprintf "snapshot corrupt: %a" pp_damage d
  | None -> Printf.sprintf "no snapshot at %s" path

(* Classify the store without writing anything.  The status maps to the
   verify/fsck exit-code contract: Clean 0, Salvageable 2 (warnings
   only), Unrepairable 1 (E032). *)
let check ~path =
  let c = collector () in
  let jpath = Store.journal_path path in
  (* The current snapshot is not a salvage base: probe the generation
     chain.  [dmg = None] means the snapshot is missing outright. *)
  let salvage_via_generations dmg =
    let damage = Option.to_list dmg in
    match first_clean_generation path with
    | Some k ->
      addd c
        (Diag.make ~file:path Diag.Warning ~code:"W051"
           (Printf.sprintf
              "%s; generation %d (%s) is clean — `mdqa store fsck \
               --repair` will salvage from it"
              (snapshot_damage_text path dmg)
              k
              (Store.generation_path path k)));
      finish c ~path ~status:Salvageable ~damage
        ~plan:
          (Some
             (Printf.sprintf "salvage from generation %d + journal replay" k))
        ~repaired:false
    | None ->
      addd c
        (Diag.make ~file:path Diag.Error ~code:"E023"
           (snapshot_damage_text path dmg));
      let gens = Store.generations ~path in
      addd c
        (Diag.make ~file:path Diag.Error ~code:"E032"
           (if gens = 0 then
              "store unrepairable: no clean snapshot and no previous \
               generation to salvage from"
            else
              Printf.sprintf
                "store unrepairable: no clean snapshot and none of the %d \
                 previous generation(s) decode cleanly"
                gens));
      finish c ~path ~status:Unrepairable ~damage ~plan:None ~repaired:false
  in
  let bad_program_damage ~line ~message =
    { file = path;
      kind = Bad_program;
      offset = 0;
      reason =
        Printf.sprintf "stored program no longer parses (line %d): %s" line
          message }
  in
  let snapshot_state =
    if not (Sys.file_exists path) then `Missing
    else
      match Snapshot.read ~path with
      | Ok _ -> `Ok
      | Error corr -> `Damaged (classify_snapshot path corr)
  in
  match snapshot_state with
  | `Ok -> (
    match Store.load ~path with
    | Error (Store.Bad_program { line; message }) ->
      (* deterministic, not a race: the image decodes (CRCs rule out
         bit rot) but its program text cannot drive a resume *)
      salvage_via_generations (Some (bad_program_damage ~line ~message))
    | Error ((Store.No_store _ | Store.Corrupt_snapshot _) as e) ->
      (* the snapshot decoded a moment ago; only a race can land here *)
      addd c
        (Diag.make ~file:path Diag.Error ~code:"E023"
           (Format.asprintf "%a" Store.pp_load_error e));
      addd c
        (Diag.make ~file:path Diag.Error ~code:"E032"
           "store unrepairable: it changed underneath the check; re-run");
      finish c ~path ~status:Unrepairable ~damage:[] ~plan:None
        ~repaired:false
    | Ok r -> (
      match Parser.parse_string r.program_text with
      | exception Parser.Error { line; message; _ } ->
        salvage_via_generations (Some (bad_program_damage ~line ~message))
      | _ -> (
        recovery_infos c jpath r;
        match r.journal_truncation with
        | None ->
          finish c ~path ~status:Clean ~damage:[] ~plan:None ~repaired:false
        | Some t ->
          let d = classify_journal jpath t in
          addd c
            (Diag.make ~file:jpath Diag.Warning ~code:"W046"
               (Format.asprintf
                  "journal truncated at %a (%s); %d records recovered"
                  Journal.pp_truncation t (kind_name d.kind) r.replayed));
          finish c ~path ~status:Salvageable ~damage:[ d ]
            ~plan:
              (Some
                 (Printf.sprintf
                    "fold the %d recovered journal records into a fresh \
                     snapshot and drop the damaged suffix"
                    r.replayed))
            ~repaired:false)))
  | `Missing -> salvage_via_generations None
  | `Damaged d -> salvage_via_generations (Some d)

(* --- repair ----------------------------------------------------------- *)

let snapshot_of_recovery (r : Store.recovery) =
  (* [frontier = None] forces a full (always sound) first round on
     resume: the recovered frontier may predate records the salvage
     dropped, and soundness beats one round of restart cost. *)
  { Snapshot.program_text = r.program_text;
    variant = r.variant;
    instance = r.instance;
    null_base = r.null_base;
    stats = r.stats;
    frontier = None }

let fresh_journal jpath =
  Journal.close (Journal.create ~path:jpath);
  Snapshot.fsync_dir (Filename.dirname jpath)

let note_quarantined c what = function
  | None -> ()
  | Some dest ->
    c.qs <- dest :: c.qs;
    addd c
      (Diag.make ~file:dest Diag.Hint ~code:"H056"
         (Printf.sprintf "damaged %s preserved in quarantine" what))

(* Execute the salvage chain.  Every stage is ordered so an I/O failure
   or crash mid-repair leaves the store recoverable by a later repair:
   the local stages commit new data (rename) before the old file leaves
   its path (the damaged snapshot is preserved by a hard link, not
   moved), and the peer re-sync stage — which must vacate the damaged
   files before the ship installs — moves them straight back when the
   sync fails, so an unrepairable store keeps its original bytes. *)
let repair ?resync ~path () =
  Mdqa_obs.Failpoint.hit "store.fsck";
  let pre = check ~path in
  if pre.status = Clean then
    { pre with infos = pre.infos @ [ "store is clean; nothing to repair" ] }
  else begin
    let c = collector () in
    let jpath = Store.journal_path path in
    let attempt () =
      match (pre.status, pre.plan) with
      | Salvageable, _ when Sys.file_exists path && snapshot_usable path ->
        (* Stage 1: clean snapshot, damaged journal.  Fold the valid
           prefix in, then retire the journal.  The new snapshot
           commits FIRST: a failure after it leaves the journal's valid
           prefix replaying as idempotent no-ops. *)
        let r = Result.get_ok (Store.load ~path) in
        let jsize = file_size jpath in
        ignore (Snapshot.write ~path (snapshot_of_recovery r));
        note_quarantined c "journal" (quarantine ~path jpath);
        fresh_journal jpath;
        (match r.journal_truncation with
         | Some t ->
           addd c
             (Diag.make ~file:jpath Diag.Warning ~code:"W052"
                (Printf.sprintf
                   "dropped %d journal bytes past the valid prefix (%s); \
                    %d records were recovered into the new snapshot"
                   (max 0 (jsize - t.offset))
                   t.reason r.replayed))
         | None -> ());
        info c "repaired: folded %d journal records into a fresh snapshot"
          r.replayed;
        Ok ()
      | Salvageable, _ -> (
        (* Stage 2: damaged snapshot, clean previous generation.  The
           journal is replayed over the older image as far as it
           applies — replay is idempotent and stops at the first record
           the generation cannot absorb. *)
        match first_clean_generation path with
        | None -> Error "the clean generation vanished mid-repair"
        | Some k ->
          let gpath = Store.generation_path path k in
          (match Store.load_from ~snapshot:gpath ~journal:jpath with
           | Error e ->
             Error (Format.asprintf "%a" Store.pp_load_error e)
           | Ok r ->
             let jsize = file_size jpath in
             (* hard-link the damaged image into quarantine, then let
                the replacement rename over it: evidence preserved with
                no instant where [path] has no snapshot *)
             note_quarantined c "snapshot" (quarantine_link ~path path);
             ignore (Snapshot.write ~path (snapshot_of_recovery r));
             note_quarantined c "journal" (quarantine ~path jpath);
             fresh_journal jpath;
             addd c
               (Diag.make ~file:path Diag.Warning ~code:"W051"
                  (Printf.sprintf
                     "salvaged from generation %d (%s); %d journal records \
                      replayed on top"
                     k gpath r.replayed));
             (match r.journal_truncation with
              | Some t ->
                addd c
                  (Diag.make ~file:jpath Diag.Warning ~code:"W052"
                     (Printf.sprintf
                        "dropped %d journal bytes the generation could not \
                         absorb (%s)"
                        (max 0 (jsize - t.offset))
                        t.reason))
              | None -> ());
             info c "repaired: salvaged from generation %d" k;
             Ok ()))
      | Unrepairable, _ -> (
        (* Stage 3: nothing local is salvageable; re-sync from a live
           peer when the caller gave us one.  The damaged files move to
           quarantine BEFORE the sync (a corrupt local image could
           otherwise fail the peer's divergence check), but a failed
           sync moves them straight back: an unrepairable store is left
           byte-identical, not emptied into quarantine. *)
        match resync with
        | None -> Error "no local copy is salvageable"
        | Some sync ->
          let qs = quarantine ~path path in
          let qj = quarantine ~path jpath in
          (match sync () with
           | Ok () ->
             note_quarantined c "snapshot" qs;
             note_quarantined c "journal" qj;
             info c "repaired: store re-synced from peer";
             Ok ()
           | Error msg ->
             let restore what orig = function
               | None -> ()
               | Some dest ->
                 if Sys.file_exists orig then
                   (* the failed sync left something here; keep it and
                      keep the evidence where it is *)
                   note_quarantined c what (Some dest)
                 else begin
                   Unix.rename dest orig;
                   Snapshot.fsync_dir (Filename.dirname orig)
                 end
             in
             restore "snapshot" path qs;
             restore "journal" jpath qj;
             Error (Printf.sprintf "peer re-sync failed: %s" msg)))
      | Clean, _ -> Ok ()
    in
    let outcome =
      match attempt () with
      | r -> r
      | exception e -> Error (Printexc.to_string e)
    in
    match outcome with
    | Ok () ->
      let post = check ~path in
      { post with
        damage = pre.damage;
        plan = pre.plan;
        repaired = post.status = Clean;
        quarantined = List.rev c.qs;
        diags = List.rev c.ds @ post.diags;
        infos = List.rev c.is_ @ post.infos }
    | Error why ->
      addd c
        (Diag.make ~file:path Diag.Error ~code:"E032"
           (Printf.sprintf "store unrepairable: %s" why));
      List.iter
        (fun d ->
          if d.Diag.code = "E023" then addd c d)
        pre.diags;
      { pre with
        status = Unrepairable;
        repaired = false;
        quarantined = List.rev c.qs;
        diags = List.rev c.ds }
  end

(* --- rendering -------------------------------------------------------- *)

module Json = Mdqa_obs.Json

let to_json r =
  let strs l = Json.List (List.map (fun s -> Json.Str s) l) in
  Json.Obj
    [ ("path", Json.Str r.path);
      ("status", Json.Str (status_name r.status));
      ("repaired", Json.Bool r.repaired);
      ("generations", Json.int r.generations);
      ("plan", Option.fold ~none:Json.Null ~some:(fun p -> Json.Str p) r.plan);
      ("damage",
       Json.List
         (List.map
            (fun d ->
              Json.Obj
                [ ("file", Json.Str d.file);
                  ("kind", Json.Str (kind_name d.kind));
                  ("offset", Json.int d.offset);
                  ("reason", Json.Str d.reason) ])
            r.damage));
      ("quarantined", strs r.quarantined);
      ("info", strs r.infos);
      (* the diagnostics ride as the same object `mdqa check --json`
         emits, so downstream tooling shares one parser *)
      ("report", Diag.to_json ~file:r.path r.diags) ]

let print_text r =
  List.iter print_endline r.infos;
  List.iter (fun d -> Format.printf "%a@." Diag.pp d) r.diags;
  (match r.plan with
   | Some p when not r.repaired -> Format.printf "salvage plan: %s@." p
   | _ -> ());
  Format.printf "status: %s%s (%a)@." (status_name r.status)
    (if r.repaired then " (repaired)" else "")
    Diag.pp_summary r.diags
