(* Engine-statistics sidecar: MAGIC, version, payload length, payload
   CRC, then a Binio-encoded Profile snapshot.  One CRC over the whole
   payload is enough here — unlike the snapshot/journal the sidecar is
   advisory, so on any damage the reader rejects the whole file and
   accumulation restarts rather than salvaging sections. *)

module Profile = Mdqa_obs.Profile

let magic = "MDQASTAT"
let version = 1
let path_of store = store ^ ".stats"

(* ---------------------------------------------------------- encoding *)

let encode_payload (s : Profile.snapshot) =
  let buf = Buffer.create 1024 in
  Binio.u32 buf (List.length s.Profile.rules);
  List.iter
    (fun (name, (r : Profile.rule_stat)) ->
      Binio.str buf name;
      Binio.i64 buf r.Profile.fires;
      Binio.i64 buf r.Profile.triggers;
      Binio.i64 buf r.Profile.matches;
      Binio.f64 buf r.Profile.rule_seconds)
    s.Profile.rules;
  Binio.u32 buf (List.length s.Profile.atoms);
  List.iter
    (fun ((scope, idx, pred), (a : Profile.atom_stat)) ->
      Binio.str buf scope;
      Binio.i64 buf idx;
      Binio.str buf pred;
      Binio.i64 buf a.Profile.scanned;
      Binio.i64 buf a.Profile.matched)
    s.Profile.atoms;
  Binio.u32 buf (List.length s.Profile.rounds);
  List.iter
    (fun (n, (r : Profile.round_stat)) ->
      Binio.i64 buf n;
      Binio.i64 buf r.Profile.round_count;
      Binio.f64 buf r.Profile.round_seconds;
      Binio.i64 buf r.Profile.minor_collections;
      Binio.i64 buf r.Profile.major_collections;
      Binio.i64 buf r.Profile.heap_words)
    s.Profile.rounds;
  Binio.u32 buf (List.length s.Profile.queries);
  List.iter
    (fun (name, (q : Profile.query_stat)) ->
      Binio.str buf name;
      Binio.i64 buf q.Profile.evals;
      Binio.f64 buf q.Profile.query_seconds)
    s.Profile.queries;
  Binio.u32 buf (List.length s.Profile.phases);
  List.iter
    (fun (name, (p : Profile.phase_stat)) ->
      Binio.str buf name;
      Binio.i64 buf p.Profile.calls;
      Binio.f64 buf p.Profile.phase_seconds)
    s.Profile.phases;
  Buffer.contents buf

let encode s =
  let payload = encode_payload s in
  let buf = Buffer.create (String.length payload + 32) in
  Buffer.add_string buf magic;
  Binio.u8 buf version;
  Binio.u32 buf (String.length payload);
  Binio.u32 buf (Crc32.digest payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

(* ---------------------------------------------------------- decoding *)

let read_list r f =
  let n = Binio.read_u32 r in
  List.init n (fun _ -> f r)

let decode_payload payload : Profile.snapshot =
  let r = Binio.reader payload in
  let rules =
    read_list r (fun r ->
        let name = Binio.read_str r in
        let fires = Binio.read_i64 r in
        let triggers = Binio.read_i64 r in
        let matches = Binio.read_i64 r in
        let rule_seconds = Binio.read_f64 r in
        (name, { Profile.fires; triggers; matches; rule_seconds }))
  in
  let atoms =
    read_list r (fun r ->
        let scope = Binio.read_str r in
        let idx = Binio.read_i64 r in
        let pred = Binio.read_str r in
        let scanned = Binio.read_i64 r in
        let matched = Binio.read_i64 r in
        ((scope, idx, pred), { Profile.scanned; matched }))
  in
  let rounds =
    read_list r (fun r ->
        let n = Binio.read_i64 r in
        let round_count = Binio.read_i64 r in
        let round_seconds = Binio.read_f64 r in
        let minor_collections = Binio.read_i64 r in
        let major_collections = Binio.read_i64 r in
        let heap_words = Binio.read_i64 r in
        ( n,
          { Profile.round_count; round_seconds; minor_collections;
            major_collections; heap_words } ))
  in
  let queries =
    read_list r (fun r ->
        let name = Binio.read_str r in
        let evals = Binio.read_i64 r in
        let query_seconds = Binio.read_f64 r in
        (name, { Profile.evals; query_seconds }))
  in
  let phases =
    read_list r (fun r ->
        let name = Binio.read_str r in
        let calls = Binio.read_i64 r in
        let phase_seconds = Binio.read_f64 r in
        (name, { Profile.calls; phase_seconds }))
  in
  if not (Binio.at_end r) then
    raise (Binio.Corrupt { offset = Binio.pos r; reason = "trailing bytes" });
  { Profile.rules; atoms; rounds; queries; phases; plans = [] }

let read ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | exception End_of_file -> Error (path ^ ": truncated sidecar")
  | raw -> (
    let header_len = String.length magic + 1 + 4 + 4 in
    if String.length raw < header_len then Error (path ^ ": truncated header")
    else if String.sub raw 0 (String.length magic) <> magic then
      Error (path ^ ": bad magic")
    else
      let r = Binio.reader ~offset:0 (String.sub raw (String.length magic)
                                        (String.length raw - String.length magic))
      in
      match
        let v = Binio.read_u8 r in
        if v <> version then
          raise
            (Binio.Corrupt
               { offset = Binio.pos r;
                 reason = Printf.sprintf "unsupported version %d" v });
        let len = Binio.read_u32 r in
        let crc = Binio.read_u32 r in
        let payload_start = String.length magic + Binio.pos r in
        if String.length raw - payload_start <> len then
          raise
            (Binio.Corrupt
               { offset = payload_start; reason = "payload length mismatch" });
        let payload = String.sub raw payload_start len in
        if Crc32.digest payload <> crc then
          raise
            (Binio.Corrupt { offset = payload_start; reason = "CRC mismatch" });
        decode_payload payload
      with
      | snap -> Ok snap
      | exception Binio.Corrupt { offset; reason } ->
        Error (Printf.sprintf "%s: corrupt sidecar at byte %d: %s" path offset
                 reason))

let write ~path snap = ignore (Snapshot.write_raw ~path (encode snap))

let record ~store snap =
  let path = path_of store in
  let prior =
    match read ~path with Ok s -> s | Error _ -> Profile.empty
  in
  write ~path (Profile.merge prior snap)
