let log_src = Logs.Src.create "mdqa.chase" ~doc:"Datalog± chase engine"

module Log = (val Logs.src_log log_src)

module Instance = Mdqa_relational.Instance
module Relation = Mdqa_relational.Relation
module Tuple = Mdqa_relational.Tuple
module Value = Mdqa_relational.Value
module Metrics = Mdqa_obs.Metrics
module Trace = Mdqa_obs.Trace
module Profile = Mdqa_obs.Profile

type variant = Restricted | Oblivious

type failure =
  | Egd_clash of { egd : Egd.t; left : Value.t; right : Value.t }
  | Nc_violation of { nc : Nc.t; witness : Subst.t }

type outcome =
  | Saturated
  | Out_of_budget of Guard.exhaustion
  | Failed of failure

type stats = {
  rounds : int;
  tgd_fires : int;
  triggers_checked : int;
  nulls_created : int;
  egd_merges : int;
}

type derivation = {
  rule : string;
  premises : (string * Tuple.t) list;
}

type result = {
  instance : Instance.t;
  outcome : outcome;
  stats : stats;
  provenance : ((string * Tuple.t), derivation) Hashtbl.t option;
  null_base : int;
}

type checkpoint = {
  on_start : Instance.t -> unit;
  on_fact : string -> Tuple.t -> unit;
  on_merge : from_:Value.t -> into:Value.t -> unit;
  on_round :
    instance:Instance.t ->
    frontier:(string * Tuple.t list) list option ->
    stats ->
    unit;
  on_done : instance:Instance.t -> outcome -> stats -> unit;
}

let zero_stats =
  { rounds = 0;
    tgd_fires = 0;
    triggers_checked = 0;
    nulls_created = 0;
    egd_merges = 0 }

exception Stop of outcome

(* One past the largest null label among the tuples [iter] visits, and
   at least [floor]: fresh nulls from there on never collide with them. *)
let null_bound floor iter =
  let m = ref (floor - 1) in
  let note = function Value.Null k when k > !m -> m := k; false | _ -> false in
  iter (fun t -> ignore (Tuple.exists note t));
  !m + 1

(* The one scan of a fresh run or a resume: the caller's instance and
   the program facts merged into it. *)
let scan_nulls floor program inst =
  null_bound floor (fun f ->
      List.iter (fun a -> f (Atom.to_tuple a)) program.Program.facts;
      Instance.iter_facts (fun _ t -> f t) inst)

(* A trigger identity for the oblivious chase: rule name plus the image
   of its body under the match. *)
let trigger_key (tgd : Tgd.t) subst =
  ( tgd.Tgd.name,
    List.map
      (fun a -> Atom.to_tuple (Subst.apply_atom subst a))
      tgd.Tgd.body )

let run_internal ?(variant = Restricted) ?(semi_naive = true)
    ?(provenance = false) ?seed ?prior_provenance ?guard ?max_steps
    ?max_nulls ?checkpoint ?prior_stats ?metrics ~null_base program start =
  let guard =
    match guard with
    | Some g -> g
    | None ->
      Guard.create
        ~max_steps:(Option.value ~default:1_000_000 max_steps)
        ~max_nulls:(Option.value ~default:100_000 max_nulls)
        ()
  in
  let inst = Instance.copy start in
  Program.declare_predicates program inst;
  List.iter
    (fun f -> ignore (Instance.add_tuple inst (Atom.pred f) (Atom.to_tuple f)))
    program.Program.facts;
  (* [null_base] is above every null of [start], the program facts and
     the seed, and (on resume or extend) every null the prior run ever
     invented, including those merged away. *)
  let fresh = Value.Fresh.create ~start:null_base () in
  let prior = Option.value ~default:zero_stats prior_stats in
  let ck f = match checkpoint with Some c -> f c | None -> () in
  let prov : ((string * Tuple.t), derivation) Hashtbl.t option =
    match prior_provenance with
    | Some tbl -> Some (Hashtbl.copy tbl)
    | None -> if provenance then Some (Hashtbl.create 256) else None
  in
  let fired : (string * Tuple.t list, unit) Hashtbl.t = Hashtbl.create 256 in
  (* All chase accounting lives in the metrics registry; [stats] is
     derived from per-run baselines so a shared (service-lifetime)
     registry still yields correct per-run numbers. *)
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let c_rounds =
    Metrics.counter metrics ~help:"chase rounds completed"
      "mdqa_chase_rounds_total"
  and c_triggers =
    Metrics.counter metrics ~help:"chase triggers checked"
      "mdqa_chase_triggers_total"
  and c_fires =
    Metrics.counter metrics ~help:"TGD firings that derived a new fact"
      "mdqa_chase_tgd_fires_total"
  and c_nulls =
    Metrics.counter metrics ~help:"labelled nulls minted"
      "mdqa_chase_nulls_total"
  and c_merges =
    Metrics.counter metrics ~help:"EGD null merges applied"
      "mdqa_chase_egd_merges_total"
  and c_facts =
    Metrics.counter metrics ~help:"facts derived by TGD heads"
      "mdqa_chase_facts_total"
  in
  let base_rounds = Metrics.counter_value c_rounds
  and base_triggers = Metrics.counter_value c_triggers
  and base_fires = Metrics.counter_value c_fires
  and base_merges = Metrics.counter_value c_merges in
  (* Cost attribution: resolve the per-rule accumulator once per rule
     so the trigger loop pays field writes, not lookups.  [prof] is
     sampled once per run — installing a profiler mid-chase attributes
     from the next run on. *)
  let prof = Profile.installed () in
  let prof_rule =
    match prof with
    | None -> fun _ -> None
    | Some p -> fun name -> Some (Profile.rule p name)
  in
  (* The insertion log: every fact this run inserts or is seeded with,
     per predicate, newest first, stamped with the clock at insertion.
     [since.(i)] is the clock at TGD [i]'s last body enumeration; its
     delta is every fact stamped since.  [-1] enumerates in full: the
     first round of an unseeded run, naive mode, and after an EGD
     merge, which rewrites logged facts and so also clears the log. *)
  let log : (string, (int * Tuple.t) list) Hashtbl.t = Hashtbl.create 16 in
  let clock = ref 0 in
  let stamp pred t =
    let prev = Option.value ~default:[] (Hashtbl.find_opt log pred) in
    Hashtbl.replace log pred ((!clock, t) :: prev);
    incr clock
  in
  let stamped_since k pred =
    let rec go acc = function
      | (k', t) :: rest when k' >= k -> go (Tuple.Set.add t acc) rest
      | _ -> acc
    in
    go Tuple.Set.empty (Option.value ~default:[] (Hashtbl.find_opt log pred))
  in
  let since =
    Array.make
      (List.length program.Program.tgds)
      (if semi_naive && seed <> None then 0 else -1)
  in
  let forget () =
    Hashtbl.reset log;
    Array.fill since 0 (Array.length since) (-1)
  in
  (* Instantiate the head of [tgd] under [subst], inventing fresh nulls
     for existential variables; returns the ground head atoms. *)
  let instantiate_head (tgd : Tgd.t) subst =
    let subst =
      Term.Var_set.fold
        (fun v s ->
          Guard.count_null guard;
          Metrics.inc c_nulls;
          Subst.bind_exn s v (Term.Const (Value.Fresh.next fresh)))
        (Tgd.existential_vars tgd) subst
    in
    List.map (Subst.apply_atom subst) tgd.Tgd.head
  in

  (* Restricted-chase applicability: is there an extension of the match
     sending every head atom into the instance? *)
  let head_satisfied (tgd : Tgd.t) subst =
    Eval.exists ~guard inst (List.map (Subst.apply_atom subst) tgd.Tgd.head)
  in

  let fire_trigger prof_h (tgd : Tgd.t) subst =
    Metrics.inc c_triggers;
    Guard.count_step guard;
    (match prof_h with Some h -> Profile.add_trigger h | None -> ());
    let proceed =
      match variant with
      | Restricted -> not (head_satisfied tgd subst)
      | Oblivious ->
        let key = trigger_key tgd subst in
        if Hashtbl.mem fired key then false
        else begin
          Hashtbl.add fired key ();
          true
        end
    in
    if proceed then begin
      let head = instantiate_head tgd subst in
      let new_fact = ref false in
      let premises =
        lazy
          (List.map
             (fun a ->
               let ga = Subst.apply_atom subst a in
               (Atom.pred ga, Atom.to_tuple ga))
             tgd.Tgd.body)
      in
      List.iter
        (fun a ->
          let t = Atom.to_tuple a in
          if Instance.add_tuple inst (Atom.pred a) t then begin
            new_fact := true;
            Metrics.inc c_facts;
            ck (fun c -> c.on_fact (Atom.pred a) t);
            (match prov with
             | Some tbl ->
               if not (Hashtbl.mem tbl (Atom.pred a, t)) then
                 Hashtbl.replace tbl (Atom.pred a, t)
                   { rule = tgd.Tgd.name; premises = Lazy.force premises }
             | None -> ());
            stamp (Atom.pred a) t
          end)
        head;
      if !new_fact then begin
        Metrics.inc c_fires;
        match prof_h with Some h -> Profile.add_fire h | None -> ()
      end
    end
  in

  (* Enforce EGDs to fixpoint.  Returns true if any value was merged
     (in which case the insertion log is no longer valid). *)
  let rec apply_egds merged =
    let violation =
      List.find_map
        (fun (egd : Egd.t) ->
          List.find_map
            (fun s ->
              let a = Subst.apply_term s egd.Egd.lhs
              and b = Subst.apply_term s egd.Egd.rhs in
              match a, b with
              | Term.Const x, Term.Const y when not (Value.equal x y) ->
                Some (egd, x, y)
              | _ -> None)
            (Eval.answers ~guard inst egd.Egd.body))
        program.Program.egds
    in
    match violation with
    | None -> merged
    | Some (egd, x, y) ->
      let replace_work ~from ~into =
        Instance.map_values inst (fun v ->
            if Value.equal v from then into else v);
        ck (fun c -> c.on_merge ~from_:from ~into);
        (* keep recorded provenance keyed by the merged facts *)
        match prov with
        | None -> ()
        | Some tbl ->
          let remap_tuple t =
            Tuple.map (fun v -> if Value.equal v from then into else v) t
          in
          let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
          Hashtbl.reset tbl;
          List.iter
            (fun ((pred, t), d) ->
              Hashtbl.replace tbl
                (pred, remap_tuple t)
                { d with
                  premises =
                    List.map
                      (fun (p', t') -> (p', remap_tuple t'))
                      d.premises })
            entries
      in
      let replace ~from ~into =
        if Trace.active () then
          Trace.with_span "egd.merge"
            ~attrs:[ ("egd", egd.Egd.name) ]
            (fun () -> replace_work ~from ~into)
        else replace_work ~from ~into
      in
      (match Value.is_null x, Value.is_null y with
       | true, _ -> replace ~from:x ~into:y
       | false, true -> replace ~from:y ~into:x
       | false, false ->
         raise (Stop (Failed (Egd_clash { egd; left = x; right = y }))));
      Metrics.inc c_merges;
      Log.debug (fun m ->
          m "EGD %s merged %a into %a" egd.Egd.name Value.pp x Value.pp y);
      apply_egds true
  in

  let check_ncs () =
    List.iter
      (fun (nc : Nc.t) ->
        match Eval.first ~guard ~cmps:nc.Nc.cmps inst nc.Nc.body with
        | Some witness ->
          Log.info (fun m ->
              m "constraint %s violated under %a" nc.Nc.name Subst.pp witness);
          raise (Stop (Failed (Nc_violation { nc; witness })))
        | None -> ())
      program.Program.ncs
  in

  let current_stats () =
    { rounds = prior.rounds + (Metrics.counter_value c_rounds - base_rounds);
      tgd_fires = prior.tgd_fires + (Metrics.counter_value c_fires - base_fires);
      triggers_checked =
        prior.triggers_checked
        + (Metrics.counter_value c_triggers - base_triggers);
      nulls_created = prior.nulls_created + Value.Fresh.count fresh;
      egd_merges =
        prior.egd_merges + (Metrics.counter_value c_merges - base_merges) }
  in
  let outcome =
    Profile.with_phase "chase" @@ fun () ->
    try
      (* The durable base image: everything below is journaled as a
         delta against the instance at this point. *)
      ck (fun c -> c.on_start inst);
      (* EGDs and NCs must hold of the extensional data too. *)
      if apply_egds false then forget ();
      check_ncs ();
      (* Seeded facts (a resume frontier, an extension's new facts) are
         stamped like derived ones, so the first round sees them as
         every rule's delta. *)
      Option.iter
        (List.iter (fun (pred, t) ->
             if Instance.add_tuple inst pred t then
               ck (fun c -> c.on_fact pred t);
             stamp pred t))
        seed;
      let continue = ref true in
      while !continue do
        Mdqa_obs.Failpoint.hit "chase.round";
        Metrics.inc c_rounds;
        let round_no = Metrics.counter_value c_rounds - base_rounds in
        Log.debug (fun m ->
            m "round %d (%d facts so far)" round_no
              (Instance.total_tuples inst));
        Trace.with_span "chase.round"
          ~attrs:[ ("round", string_of_int round_no) ]
        @@ fun () ->
        Profile.with_round round_no
        @@ fun () ->
        let round_start = !clock in
        List.iteri
          (fun i (tgd : Tgd.t) ->
            let ph = prof_rule tgd.Tgd.name in
            let t0 = match prof with Some p -> Profile.now p | None -> 0. in
            let enumerate () =
              if since.(i) < 0 then Eval.answers ~guard inst tgd.Tgd.body
              else
                Eval.delta_answers ~guard inst
                  ~delta:(stamped_since since.(i))
                  tgd.Tgd.body
            in
            (* Atom-level scan/match statistics attribute to this rule
               only during its own body enumeration — applicability
               probes and EGD checks stay out of the tables. *)
            let triggers =
              match prof with
              | Some p -> Profile.with_scope p tgd.Tgd.name enumerate
              | None -> enumerate ()
            in
            if semi_naive then since.(i) <- !clock;
            (match ph with
             | Some h -> Profile.add_matches h (List.length triggers)
             | None -> ());
            (* For the restricted chase, matches differing only on
               head-irrelevant body variables are the same trigger;
               dedup on the frontier to avoid redundant head checks.
               The oblivious chase fires per full body match. *)
            let key_vars =
              match variant with
              | Restricted -> Tgd.frontier tgd
              | Oblivious -> Tgd.body_vars tgd
            in
            let seen = Hashtbl.create 16 in
            let trigger_loop () =
              List.iter
                (fun s ->
                  let key =
                    List.filter_map
                      (fun v -> Subst.value_of s v)
                      (Term.Var_set.elements key_vars)
                  in
                  if not (Hashtbl.mem seen key) then begin
                    Hashtbl.add seen key ();
                    fire_trigger ph tgd s
                  end)
                triggers
            in
            (* One [rule.fire] span per rule per round, around a loop
               that runs at least one trigger; per-fire attribution is
               the profiler's job. *)
            (match Trace.installed () with
             | Some tr when triggers <> [] ->
               let fires0 = Metrics.counter_value c_fires in
               let sp =
                 Trace.span_begin tr ~attrs:[ ("rule", tgd.Tgd.name) ]
                   "rule.fire"
               in
               Fun.protect trigger_loop ~finally:(fun () ->
                   Trace.span_end tr sp
                     ~attrs:
                       [ ( "fires",
                           string_of_int
                             (Metrics.counter_value c_fires - fires0) ) ])
             | _ -> trigger_loop ());
            match prof, ph with
            | Some p, Some h ->
              Profile.add_rule_seconds h (Profile.now p -. t0)
            | _ -> ())
          program.Program.tgds;
        let merged = apply_egds false in
        check_ncs ();
        if merged then forget ();
        continue := merged || !clock > round_start;
        (* Round boundary: a durable point.  Every rule has enumerated
           since [round_start], so the facts stamped since then are a
           superset of what any rule has yet to see; [None] after a
           merge, which invalidated them. *)
        ck (fun c ->
            let frontier =
              if merged then None
              else
                Some
                  (Hashtbl.fold
                     (fun pred _ acc ->
                       match
                         Tuple.Set.elements (stamped_since round_start pred)
                       with
                       | [] -> acc
                       | ts -> (pred, ts) :: acc)
                     log []
                  |> List.sort (fun (a, _) (b, _) -> String.compare a b))
            in
            c.on_round ~instance:inst ~frontier (current_stats ()))
      done;
      Saturated
    with
    | Stop o -> o
    | Guard.Exhausted e -> Out_of_budget e
  in
  let stats = current_stats () in
  ck (fun c -> c.on_done ~instance:inst outcome stats);
  { instance = inst; outcome; provenance = prov; stats;
    null_base = null_base + Value.Fresh.count fresh }

let run ?variant ?semi_naive ?provenance ?guard ?max_steps ?max_nulls
    ?checkpoint ?metrics program start =
  run_internal ?variant ?semi_naive ?provenance ?guard ?max_steps ?max_nulls
    ?checkpoint ?metrics ~null_base:(scan_nulls 1 program start) program start

let resume ?variant ?semi_naive ?guard ?max_steps ?max_nulls ?checkpoint
    ?frontier ?(null_base = 1) ?prior_stats ?metrics program image =
  (* An empty frontier would make the seeded first round see nothing
     new whatever the image contains; a full first round is the safe
     (and cheap, if truly saturated) interpretation. *)
  let seed = match frontier with Some (_ :: _ as l) -> Some l | _ -> None in
  run_internal ?variant ?semi_naive ?guard ?max_steps ?max_nulls ?checkpoint
    ?seed ?prior_stats ?metrics
    ~null_base:(scan_nulls null_base program image)
    program image

let extend ?guard ?max_steps ?max_nulls ?metrics program (prior : result)
    ~facts =
  (* The prior mark covers the prior instance and the program facts;
     only the new facts need a look. *)
  let null_base =
    null_bound prior.null_base (fun f -> List.iter (fun (_, t) -> f t) facts)
  in
  match prior.outcome with
  | Saturated ->
    run_internal ~seed:facts ?prior_provenance:prior.provenance
      ?guard ?max_steps ?max_nulls ?metrics ~null_base program prior.instance
  | _ ->
    let inst = Instance.copy prior.instance in
    List.iter (fun (pred, t) -> ignore (Instance.add_tuple inst pred t)) facts;
    run_internal ?guard ?max_steps ?max_nulls ?metrics
      ~provenance:(prior.provenance <> None) ~null_base program inst

let pp_outcome ppf = function
  | Saturated -> Format.pp_print_string ppf "saturated"
  | Out_of_budget e ->
    Format.fprintf ppf "out of budget: %a" Guard.pp_exhaustion e
  | Failed (Egd_clash { egd; left; right }) ->
    Format.fprintf ppf "failed: EGD %s equates distinct constants %a and %a"
      egd.Egd.name Value.pp left Value.pp right
  | Failed (Nc_violation { nc; witness }) ->
    Format.fprintf ppf "failed: constraint %s violated under %a" nc.Nc.name
      Subst.pp witness
