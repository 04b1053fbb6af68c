open Stm_core

(* Event-derived run metrics: lifecycle counters, abort causes, and
   latency histograms. Unlike [Stats] (which the core increments
   directly), this is fed purely from the trace stream, so a snapshot
   can be taken around any window of a run and diffed. *)

type t = {
  mutable begins : int;
  mutable commits : int;
  mutable aborts : int;
  mutable wounds : int;
  mutable conflicts : int;
  mutable publishes : int;
  mutable quiesce_waits : int;
  mutable backoffs : int;
  mutable validations : int;
  mutable validation_failures : int;
  mutable cm_decisions : int;
  abort_causes : int array;  (* indexed by cause_index *)
  commit_latency : Hist.t;
  abort_latency : Hist.t;
  fairness : Stm_cm.Fairness.t;
  alloc_base : float;  (* Gc.allocated_bytes at creation *)
  mutable alloc_frozen : float option;  (* words, fixed by snapshot *)
}

let cause_index = function
  | Trace.Cause_conflict -> 0
  | Trace.Cause_validation -> 1
  | Trace.Cause_stale_lock -> 2
  | Trace.Cause_wounded -> 3
  | Trace.Cause_retry -> 4
  | Trace.Cause_exn -> 5
  | Trace.Cause_snapshot -> 6

let ncauses = 7

let all_causes =
  [
    Trace.Cause_conflict;
    Trace.Cause_validation;
    Trace.Cause_stale_lock;
    Trace.Cause_wounded;
    Trace.Cause_retry;
    Trace.Cause_exn;
    Trace.Cause_snapshot;
  ]

let create () =
  {
    begins = 0;
    commits = 0;
    aborts = 0;
    wounds = 0;
    conflicts = 0;
    publishes = 0;
    quiesce_waits = 0;
    backoffs = 0;
    validations = 0;
    validation_failures = 0;
    cm_decisions = 0;
    abort_causes = Array.make ncauses 0;
    commit_latency = Hist.create ();
    abort_latency = Hist.create ();
    fairness = Stm_cm.Fairness.create ();
    alloc_base = Gc.allocated_bytes ();
    alloc_frozen = None;
  }

(* Host-process words allocated over this metrics object's window: from
   creation until now (live object) or until the snapshot was taken.
   [Gc.allocated_bytes] reads the young pointer, so allocations still in
   the current minor chunk are included. *)
let alloc_bytes_so_far t =
  match t.alloc_frozen with
  | Some b -> b
  | None -> Gc.allocated_bytes () -. t.alloc_base

let host_alloc_words t =
  alloc_bytes_so_far t /. float_of_int (Sys.word_size / 8)

let handle t (ev : Trace.event) =
  match ev with
  | Trace.Txn_begin _ -> t.begins <- t.begins + 1
  | Trace.Txn_commit { tid; latency; _ } ->
      t.commits <- t.commits + 1;
      Stm_cm.Fairness.on_commit t.fairness ~tid;
      Hist.add t.commit_latency latency
  | Trace.Txn_abort { tid; cause; latency; _ } ->
      t.aborts <- t.aborts + 1;
      Stm_cm.Fairness.on_abort t.fairness ~tid ~wasted:latency;
      let i = cause_index cause in
      t.abort_causes.(i) <- t.abort_causes.(i) + 1;
      Hist.add t.abort_latency latency
  | Trace.Txn_wound _ -> t.wounds <- t.wounds + 1
  | Trace.Conflict _ -> t.conflicts <- t.conflicts + 1
  | Trace.Publish _ -> t.publishes <- t.publishes + 1
  | Trace.Quiesce_wait _ -> t.quiesce_waits <- t.quiesce_waits + 1
  | Trace.Backoff _ -> t.backoffs <- t.backoffs + 1
  | Trace.Validation { ok; _ } ->
      t.validations <- t.validations + 1;
      if not ok then t.validation_failures <- t.validation_failures + 1
  | Trace.Cm_decision _ -> t.cm_decisions <- t.cm_decisions + 1
  | Trace.Barrier _ | Trace.Access _ | Trace.Txn_serialized _ -> ()

let install t = Trace.set_sink ~level:Trace.Info (Some (handle t))

let snapshot t =
  {
    t with
    abort_causes = Array.copy t.abort_causes;
    commit_latency = Hist.copy t.commit_latency;
    abort_latency = Hist.copy t.abort_latency;
    fairness = Stm_cm.Fairness.copy t.fairness;
    alloc_frozen = Some (alloc_bytes_so_far t);
  }

let diff later earlier =
  {
    begins = later.begins - earlier.begins;
    commits = later.commits - earlier.commits;
    aborts = later.aborts - earlier.aborts;
    wounds = later.wounds - earlier.wounds;
    conflicts = later.conflicts - earlier.conflicts;
    publishes = later.publishes - earlier.publishes;
    quiesce_waits = later.quiesce_waits - earlier.quiesce_waits;
    backoffs = later.backoffs - earlier.backoffs;
    validations = later.validations - earlier.validations;
    validation_failures = later.validation_failures - earlier.validation_failures;
    cm_decisions = later.cm_decisions - earlier.cm_decisions;
    abort_causes =
      Array.init ncauses (fun i ->
          later.abort_causes.(i) - earlier.abort_causes.(i));
    commit_latency = Hist.sub later.commit_latency earlier.commit_latency;
    abort_latency = Hist.sub later.abort_latency earlier.abort_latency;
    fairness = Stm_cm.Fairness.sub later.fairness earlier.fairness;
    alloc_base = 0.;
    alloc_frozen = Some (alloc_bytes_so_far later -. alloc_bytes_so_far earlier);
  }

let begins t = t.begins
let fairness t = t.fairness
let commits t = t.commits
let aborts t = t.aborts
let abort_cause_count t cause = t.abort_causes.(cause_index cause)
let commit_latency t = t.commit_latency
let abort_latency t = t.abort_latency

let to_assoc t =
  [
    ("begins", t.begins);
    ("commits", t.commits);
    ("aborts", t.aborts);
    ("wounds", t.wounds);
    ("conflicts", t.conflicts);
    ("publishes", t.publishes);
    ("quiesce_waits", t.quiesce_waits);
    ("backoffs", t.backoffs);
    ("validations", t.validations);
    ("validation_failures", t.validation_failures);
    ("cm_decisions", t.cm_decisions);
  ]

let fairness_json t =
  let f = t.fairness in
  let per_thread =
    List.map
      (fun (tid, fields) ->
        (string_of_int tid, Json.of_assoc fields))
      (Stm_cm.Fairness.to_assoc f)
  in
  Json.Obj
    [
      ("jain_index", Json.Float (Stm_cm.Fairness.jain f));
      ("max_consec_aborts", Json.Int (Stm_cm.Fairness.max_consec_aborts f));
      ("per_thread", Json.Obj per_thread);
    ]

let to_json ?stats t =
  let causes =
    Json.Obj
      (List.map
         (fun c ->
           (Trace.string_of_cause c, Json.Int t.abort_causes.(cause_index c)))
         all_causes)
  in
  let base =
    [
      ("counters", Json.of_assoc (to_assoc t));
      ("abort_causes", causes);
      ("commit_latency", Hist.to_json t.commit_latency);
      ("abort_latency", Hist.to_json t.abort_latency);
      ("fairness", fairness_json t);
      ("host_alloc_words", Json.Float (host_alloc_words t));
    ]
  in
  let base =
    match stats with
    | None -> base
    | Some s -> base @ [ ("stats", Json.of_assoc (Stats.to_assoc s)) ]
  in
  Json.Obj base

let pp ppf t =
  Fmt.pf ppf "txns: %d begun, %d committed, %d aborted@." t.begins t.commits
    t.aborts;
  if t.aborts > 0 then
    Fmt.pf ppf "abort causes: %a@."
      Fmt.(list ~sep:comma (pair ~sep:(any "=") string int))
      (List.filter_map
         (fun c ->
           let n = t.abort_causes.(cause_index c) in
           if n > 0 then Some (Trace.string_of_cause c, n) else None)
         all_causes);
  Fmt.pf ppf "conflicts=%d wounds=%d backoffs=%d quiesce_waits=%d@."
    t.conflicts t.wounds t.backoffs t.quiesce_waits;
  if t.begins > 0 then
    Fmt.pf ppf "fairness: jain=%.4f max_consec_aborts=%d@."
      (Stm_cm.Fairness.jain t.fairness)
      (Stm_cm.Fairness.max_consec_aborts t.fairness);
  if Hist.count t.commit_latency > 0 then
    Fmt.pf ppf "commit latency (cycles): %a@." Hist.pp t.commit_latency;
  if Hist.count t.abort_latency > 0 then
    Fmt.pf ppf "abort latency (cycles): %a@." Hist.pp t.abort_latency
