(* Tests for the conflict-diagnosis layer: abort-cause exhaustiveness
   (the Metrics.all_causes guard), sink default-level routing
   (Recorder at Debug vs Metrics at Info), recorder ring wraparound,
   JSONL round-tripping of the abort-attribution fields, the heatmap /
   causality / flight-recorder pillars on synthetic streams, and an
   end-to-end diagnosis of the livelock-pair stress scenario. *)

open Stm_runtime
open Stm_core
open Stm_obs
open Stm_diag

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let case name f = Alcotest.test_case name `Quick f

let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

let in_sim f =
  let result = Sched.run f in
  (match result.Sched.exns with
  | [] -> ()
  | (tid, e) :: _ ->
      Alcotest.failf "thread %d raised %s" tid (Printexc.to_string e));
  Alcotest.(check bool) "completed" true (result.Sched.status = Sched.Completed)

(* Synthetic event builders. Event [tid]s match the envelope [tid]
   because the JSONL format carries the emitting thread only in the
   envelope. *)

let entry ?(ts = 0) ?(step = 0) ?(tid = 0) ev = { Recorder.ts; step; tid; ev }

let conflict ?(tid = 1) ?(oid = 7) ?(writer = false) ?(site = -1) () =
  Trace.Conflict { tid; oid; cls = "T"; writer; site }

let abort ?(txid = 1) ?(tid = 1) ?(wounded = false)
    ?(cause = Trace.Cause_conflict) ?(latency = 10) ?(by = -1) ?(by_tid = -1)
    ?(oid = -1) () =
  Trace.Txn_abort { txid; tid; wounded; cause; latency; by; by_tid; oid }

let commit ?(txid = 1) ?(tid = 1) () =
  Trace.Txn_commit { txid; tid; reads = 1; writes = 1; latency = 5 }

let decision ?(tid = 1) ?(txid = 1) ?(policy = "suicide")
    ?(decision = "abort-self") ?(owner = -1) ?(delay = 0) () =
  Trace.Cm_decision { tid; txid; policy; decision; owner; delay }

(* ------------------------------------------------------------------ *)
(* Abort-cause exhaustiveness (satellite 1)                            *)
(* ------------------------------------------------------------------ *)

(* The match below is the compile-time guard: adding a constructor to
   [Trace.abort_cause] breaks it (non-exhaustive match is an error in
   the dev profile), and the assertions then force [Metrics.all_causes]
   to grow with it. *)
let serialization_index (c : Trace.abort_cause) =
  match c with
  | Trace.Cause_conflict -> 0
  | Trace.Cause_validation -> 1
  | Trace.Cause_stale_lock -> 2
  | Trace.Cause_wounded -> 3
  | Trace.Cause_retry -> 4
  | Trace.Cause_exn -> 5
  | Trace.Cause_snapshot -> 6

let all_causes_exhaustive () =
  check_int "all_causes covers every constructor" 7
    (List.length Metrics.all_causes);
  List.iteri
    (fun i c -> check_int "serialization order" i (serialization_index c))
    Metrics.all_causes;
  let strs = List.map Trace.string_of_cause Metrics.all_causes in
  check_int "cause strings are distinct" 7
    (List.length (List.sort_uniq compare strs))

let every_cause_counted () =
  List.iter
    (fun c ->
      let m = Metrics.create () in
      Metrics.handle m (abort ~cause:c ());
      check_int (Trace.string_of_cause c) 1 (Metrics.abort_cause_count m c);
      List.iter
        (fun c' ->
          if c' <> c then
            check_int
              (Trace.string_of_cause c' ^ " stays zero")
              0
              (Metrics.abort_cause_count m c'))
        Metrics.all_causes)
    Metrics.all_causes

(* ------------------------------------------------------------------ *)
(* Subscriber levels                                                   *)
(* ------------------------------------------------------------------ *)

(* A subscriber's level is its own: a Conflict (Info) event reaches a
   recorder at either level, a Cm_decision (Debug) event only one
   subscribed at Debug. *)
let recorder_level_filters () =
  in_sim (fun () ->
      let emit_both () =
        Trace.emit (conflict ());
        Trace.emit (decision ())
      in
      let r = Recorder.create () in
      Trace.with_sinks [ (Trace.Debug, Recorder.record r) ] emit_both;
      check_int "recorder saw Info and Debug" 2 (Recorder.length r);
      Recorder.clear r;
      Trace.with_sinks [ (Trace.Info, Recorder.record r) ] emit_both;
      check_int "Info-level recorder filters Debug" 1 (Recorder.length r))

let metrics_at_info_never_builds () =
  in_sim (fun () ->
      let m = Metrics.create () in
      Trace.with_sinks [ (Trace.Info, Metrics.handle m) ] (fun () ->
          if Trace.enabled () then Trace.emit (abort ());
          (* an Info subscriber leaves the Debug and History guards off,
             so no call site builds those events *)
          if Trace.enabled_at Trace.Debug then
            Alcotest.fail "Debug event built under an Info sink";
          if Trace.enabled_at Trace.History then
            Alcotest.fail "History event built under an Info sink";
          Trace.emit (decision ()));
      check_int "Info event counted" 1 (Metrics.aborts m);
      (* handed a Debug event directly, as the diag pipeline does, it
         counts nothing *)
      let before = Metrics.to_assoc m in
      List.iter (Metrics.handle m)
        [
          decision ();
          Trace.Backoff { tid = 1; attempt = 0; delay = 5 };
          Trace.Validation { txid = 1; tid = 1; ok = false };
        ];
      Alcotest.(check (list (pair string int)))
        "Debug events change no counter" before (Metrics.to_assoc m))

let level_sanity () =
  check_bool "Conflict is Info" true
    (Trace.event_level (conflict ()) = Trace.Info);
  check_bool "Cm_decision is Debug" true
    (Trace.event_level (decision ()) = Trace.Debug);
  check_bool "Txn_serialized is History" true
    (Trace.event_level (Trace.Txn_serialized { txid = 1; tid = 0 }) = Trace.History)

(* ------------------------------------------------------------------ *)
(* Recorder ring wraparound (satellite 3)                              *)
(* ------------------------------------------------------------------ *)

let recorder_wraparound () =
  in_sim (fun () ->
      let r = Recorder.create ~capacity:4 () in
      for i = 1 to 4 do
        Recorder.record r (abort ~txid:i ())
      done;
      check_int "exactly capacity: nothing dropped" 0 (Recorder.dropped r);
      check_int "length at capacity" 4 (Recorder.length r);
      Recorder.record r (abort ~txid:5 ());
      check_int "capacity+1: one drop" 1 (Recorder.dropped r);
      check_int "length stays bounded" 4 (Recorder.length r);
      (match Recorder.entries r with
      | { Recorder.ev = Trace.Txn_abort { txid; _ }; _ } :: _ ->
          check_int "oldest entry evicted" 2 txid
      | _ -> Alcotest.fail "expected aborts in the window");
      (* interleaved: drops keep accumulating while recent stay intact *)
      for i = 6 to 8 do
        Recorder.record r (abort ~txid:i ())
      done;
      check_int "drops accumulate" 4 (Recorder.dropped r);
      match List.rev (Recorder.entries r) with
      | { Recorder.ev = Trace.Txn_abort { txid; _ }; _ } :: _ ->
          check_int "newest entry kept" 8 txid
      | _ -> Alcotest.fail "expected aborts in the window")

(* ------------------------------------------------------------------ *)
(* JSONL round trip of the attribution fields (satellite 3)            *)
(* ------------------------------------------------------------------ *)

let sample_entries =
  [
    entry ~ts:3 ~step:1 ~tid:1 (Trace.Txn_begin { txid = 1; tid = 1 });
    entry ~ts:9 ~step:2 ~tid:1 (conflict ~tid:1 ~oid:7 ~writer:true ~site:4 ());
    entry ~ts:12 ~step:3 ~tid:1
      (abort ~txid:1 ~tid:1 ~cause:Trace.Cause_stale_lock ~by:9 ~by_tid:2
         ~oid:7 ());
    entry ~ts:14 ~step:4 ~tid:2 (abort ~txid:2 ~tid:2 ~cause:Trace.Cause_retry ());
    entry ~ts:16 ~step:5 ~tid:1 (decision ~tid:1 ~txid:3 ~owner:9 ());
    entry ~ts:20 ~step:6 ~tid:2 (commit ~txid:3 ~tid:2 ());
  ]

let jsonl_roundtrip () =
  let buf = Buffer.create 256 in
  Export.to_jsonl buf sample_entries;
  let r = Ingest.of_string (Buffer.contents buf) in
  check_int "all lines parsed" (List.length sample_entries) r.Ingest.parsed;
  check_int "none skipped" 0 r.Ingest.skipped;
  check_bool "entries identical after round trip" true
    (r.Ingest.entries = sample_entries);
  (match List.nth r.Ingest.entries 2 with
  | { Recorder.ev = Trace.Txn_abort { by; by_tid; oid; cause; _ }; _ } ->
      check_int "by survives" 9 by;
      check_int "by_tid survives" 2 by_tid;
      check_int "oid survives" 7 oid;
      check_bool "cause survives" true (cause = Trace.Cause_stale_lock)
  | _ -> Alcotest.fail "expected the attributed abort");
  match List.nth r.Ingest.entries 3 with
  | { Recorder.ev = Trace.Txn_abort { by; by_tid; oid; _ }; _ } ->
      check_int "unattributed by" (-1) by;
      check_int "unattributed by_tid" (-1) by_tid;
      check_int "unattributed oid" (-1) oid
  | _ -> Alcotest.fail "expected the unattributed abort"

let jsonl_resolved_sites_roundtrip () =
  (* sites exported as resolved source labels re-intern on ingest and
     re-export to the identical line *)
  let resolve = function 4 -> Some "counter.jt:12" | _ -> None in
  let buf = Buffer.create 256 in
  Export.to_jsonl ~resolve buf sample_entries;
  let r = Ingest.of_string (Buffer.contents buf) in
  check_int "parsed" (List.length sample_entries) r.Ingest.parsed;
  let buf2 = Buffer.create 256 in
  Export.to_jsonl ~resolve:r.Ingest.resolve buf2 r.Ingest.entries;
  check_string "export . ingest is a fixpoint" (Buffer.contents buf)
    (Buffer.contents buf2)

let jsonl_skips_garbage () =
  let buf = Buffer.create 256 in
  Export.to_jsonl buf sample_entries;
  Buffer.add_string buf "not json at all\n";
  Buffer.add_string buf {|{"ev":"from_the_future","ts":1,"step":9,"tid":0}|};
  Buffer.add_char buf '\n';
  let r = Ingest.of_string (Buffer.contents buf) in
  check_int "good lines parsed" (List.length sample_entries) r.Ingest.parsed;
  check_int "bad lines counted" 2 r.Ingest.skipped

let chrome_carries_attribution () =
  let doc =
    Json.to_string (Export.to_chrome sample_entries)
  in
  check_bool "chrome abort args carry by" true (contains doc {|"by":9|});
  check_bool "chrome abort args carry by_tid" true
    (contains doc {|"by_tid":2|});
  check_bool "chrome abort args carry cause" true
    (contains doc {|"cause":"stale-lock"|})

(* ------------------------------------------------------------------ *)
(* Heatmap                                                             *)
(* ------------------------------------------------------------------ *)

let heatmap_accounting () =
  let h = Heatmap.create () in
  Heatmap.handle h (conflict ~oid:7 ~writer:false ~site:3 ());
  Heatmap.handle h (conflict ~oid:7 ~writer:true ~site:3 ());
  Heatmap.handle h (conflict ~oid:9 ());
  Heatmap.handle h (abort ~oid:7 ~by:2 ~by_tid:2 ~latency:25 ());
  Heatmap.handle h (abort ());
  (* oid -1: not charged *)
  check_int "distinct granules" 2 (Heatmap.distinct_granules h);
  check_int "conflict episodes" 3 (Heatmap.total_conflicts h);
  match Heatmap.cells h with
  | [ c7; c9 ] ->
      check_int "hottest first" 7 c7.Heatmap.oid;
      check_int "read conflicts" 1 c7.Heatmap.read_conflicts;
      check_int "write conflicts" 1 c7.Heatmap.write_conflicts;
      check_int "attributed aborts" 1 c7.Heatmap.aborts;
      check_int "wasted cycles" 25 c7.Heatmap.wasted;
      check_bool "site episode counts" true (c7.Heatmap.sites = [ (3, 2) ]);
      check_int "heat = conflicts + aborts" 3 (Heatmap.heat c7);
      check_int "cooler granule" 9 c9.Heatmap.oid
  | cells -> Alcotest.failf "expected 2 cells, got %d" (List.length cells)

let heatmap_grows () =
  let h = Heatmap.create () in
  for round = 1 to 2 do
    ignore round;
    for oid = 1 to 300 do
      Heatmap.handle h (conflict ~oid ())
    done
  done;
  check_int "all granules tracked across growth" 300
    (Heatmap.distinct_granules h);
  check_int "episodes" 600 (Heatmap.total_conflicts h);
  check_int "top-k bounded" 5 (List.length (Heatmap.top h ~k:5))

(* ------------------------------------------------------------------ *)
(* Causality                                                           *)
(* ------------------------------------------------------------------ *)

let causality_graph () =
  let c = Causality.create () in
  (* txn 1 (t1) dies first (unknown aggressor, granule 5); txn 2 (t2)
     is killed by txn 1; txns 3 and 4 are both killed by txn 2 *)
  Causality.handle c (abort ~txid:1 ~tid:1 ~oid:5 ~latency:10 ());
  Causality.handle c (abort ~txid:2 ~tid:2 ~by:1 ~by_tid:1 ~oid:5 ~latency:20 ());
  Causality.handle c (decision ~tid:3 ~txid:3 ~owner:2 ());
  Causality.handle c (abort ~txid:3 ~tid:3 ~by:2 ~by_tid:2 ~oid:5 ~latency:30 ());
  Causality.handle c (abort ~txid:4 ~tid:4 ~by:2 ~by_tid:2 ~oid:6 ~latency:5 ());
  Causality.handle c (commit ~txid:9 ~tid:1 ());
  check_int "attributed aborts" 4 (Causality.total_attributed c);
  (* edges *)
  let e32 =
    List.find
      (fun e -> e.Causality.victim_tid = 3 && e.Causality.aggr_tid = 2)
      (Causality.edges c)
  in
  check_int "edge count" 1 e32.Causality.count;
  check_int "edge wasted" 30 e32.Causality.wasted;
  check_bool "edge granule" true (e32.Causality.oids = [ (5, 1) ]);
  check_bool "edge cm decision" true
    (e32.Causality.decisions = [ ("abort-self", 1) ]);
  (* kill chains: 3 <- 2 <- 1 and 4 <- 2 <- 1, longest first *)
  let chains = Causality.chains c in
  check_int "two maximal chains" 2 (List.length chains);
  List.iter
    (fun ch ->
      check_int "chain spans three kills" 3 (List.length ch);
      match ch with
      | v :: a :: root :: [] ->
          check_bool "victim leads" true
            (v.Causality.a_txid = 3 || v.Causality.a_txid = 4);
          check_int "middle aggressor" 2 a.Causality.a_txid;
          check_int "root aggressor" 1 root.Causality.a_txid
      | _ -> Alcotest.fail "unexpected chain shape")
    chains;
  (* per-thread attribution *)
  check_int "t2 wasted" 20 (Causality.wasted_of c ~tid:2);
  check_int "total wasted" 65 (Causality.total_wasted c);
  (match Causality.most_starved c with
  | Some (tid, s) ->
      check_int "most starved is the biggest loser" 3 tid;
      check_int "its aborts" 1 s.Causality.aborts
  | None -> Alcotest.fail "expected a starved thread");
  match Causality.top_aggressor c with
  | Some (tid, s) ->
      check_int "top aggressor" 2 tid;
      check_int "inflicted" 2 s.Causality.caused;
      check_int "cost others" 35 s.Causality.caused_wasted
  | None -> Alcotest.fail "expected an aggressor"

let causality_chain_respects_time () =
  let c = Causality.create () in
  (* txn 2 claims txn 1 as its killer, but txn 1's abort arrives later:
     no backwards-in-time chain may be built *)
  Causality.handle c (abort ~txid:2 ~tid:2 ~by:1 ~by_tid:1 ~oid:5 ());
  Causality.handle c (abort ~txid:1 ~tid:1 ~by:2 ~by_tid:2 ~oid:5 ());
  check_bool "no chain pretends the killer died first" true
    (List.for_all (fun ch -> List.length ch <= 2) (Causality.chains c))

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let flight_streak_trigger () =
  let f = Flight.create ~capacity:16 ~streak_threshold:2 () in
  Flight.record f (entry ~step:1 (abort ~txid:1 ~tid:1 ()));
  check_int "below threshold" 0 (Flight.incident_count f);
  Flight.record f (entry ~step:2 (abort ~txid:2 ~tid:1 ()));
  check_int "streak trips" 1 (Flight.incident_count f);
  Flight.record f (entry ~step:3 (abort ~txid:3 ~tid:1 ()));
  check_int "fires once per streak" 1 (Flight.incident_count f);
  Flight.record f (entry ~step:4 (commit ~txid:4 ~tid:1 ()));
  Flight.record f (entry ~step:5 (abort ~txid:5 ~tid:1 ()));
  Flight.record f (entry ~step:6 (abort ~txid:6 ~tid:1 ()));
  check_int "commit re-arms" 2 (Flight.incident_count f);
  match Flight.incidents f with
  | i :: _ ->
      check_int "trigger step" 2 i.Flight.at_step;
      check_int "trigger thread" 1 i.Flight.tid;
      check_int "streak" 2 i.Flight.streak;
      check_int "window holds the entries" 2 (List.length i.Flight.window)
  | [] -> Alcotest.fail "expected incidents"

let flight_max_incidents () =
  let f = Flight.create ~streak_threshold:1 ~max_incidents:1 () in
  Flight.record f (entry (abort ~tid:1 ()));
  Flight.force f ~reason:"external";
  check_int "later incidents dropped, earliest kept" 1
    (Flight.incident_count f)

let flight_postmortem () =
  let f = Flight.create ~capacity:16 ~streak_threshold:1 () in
  Flight.record f
    (entry ~step:10 ~tid:2 (conflict ~tid:2 ~oid:7 ~writer:false ~site:4 ()));
  Flight.record f
    (entry ~step:11 ~tid:2
       (decision ~tid:2 ~txid:5 ~policy:"karma" ~decision:"abort-self"
          ~owner:3 ()));
  Flight.record f
    (entry ~step:12 ~tid:3 (Trace.Txn_serialized { txid = 3; tid = 3 }));
  Flight.record f
    (entry ~step:13 ~tid:2
       (abort ~txid:5 ~tid:2 ~by:3 ~by_tid:3 ~oid:7 ~latency:42 ()));
  check_int "one incident" 1 (Flight.incident_count f);
  let i = List.hd (Flight.incidents f) in
  let why =
    Flight.explain ~resolve:(function 4 -> Some "acct.jt:9" | _ -> None) i
  in
  check_bool "names the final abort" true
    (contains why "final abort: txn 5 on thread 2, cause conflict, 42 cycles");
  check_bool "names the conflict edge" true
    (contains why
       "conflict edge: txn 5 (thread 2) lost to txn 3 (thread 3) over \
        granule @7");
  check_bool "names the barrier site" true
    (contains why "barrier site: acct.jt:9");
  check_bool "names the cm decision" true
    (contains why "cm decision: karma chose abort-self vs txn 3");
  check_bool "names the serialization order" true
    (contains why "aggressor txn 3 serialized at step 12")

(* ------------------------------------------------------------------ *)
(* End-to-end: diagnose the livelock-pair stress scenario              *)
(* ------------------------------------------------------------------ *)

let livelock_pair_diagnosis () =
  let d = Diag.create () in
  let r =
    Trace.with_sinks [ (Trace.Debug, Diag.consumer d) ] (fun () ->
        Stm_harness.Stress.run ~seed:0 ~cm:Stm_cm.Policy.Suicide
          Stm_harness.Stress.Livelock_pair)
  in
  check_bool "scenario completed" true r.Stm_harness.Stress.completed;
  (* the diag metrics pillar (fed the Debug stream) agrees with the
     report's own Info-level metrics *)
  check_int "commits agree" (Metrics.commits r.Stm_harness.Stress.metrics)
    (Metrics.commits (Diag.metrics d));
  check_int "aborts agree" (Metrics.aborts r.Stm_harness.Stress.metrics)
    (Metrics.aborts (Diag.metrics d));
  (* contended granule identified *)
  check_bool "heatmap found contention" true
    (Heatmap.total_conflicts (Diag.heatmap d) > 0);
  let hot = List.hd (Heatmap.cells (Diag.heatmap d)) in
  check_bool "hot granule attributed aborts" true (hot.Heatmap.aborts > 0);
  (* aggressors identified, wasted work cross-checks against Fairness *)
  check_bool "causality has edges" true (Causality.edges (Diag.causality d) <> []);
  check_bool "aggressor named" true
    (Causality.top_aggressor (Diag.causality d) <> None);
  check_bool "wasted-work pipelines agree" true (Diag.wasted_consistent d);
  (* the pair livelocks long enough to freeze at least one post-mortem *)
  check_bool "incident frozen" true (Diag.incidents d <> []);
  let report = Fmt.str "%a" (fun ppf -> Diag.report ppf) d in
  check_bool "report names the hot granule" true
    (contains report (Printf.sprintf "@%d" hot.Heatmap.oid));
  check_bool "report names the most-starved thread" true
    (contains report "most-starved thread: t");
  check_bool "report names the aggressor" true
    (contains report "top aggressor: t");
  check_bool "report renders a post-mortem" true
    (contains report "conflict edge: txn");
  (* the full post-mortem cites edge, site, decision and ordering *)
  let why = Flight.explain (List.hd (Diag.incidents d)) in
  check_bool "post-mortem explains end-to-end" true
    (contains why "final abort" && contains why "conflict edge"
    && contains why "barrier site" && contains why "cm decision"
    && contains why "serialization order")

let stress_report_unperturbed () =
  (* attaching the diagnosis consumer must not change the scenario's
     outcome: same schedule, same counters, byte-identical report *)
  let show r = Fmt.str "%a" Stm_harness.Stress.pp_report r in
  let bare =
    Stm_harness.Stress.run ~seed:0 ~cm:Stm_cm.Policy.Suicide
      Stm_harness.Stress.Livelock_pair
  in
  let d = Diag.create () in
  let diag =
    Trace.with_sinks [ (Trace.Debug, Diag.consumer d) ] (fun () ->
        Stm_harness.Stress.run ~seed:0 ~cm:Stm_cm.Policy.Suicide
          Stm_harness.Stress.Livelock_pair)
  in
  check_string "stress report byte-identical under diagnosis" (show bare)
    (show diag)

(* ------------------------------------------------------------------ *)
(* Offline = live                                                      *)
(* ------------------------------------------------------------------ *)

let offline_matches_live () =
  (* record the stream, replay it through Ingest: same report *)
  let live = Diag.create () in
  let rec_ = Recorder.create () in
  ignore
    (Trace.with_sinks
       [ (Trace.Debug, Recorder.record rec_); (Trace.Debug, Diag.consumer live) ]
       (fun () ->
         Stm_harness.Stress.run ~seed:0 ~cm:Stm_cm.Policy.Suicide
           Stm_harness.Stress.Livelock_pair));
  let buf = Buffer.create 4096 in
  Export.to_jsonl buf (Recorder.entries rec_);
  let ingested = Ingest.of_string (Buffer.contents buf) in
  check_int "nothing skipped" 0 ingested.Ingest.skipped;
  let offline = Diag.create ~resolve:ingested.Ingest.resolve () in
  Diag.feed_all offline ingested.Ingest.entries;
  let show d = Fmt.str "%a" (fun ppf -> Diag.report ppf) d in
  check_string "offline replay reproduces the live report" (show live)
    (show offline)

let sample_trace_analyzes () =
  (* the checked-in sample trace (CI's stm_diag smoke input) must keep
     replaying to a full diagnosis as the trace format evolves *)
  let path = "data/livelock_pair_suicide.jsonl" in
  if not (Sys.file_exists path) then
    Alcotest.skip ()
  else begin
    let r = Ingest.of_file path in
    check_int "no unparsable lines" 0 r.Ingest.skipped;
    check_bool "non-trivial trace" true (r.Ingest.parsed > 100);
    let d = Diag.create ~resolve:r.Ingest.resolve () in
    Diag.feed_all d r.Ingest.entries;
    check_bool "heatmap populated" true
      (Heatmap.distinct_granules (Diag.heatmap d) > 0);
    check_bool "causality populated" true
      (Causality.total_attributed (Diag.causality d) > 0);
    check_bool "post-mortem frozen" true (Diag.incidents d <> []);
    check_bool "cross-check holds" true (Diag.wasted_consistent d)
  end

let suite =
  [
    ( "diag",
      [
        case "all_causes is exhaustive" all_causes_exhaustive;
        case "every cause is counted" every_cause_counted;
        case "recorder level filters Debug" recorder_level_filters;
        case "metrics at Info never builds Debug or History" metrics_at_info_never_builds;
        case "event levels" level_sanity;
        case "recorder ring wraparound" recorder_wraparound;
        case "jsonl round trip keeps attribution" jsonl_roundtrip;
        case "jsonl round trip re-interns sites" jsonl_resolved_sites_roundtrip;
        case "jsonl ingest skips garbage" jsonl_skips_garbage;
        case "chrome export carries attribution" chrome_carries_attribution;
        case "heatmap accounting" heatmap_accounting;
        case "heatmap table growth" heatmap_grows;
        case "causality graph and kill chains" causality_graph;
        case "kill chains respect abort order" causality_chain_respects_time;
        case "flight streak trigger" flight_streak_trigger;
        case "flight incident cap" flight_max_incidents;
        case "flight post-mortem" flight_postmortem;
        case "livelock-pair end-to-end diagnosis" livelock_pair_diagnosis;
        case "stress report unperturbed by diagnosis" stress_report_unperturbed;
        case "offline replay matches live" offline_matches_live;
        case "checked-in sample trace analyzes" sample_trace_analyzes;
      ] );
  ]
