(* Serializability property, as a budgeted differential fuzz sweep.

   The old hand-rolled QCheck property (enumerate serial permutations,
   compare final heaps) is superseded by the stm_check stack: generated
   programs run on the real STM under every configuration combo, a
   trace-based oracle checks conflict-graph acyclicity plus a
   sequential differential replay, and failures shrink to a minimal
   replayable counterexample whose repro JSON is printed so it can be
   fed straight to [stm_run --repro].

   The sweep doubles as the oracle's positive control: the hunt
   campaigns on weak configurations MUST find (and minimize) the
   paper's anomalies - lost updates for transactions racing plain
   accesses, the figure-1 privatization race for handoff programs. *)

open Stm_check

let budget =
  { Fuzz.default_budget with Fuzz.programs = 14; seeds = 2; base_seed = 1 }

let describe r =
  let c = r.Fuzz.campaign in
  Printf.sprintf "%s: %d runs, %d anomalies, %d inconclusive%s"
    (Fuzz.campaign_name c) r.Fuzz.runs r.Fuzz.anomalies r.Fuzz.inconclusive
    (match r.Fuzz.repro with
    | None -> ""
    | Some rp ->
        Printf.sprintf "\n  minimized counterexample (feed to stm_run --repro):\n%s"
          (Repro.to_string rp))

let fail_results results =
  let failed = List.filter (fun r -> not r.Fuzz.ok) results in
  Alcotest.failf "%d campaign(s) failed:\n%s" (List.length failed)
    (String.concat "\n" (List.map describe failed))

let run_plan plan () =
  let results = Fuzz.sweep ~plan budget in
  if not (Fuzz.passed results) then fail_results results

(* Split the plan so a failure names the offending slice directly. *)
let clean_slice pred name =
  Alcotest.test_case name `Quick
    (run_plan (List.filter pred Fuzz.clean_campaigns))

let is_atomicity a (c : Fuzz.campaign) =
  c.Fuzz.combo.Combo.point.Stm_core.Point.atomicity = a

(* The timestamp-validation sweep: the same clean expectations over
   {!Combo.timestamp_grid}, on a reduced budget (24 combos). A fuller
   pass runs in CI via [stm_bench fuzz --validation timestamp]. *)
let ts_budget =
  { Fuzz.default_budget with Fuzz.programs = 8; seeds = 1; base_seed = 1 }

let ts_clean_slice pred name =
  Alcotest.test_case name `Quick (fun () ->
      let plan = List.filter pred Fuzz.timestamp_campaigns in
      let results = Fuzz.sweep ~plan ts_budget in
      if not (Fuzz.passed results) then fail_results results)

(* Cross-validation-scheme differential: the same programs and schedule
   seeds on the incremental backend grid plus eager-ts/lazy-ts; a
   timestamp member certifying anomalous where the incremental members
   stay clean is a divergence and fails with a replayable repro. *)
let test_timestamp_differential () =
  let budget =
    { Fuzz.default_budget with Fuzz.programs = 6; seeds = 2; base_seed = 1 }
  in
  let r = Fuzz.run_differential ~combos:Fuzz.timestamp_backend_grid budget in
  Alcotest.(check int)
    "grid size" 6
    (List.length r.Fuzz.diff_combos);
  if not (Fuzz.differential_passed r) then
    Alcotest.failf "validation-scheme divergence: %s"
      (Stm_obs.Json.to_string (Fuzz.differential_to_json r))

(* Regression: the timestamp fast path must not run under quiescence. A
   committer in commit_epoch_wait holds its records Exclusive but bumps
   the commit clock only at release, so a doomed transaction whose O(1)
   revalidation saw an unchanged clock was marked consistent while its
   stale eager in-place state was still live across the privatizer's
   handoff. This is the minimized sweep counterexample (prog_seed 9,
   sched_seed 73720) replayed under every quiesce-grid CM policy. *)
let test_quiesce_handoff_regression () =
  let prog =
    {
      Prog.ncells = 2;
      nslots = 2;
      threads =
        [
          [ Prog.Publish 0 ];
          [ Prog.Privatize 0 ];
          [ Prog.Atomic [ Prog.Box_write 0 ] ];
        ];
    }
  in
  List.iter
    (fun cm ->
      let combo =
        {
          Combo.point =
            Stm_core.Point.(v (Eager Stm_core.Config.Timestamp) Quiesce);
          cm;
        }
      in
      let v =
        Repro.run_driver ~combo ~driver:(Repro.Random_sched 73720)
          ~max_steps:Fuzz.default_budget.Fuzz.max_steps prog
      in
      match v with
      | History.Serializable -> ()
      | v ->
          Alcotest.failf "%s: %s" (Combo.name combo)
            (Stm_obs.Json.to_string (History.verdict_to_json v)))
    [ Stm_cm.Policy.Suicide; Stm_cm.Policy.Wound_wait; Stm_cm.Policy.Timestamp ]

let test_hunts_find_anomalies () =
  let results = Fuzz.sweep ~plan:Fuzz.hunt_campaigns budget in
  if not (Fuzz.passed results) then fail_results results;
  (* Every hunt must also have produced a minimized repro that replays
     to an anomalous verdict. *)
  List.iter
    (fun r ->
      match r.Fuzz.repro with
      | None -> Alcotest.failf "%s: no repro" (Fuzz.campaign_name r.Fuzz.campaign)
      | Some rp ->
          let v = Repro.replay rp in
          if not (Repro.matches rp v) then
            Alcotest.failf "%s: repro does not replay:\n%s"
              (Fuzz.campaign_name r.Fuzz.campaign)
              (Repro.to_string rp))
    results

let suite =
  [
    ( "serializability",
      [
        clean_slice (is_atomicity Stm_core.Point.Weak) "fuzz clean: weak / txn-only";
        clean_slice (is_atomicity Stm_core.Point.Strong) "fuzz clean: strong / all profiles";
        clean_slice (is_atomicity Stm_core.Point.Dea) "fuzz clean: dea / all profiles";
        clean_slice (is_atomicity Stm_core.Point.Quiesce) "fuzz clean: quiesce / txn+handoff";
        Alcotest.test_case "hunts find+minimize the paper's anomalies" `Quick
          test_hunts_find_anomalies;
        ts_clean_slice (is_atomicity Stm_core.Point.Weak) "fuzz clean: weak / timestamp";
        ts_clean_slice (is_atomicity Stm_core.Point.Strong)
          "fuzz clean: strong / timestamp";
        ts_clean_slice (is_atomicity Stm_core.Point.Dea)
          "fuzz clean: dea / timestamp";
        ts_clean_slice (is_atomicity Stm_core.Point.Quiesce)
          "fuzz clean: quiesce / timestamp";
        Alcotest.test_case "regression: quiesce handoff disables fast path"
          `Quick test_quiesce_handoff_regression;
        Alcotest.test_case "differential: timestamp vs incremental" `Quick
          test_timestamp_differential;
      ] );
  ]
