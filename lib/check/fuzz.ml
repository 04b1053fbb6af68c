(* Differential fuzz sweep.

   A campaign fuzzes one (combo, profile) pair with a seed budget; the
   sweep plan pairs every combo in the grid with the profiles it is
   expected to keep serializable, plus a few "hunt" campaigns on weak
   configurations that are expected to exhibit the paper's anomalies
   (the fuzzer must find and minimize at least one counterexample
   there - that is the oracle's positive control).

   Expectation table (see docs/TESTING.md):
   - txn-only programs: serializable under every configuration;
   - mixed programs: serializable only under strong atomicity;
   - handoff programs: serializable under strong atomicity and under
     weak atomicity + commit-time quiescence. *)

open Stm_obs
module Config = Stm_core.Config
module Point = Stm_core.Point

type expectation = Expect_clean | Expect_anomaly

type driver_kind = Drv_random | Drv_explore | Drv_dpor

type budget = {
  programs : int;  (* generated programs per campaign *)
  seeds : int;  (* schedules per program (random driver) *)
  base_seed : int;
  max_steps : int;  (* scheduler fuel per execution *)
  driver : driver_kind;
  preemption_bound : int;  (* explorer driver only *)
  max_runs : int;  (* explorer driver only *)
}

let default_budget =
  {
    programs = 30;
    seeds = 3;
    base_seed = 1;
    max_steps = Exec.default_fuel;
    driver = Drv_random;
    preemption_bound = 2;
    max_runs = 2_000;
  }

type campaign = {
  combo : Combo.t;
  profile : Gen.profile;
  expectation : expectation;
  driver : driver_kind option;  (* None = the budget's driver *)
}

type campaign_result = {
  campaign : campaign;
  runs : int;
  anomalies : int;
  inconclusive : int;
  repro : Repro.t option;  (* first counterexample, minimized *)
  shrink_steps : int;  (* original op count - minimized op count *)
  ok : bool;
}

(* ------------------------------------------------------------------ *)
(* Plan                                                                *)
(* ------------------------------------------------------------------ *)

let weak_suicide backend =
  { Combo.point = Point.v backend Point.Weak; cm = Stm_cm.Policy.Suicide }

(* The profiles a configuration flavor is expected to keep clean. *)
let profiles_for (a : Point.atomicity) =
  match a with
  | Point.Weak -> [ Gen.Txn_only ]
  | Point.Strong | Point.Dea -> [ Gen.Txn_only; Gen.Mixed; Gen.Handoff ]
  | Point.Quiesce -> [ Gen.Txn_only; Gen.Handoff ]

let clean_campaigns =
  List.concat_map
    (fun combo ->
      List.map
        (fun profile -> { combo; profile; expectation = Expect_clean; driver = None })
        (profiles_for combo.Combo.point.Point.atomicity))
    Combo.all

(* Positive controls: weak configurations where the paper's anomalies
   must be found (dirty/non-repeatable reads and lost updates for mixed
   programs; the figure-1 privatization race for handoff programs).
   The privatization window is a few scheduler steps wide, so the
   handoff hunts drive schedules systematically instead of random
   sampling — through the race-reduced DPOR walk, which reaches the
   witness in a fraction of the enumerative DFS's runs at the same
   preemption bound. *)
let hunt_campaigns =
  let mk backend profile driver =
    {
      combo = weak_suicide backend;
      profile;
      expectation = Expect_anomaly;
      driver;
    }
  in
  [
    mk (Point.Eager Config.Incremental) Gen.Mixed None;
    mk (Point.Eager Config.Incremental) Gen.Handoff (Some Drv_dpor);
    mk (Point.Lazy Config.Incremental) Gen.Mixed None;
    mk (Point.Lazy Config.Incremental) Gen.Handoff (Some Drv_dpor);
    (* weak mvcc: non-transactional writes bypass the version chains, so
       mixed programs must exhibit anomalies just like the other weak
       backends. The window is a single plain store landing between a
       snapshot read and the scheduler-atomic commit, too narrow for
       random sampling - use the explorer, as the handoff hunts do. *)
    mk (Point.Mvcc Config.Serializable) Gen.Mixed (Some Drv_dpor);
  ]

let default_plan = clean_campaigns @ hunt_campaigns

(* Expect-clean campaigns over the timestamp-validation grid: every
   combo point under every program profile its atomicity flavor admits.
   A separate plan (selected by `stm_bench fuzz --validation
   timestamp`) so the default plan's artifacts stay byte-identical. *)
let timestamp_campaigns =
  List.concat_map
    (fun combo ->
      List.map
        (fun profile ->
          { combo; profile; expectation = Expect_clean; driver = None })
        (profiles_for combo.Combo.point.Point.atomicity))
    Combo.timestamp_grid

let timestamp_plan = timestamp_campaigns

let campaign_name c =
  Printf.sprintf "%s:%s%s" (Combo.name c.combo)
    (Gen.profile_to_string c.profile)
    (match c.expectation with Expect_clean -> "" | Expect_anomaly -> ":hunt")

(* ------------------------------------------------------------------ *)
(* Campaign execution                                                  *)
(* ------------------------------------------------------------------ *)

let prog_size (p : Prog.t) =
  List.fold_left
    (fun acc steps ->
      List.fold_left
        (fun acc step ->
          acc
          + match (step : Prog.step) with Prog.Atomic ops -> List.length ops | _ -> 1)
        acc steps)
    0 p.Prog.threads

let driver_of budget kind sched_seed =
  match kind with
  | Drv_random -> Repro.Random_sched sched_seed
  | Drv_explore ->
      Repro.Explore
        { preemption_bound = budget.preemption_bound; max_runs = budget.max_runs }
  | Drv_dpor ->
      Repro.Dpor
        { preemption_bound = budget.preemption_bound; max_runs = budget.max_runs }

let make_repro campaign budget ~kind ~prog_seed ~sched_seed prog verdict =
  {
    Repro.combo = campaign.combo;
    profile = Gen.profile_to_string campaign.profile;
    prog_seed = Some prog_seed;
    driver = driver_of budget kind sched_seed;
    max_steps = budget.max_steps;
    prog;
    verdict = History.verdict_to_json verdict;
  }

let run_campaign ?(log = fun (_ : string) -> ()) ?on_anomaly budget campaign =
  let combo = campaign.combo in
  let kind =
    Option.value campaign.driver ~default:(budget : budget).driver
  in
  let gcfg = Gen.default campaign.profile in
  let runs = ref 0 and anomalies = ref 0 and inconclusive = ref 0 in
  let repro = ref None and shrink_steps = ref 0 in
  let nseeds =
    match kind with Drv_random -> budget.seeds | Drv_explore | Drv_dpor -> 1
  in
  (try
     for p = 0 to budget.programs - 1 do
       let prog_seed = budget.base_seed + p in
       let prog = Gen.generate gcfg ~seed:prog_seed in
       for s = 0 to nseeds - 1 do
         let sched_seed = ((budget.base_seed + p) * 8191) + s in
         let driver = driver_of budget kind sched_seed in
         let verdict =
           Repro.run_driver ~combo ~driver ~max_steps:budget.max_steps prog
         in
         incr runs;
         (match verdict with
         | History.Inconclusive _ -> incr inconclusive
         | History.Serializable -> ()
         | History.Anomalous _ ->
             incr anomalies;
             (* before shrinking re-runs the program and scrolls an
                observer's recent state away *)
             if campaign.expectation = Expect_clean then
               Option.iter (fun f -> f campaign ~prog_seed ~sched_seed) on_anomaly;
             if !repro = None then begin
               log
                 (Printf.sprintf "%s: anomaly on program %d schedule %d, shrinking"
                    (campaign_name campaign) prog_seed sched_seed);
               let keep q =
                 History.is_anomalous
                   (Repro.run_driver ~combo ~driver ~max_steps:budget.max_steps q)
               in
               let demote_atomic = campaign.profile = Gen.Mixed in
               let small = Shrink.minimize ~demote_atomic ~keep prog in
               shrink_steps := prog_size prog - prog_size small;
               let verdict' =
                 Repro.run_driver ~combo ~driver ~max_steps:budget.max_steps small
               in
               repro :=
                 Some
                   (make_repro campaign budget ~kind ~prog_seed ~sched_seed small
                      verdict')
             end);
         (* A hunt campaign only needs one witness. *)
         if campaign.expectation = Expect_anomaly && !repro <> None then raise Exit
       done
     done
   with Exit -> ());
  let ok =
    match campaign.expectation with
    | Expect_clean -> !anomalies = 0
    | Expect_anomaly -> !anomalies > 0
  in
  {
    campaign;
    runs = !runs;
    anomalies = !anomalies;
    inconclusive = !inconclusive;
    repro = !repro;
    shrink_steps = !shrink_steps;
    ok;
  }

(* ------------------------------------------------------------------ *)
(* Sweep                                                               *)
(* ------------------------------------------------------------------ *)

let sweep ?log ?(plan = default_plan) budget =
  List.map (fun c -> run_campaign ?log budget c) plan

let passed results = List.for_all (fun r -> r.ok) results

(* ------------------------------------------------------------------ *)
(* Cross-backend differential sweep                                    *)
(* ------------------------------------------------------------------ *)

(* Run the same seeded programs, under the same schedule seeds, on every
   backend, each certified at its own isolation level. Txn-only programs
   must come back clean everywhere - eager and lazy are serializable by
   protocol, mvcc+serializable by commit-time read validation, and
   mvcc+snapshot may only diverge from serializability in ways the SI
   contract admits. Any anomalous member is a reportable divergence and
   carries a replayable repro. *)

(* Every backend at weak atomicity. The differential grid for timestamp
   certification runs both validation schemes of both single-version
   backends side by side with the mvcc members, on the same seeded
   programs and schedules: zero divergence there is the cross-scheme
   acceptance bar for timestamp mode. *)
let timestamp_backend_grid = List.map weak_suicide Point.backends

let backend_grid =
  List.filter
    (fun c -> Point.validation c.Combo.point.Point.backend = Config.Incremental)
    timestamp_backend_grid

type divergence = {
  div_prog_seed : int;
  div_sched_seed : int;
  div_verdicts : (string * History.verdict) list;  (* combo name -> verdict *)
  div_repros : Repro.t list;  (* one per anomalous member *)
}

type differential_result = {
  diff_combos : Combo.t list;
  diff_programs : int;
  diff_executions : int;
  divergences : divergence list;
}

let run_differential ?(log = fun (_ : string) -> ()) ?(combos = backend_grid)
    budget =
  let divergences = ref [] in
  let executions = ref 0 in
  let gcfg = Gen.default Gen.Txn_only in
  for p = 0 to budget.programs - 1 do
    let prog_seed = budget.base_seed + p in
    let prog = Gen.generate gcfg ~seed:prog_seed in
    for s = 0 to budget.seeds - 1 do
      let sched_seed = (prog_seed * 8191) + s in
      let driver = Repro.Random_sched sched_seed in
      let verdicts =
        List.map
          (fun combo ->
            incr executions;
            (combo, Repro.run_driver ~combo ~driver ~max_steps:budget.max_steps prog))
          combos
      in
      let anomalous = List.filter (fun (_, v) -> History.is_anomalous v) verdicts in
      if anomalous <> [] then begin
        log
          (Printf.sprintf
             "differential: backends diverge on program %d schedule %d (%s)"
             prog_seed sched_seed
             (String.concat ", "
                (List.map (fun (c, _) -> Combo.name c) anomalous)));
        let repros =
          List.map
            (fun (combo, v) ->
              {
                Repro.combo;
                profile = Gen.profile_to_string Gen.Txn_only;
                prog_seed = Some prog_seed;
                driver;
                max_steps = budget.max_steps;
                prog;
                verdict = History.verdict_to_json v;
              })
            anomalous
        in
        divergences :=
          {
            div_prog_seed = prog_seed;
            div_sched_seed = sched_seed;
            div_verdicts = List.map (fun (c, v) -> (Combo.name c, v)) verdicts;
            div_repros = repros;
          }
          :: !divergences
      end
    done
  done;
  {
    diff_combos = combos;
    diff_programs = budget.programs;
    diff_executions = !executions;
    divergences = List.rev !divergences;
  }

let differential_passed r = r.divergences = []

let divergence_to_json d =
  Json.Obj
    [
      ("prog_seed", Json.Int d.div_prog_seed);
      ("sched_seed", Json.Int d.div_sched_seed);
      ( "verdicts",
        Json.Obj
          (List.map
             (fun (name, v) -> (name, History.verdict_to_json v))
             d.div_verdicts) );
      ("repros", Json.List (List.map Repro.to_json d.div_repros));
    ]

let differential_to_json r =
  Json.Obj
    [
      ("combos", Json.List (List.map Combo.to_json r.diff_combos));
      ("programs", Json.Int r.diff_programs);
      ("executions", Json.Int r.diff_executions);
      ("divergences", Json.List (List.map divergence_to_json r.divergences));
      ("passed", Json.Bool (differential_passed r));
    ]

let result_to_json r =
  Json.Obj
    [
      ("campaign", Json.Str (campaign_name r.campaign));
      ("combo", Combo.to_json r.campaign.combo);
      ("profile", Json.Str (Gen.profile_to_string r.campaign.profile));
      ( "expectation",
        Json.Str
          (match r.campaign.expectation with
          | Expect_clean -> "clean"
          | Expect_anomaly -> "anomaly") );
      ("runs", Json.Int r.runs);
      ("anomalies", Json.Int r.anomalies);
      ("inconclusive", Json.Int r.inconclusive);
      ("shrink_steps", Json.Int r.shrink_steps);
      ("ok", Json.Bool r.ok);
      ("repro", match r.repro with None -> Json.Null | Some rp -> Repro.to_json rp);
    ]

let summary_json budget results =
  Json.Obj
    [
      ( "budget",
        Json.Obj
          [
            ("programs", Json.Int budget.programs);
            ("seeds", Json.Int budget.seeds);
            ("base_seed", Json.Int budget.base_seed);
            ("max_steps", Json.Int budget.max_steps);
            ( "driver",
              Json.Str
                (match budget.driver with
                | Drv_random -> "random"
                | Drv_explore -> "explore"
                | Drv_dpor -> "dpor") );
          ] );
      ("campaigns", Json.Int (List.length results));
      ("runs", Json.Int (List.fold_left (fun a r -> a + r.runs) 0 results));
      ( "anomalies",
        Json.Int (List.fold_left (fun a r -> a + r.anomalies) 0 results) );
      ( "failed",
        Json.List
          (List.filter_map
             (fun r -> if r.ok then None else Some (result_to_json r))
             results) );
      ("passed", Json.Bool (passed results));
    ]
