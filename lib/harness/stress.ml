open Stm_core
open Stm_runtime

(* Adversarial contention scenarios for the contention-management
   subsystem. Each scenario is engineered so that progress depends on the
   CM policy, not on luck: under [suicide] somebody keeps losing (long
   consecutive-abort streaks), while an age-based policy ([timestamp])
   lets every thread finish. All runs are deterministic given a seed. *)

type scenario = Long_vs_short | Livelock_pair | Inversion_chain | Read_heavy

let all_scenarios = [ Long_vs_short; Livelock_pair; Inversion_chain; Read_heavy ]

let scenario_name = function
  | Long_vs_short -> "long-vs-short"
  | Livelock_pair -> "livelock-pair"
  | Inversion_chain -> "inversion-chain"
  | Read_heavy -> "read-heavy"

(* A thread has "starved" when it lost this many times in a row. The
   constant is calibrated against the scenario sizes below: under
   [timestamp] no thread ever approaches it, under [suicide] the long
   writer of [Long_vs_short] blows well past it. *)
let starvation_threshold = 50

(* Small backoff window so that losing shows up as aborts (budget
   exhaustion) rather than as ever-longer in-transaction waits; this is
   what makes streak counts comparable across policies. *)
let stress_cost = { Cost.default with Cost.backoff_base = 8; backoff_cap = 64 }

type report = {
  scenario : scenario;
  policy : Stm_cm.Policy.t;
  seed : int;
  status : Sched.status;
  completed : bool;
  makespan : int;
  stats : Stats.t;
  metrics : Stm_obs.Metrics.t;
  starved : int list;
}

let config ?(backend = Point.Eager Config.Incremental) ~cm ~seed () =
  {
    (Point.config (Point.v backend Point.Weak)) with
    Config.cm;
    cm_seed = seed;
    cost = stress_cost;
    max_txn_retries = 6;
    validate_every = 16;
  }

(* ------------------------------------------------------------------ *)
(* Scenario bodies (run inside Stm.run's main thread)                  *)
(* ------------------------------------------------------------------ *)

let incr_field obj fld =
  Stm.write obj fld (Stm.vint (Stm.to_int (Stm.read obj fld) + 1))

(* fresh fields are Vnull; zero them before any transactional increment *)
let alloc_counters n =
  let recs = Stm.alloc_public ~cls:"Stress" n in
  for i = 0 to n - 1 do
    Stm.write recs i (Stm.vint 0)
  done;
  recs

(* One long writer updates every record (holding each from acquisition
   to commit, with work in between) for a few rounds; each of [n] short
   writers hammers a single dedicated record, holding it non-trivially.
   The records the long transaction still needs are almost always owned,
   so without an age-based policy it keeps exhausting its retry budget. *)
let long_vs_short () =
  let n = 4 in
  let rounds = 3 in
  let short_iters = 80 in
  let hold = 600 in
  let recs = alloc_counters n in
  let long () =
    for _ = 1 to rounds do
      Stm.atomic (fun () ->
          for i = 0 to n - 1 do
            incr_field recs i;
            Sched.pause 60
          done);
      Sched.pause 50
    done
  in
  let short k () =
    for _ = 1 to short_iters do
      Stm.atomic (fun () ->
          incr_field recs k;
          Sched.pause hold);
      Sched.pause 10
    done
  in
  let tl = Sched.spawn ~name:"long" long in
  let ts = List.init n (fun k -> Sched.spawn ~name:"short" (short k)) in
  Sched.join tl;
  List.iter Sched.join ts;
  (* every write committed exactly once *)
  for i = 0 to n - 1 do
    assert (Stm.to_int (Stm.read recs i) = rounds + short_iters)
  done

(* Two symmetric writers take the same two records in opposite orders,
   holding the first while asking for the second - the deadlock-shaped
   schedule that abort-and-retry turns into a livelock. *)
let livelock_pair () =
  let recs = alloc_counters 2 in
  let rounds = 10 in
  let hold = 2000 in
  let worker first second () =
    for _ = 1 to rounds do
      Stm.atomic (fun () ->
          incr_field recs first;
          Sched.pause hold;
          incr_field recs second);
      Sched.pause 10
    done
  in
  let t1 = Sched.spawn ~name:"ab" (worker 0 1) in
  let t2 = Sched.spawn ~name:"ba" (worker 1 0) in
  Sched.join t1;
  Sched.join t2;
  assert (Stm.to_int (Stm.read recs 0) = 2 * rounds);
  assert (Stm.to_int (Stm.read recs 1) = 2 * rounds)

(* n writers in a ring: thread i updates record i, works, then updates
   record i+1 mod n. Ownership requests form a cycle, so every thread is
   both a blocker and a requester - priority must be global, not
   pairwise, for anyone to finish cleanly. *)
let inversion_chain () =
  let n = 5 in
  let rounds = 10 in
  let hold = 1500 in
  let recs = alloc_counters n in
  let worker i () =
    for _ = 1 to rounds do
      Stm.atomic (fun () ->
          incr_field recs i;
          Sched.pause hold;
          incr_field recs ((i + 1) mod n));
      Sched.pause 10
    done
  in
  let ts = List.init n (fun i -> Sched.spawn ~name:"ring" (worker i)) in
  List.iter Sched.join ts;
  for i = 0 to n - 1 do
    assert (Stm.to_int (Stm.read recs i) = 2 * rounds)
  done

(* One writer sweeps every record inside a single transaction; [readers]
   scanners run read-only transactions that copy all records out. The
   writer's sweep is all-or-nothing, so a committed scan must see all
   records equal - the assert runs on the values a COMMITTED transaction
   observed (doomed attempts may see torn state under eager versioning
   and retry). Under mvcc the scanners serve from snapshots and commit
   abort-free; under the single-version backends they conflict with the
   writer's ownership and pay aborts. *)
let read_heavy () =
  let n = 8 in
  let readers = 4 in
  let iters = 30 in
  let rounds = 20 in
  let recs = alloc_counters n in
  let writer () =
    for _ = 1 to rounds do
      Stm.atomic (fun () ->
          for i = 0 to n - 1 do
            incr_field recs i;
            Sched.pause 40
          done);
      Sched.pause 20
    done
  in
  let reader () =
    let vals = Array.make n 0 in
    for _ = 1 to iters do
      Stm.atomic (fun () ->
          for i = 0 to n - 1 do
            vals.(i) <- Stm.to_int (Stm.read recs i)
          done);
      Array.iter (fun v -> assert (v = vals.(0))) vals;
      Sched.pause 15
    done
  in
  let tw = Sched.spawn ~name:"writer" writer in
  let ts = List.init readers (fun _ -> Sched.spawn ~name:"reader" reader) in
  Sched.join tw;
  List.iter Sched.join ts;
  for i = 0 to n - 1 do
    assert (Stm.to_int (Stm.read recs i) = rounds)
  done

let body = function
  | Long_vs_short -> long_vs_short
  | Livelock_pair -> livelock_pair
  | Inversion_chain -> inversion_chain
  | Read_heavy -> read_heavy

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let run ?(seed = 0) ?(fuel = 2_000_000) ?backend ~cm scenario =
  let cfg = config ?backend ~cm ~seed () in
  let metrics = Stm_obs.Metrics.create () in
  Trace.with_sinks [ (Trace.Info, Stm_obs.Metrics.handle metrics) ] (fun () ->
      let result, stats =
        Stm.run ~policy:(Sched.Random seed) ~max_steps:fuel ~cfg
          (body scenario)
      in
      let completed =
        result.Sched.status = Sched.Completed && result.Sched.exns = []
      in
      {
        scenario;
        policy = cm;
        seed;
        status = result.Sched.status;
        completed;
        makespan = result.Sched.makespan;
        stats;
        metrics;
        starved =
          Stm_cm.Fairness.starved
            (Stm_obs.Metrics.fairness metrics)
            ~threshold:starvation_threshold;
      })

let passed r = r.completed && r.starved = []

let pp_report ppf r =
  let f = Stm_obs.Metrics.fairness r.metrics in
  Fmt.pf ppf "@[<v>%s under %s (seed %d): %s@,"
    (scenario_name r.scenario)
    (Stm_cm.Policy.to_string r.policy)
    r.seed
    (match r.status with
    | Sched.Completed -> if r.completed then "completed" else "failed"
    | Sched.Fuel_exhausted -> "FUEL EXHAUSTED"
    | Sched.Deadlock _ -> "DEADLOCK");
  Fmt.pf ppf "  makespan=%d commits=%d aborts=%d wounds=%d backoff=%d@."
    r.makespan r.stats.Stats.commits r.stats.Stats.aborts
    r.stats.Stats.wounds r.stats.Stats.backoff_cycles;
  Fmt.pf ppf "  jain=%.4f max_consec_aborts=%d starved=[%a]@,@]"
    (Stm_cm.Fairness.jain f)
    (Stm_cm.Fairness.max_consec_aborts f)
    Fmt.(list ~sep:comma int)
    r.starved
