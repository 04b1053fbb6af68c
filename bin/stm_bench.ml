(* CLI: regenerate the evaluation figures, run contention stress
   scenarios and store workloads, fuzz the STM against a serializability
   oracle, certify the litmus matrix and time the hot paths. Each mode is
   a subcommand and takes only the flags it reads.

   Examples:
     stm_bench fig6
     stm_bench fig15 --scale 0.5
     stm_bench fig18 --threads 1,2,4,8,16
     stm_bench all
     stm_bench stress all --cm timestamp --seed 7 --metrics-out m.json
     stm_bench list *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

type knobs = {
  cm : Stm_cm.Policy.t;
  scale : float option;
  threads : int list option;
}

let overhead (f : ?scale:float -> unit -> _) k =
  Fmt.pr "%a" Stm_harness.Figures.pp_overhead (f ?scale:k.scale ());
  true

let scaling (f : ?threads:int list -> ?scale:float -> unit -> _) k =
  Fmt.pr "%a" Stm_harness.Figures.pp_scaling
    (f ?threads:k.threads ?scale:k.scale ());
  true

(* Each figure with the knobs it reads, a one-line description, and its
   run, which returns false when the figure's built-in check fails (only
   fig6 has one). *)
let figures =
  [
    ( "fig6",
      `Cm,
      "Figure 6: the weak-atomicity anomaly matrix of the Figures 1-5 \
       litmus programs; non-zero exit unless it matches the paper.",
      fun k ->
        let cells = Stm_harness.Figures.fig6 ~cm:k.cm () in
        Fmt.pr "%a" Stm_harness.Figures.pp_fig6 cells;
        let ok = Stm_litmus.Matrix.all_match cells in
        Fmt.pr "matches the paper: %b@." ok;
        ok );
    ( "privatization",
      `None,
      "The Figure 1 privatization row, including the Section 3.4 \
       quiescence modes.",
      fun _ ->
        Fmt.pr "%a" Stm_litmus.Matrix.pp_table
          (Stm_litmus.Matrix.privatization_row ());
        true );
    ( "fig13",
      `None,
      "Figure 13: static barrier removal, NAIT vs thread-local analysis.",
      fun _ ->
        Fmt.pr "%a" Stm_analysis.Barrier_stats.pp_table
          (Stm_harness.Figures.fig13 ());
        true );
    ( "fig15",
      `Scale,
      "Figure 15: strong-atomicity overhead with read and write barriers \
       (JVM98 kernels).",
      overhead Stm_harness.Figures.fig15 );
    ( "fig16",
      `Scale,
      "Figure 16: strong-atomicity overhead with read barriers only.",
      overhead Stm_harness.Figures.fig16 );
    ( "fig17",
      `Scale,
      "Figure 17: strong-atomicity overhead with write barriers only.",
      overhead Stm_harness.Figures.fig17 );
    ( "fig18",
      `Scaling,
      "Figure 18: Tsp execution time by simulated processor count.",
      scaling Stm_harness.Figures.fig18 );
    ( "fig19",
      `Scaling,
      "Figure 19: OO7 execution time by simulated processor count.",
      scaling Stm_harness.Figures.fig19 );
    ( "fig20",
      `Scaling,
      "Figure 20: JBB execution time by simulated processor count.",
      scaling Stm_harness.Figures.fig20 );
  ]

let scale_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "scale" ] ~docv:"F" ~doc:"Workload scale factor (default 1.0).")

let threads_arg =
  Arg.(
    value
    & opt (some (list int)) None
    & info [ "threads" ] ~docv:"LIST"
        ~doc:
          "Comma-separated simulated processor counts for the scaling \
           figures (default 1,2,4,8,16).")

let knobs_term =
  let k cm scale threads = { cm; scale; threads } in
  function
  | `None -> Term.const (k Stm_cm.Policy.Suicide None None)
  | `Cm -> Term.(const (fun cm -> k cm None None) $ Cli.cm)
  | `Scale -> Term.(const (k Stm_cm.Policy.Suicide) $ scale_arg $ const None)
  | `Scaling -> Term.(const (k Stm_cm.Policy.Suicide) $ scale_arg $ threads_arg)
  | `All -> Term.(const k $ Cli.cm $ scale_arg $ threads_arg)

(* Collect run metrics across every figure executed by this invocation;
   an Info-level subscriber leaves the per-access History and Debug
   events unbuilt, so figure timings are unaffected on the fast paths. *)
let with_metrics metrics_out run =
  let metrics = Option.map (fun _ -> Stm_obs.Metrics.create ()) metrics_out in
  let ok =
    Stm_core.Trace.with_sinks
      (Option.fold metrics ~none:[] ~some:(fun m ->
           [ (Stm_core.Trace.Info, Stm_obs.Metrics.handle m) ]))
      run
  in
  Option.iter
    (fun m -> Cli.write_json (Option.get metrics_out) (Stm_obs.Metrics.to_json m))
    metrics;
  if ok then 0 else 1

let figure_metrics_arg =
  Cli.metrics_out
    ~doc:
      "Write aggregate STM metrics (transaction counters, abort causes, \
       latency histograms, per-thread fairness incl. the Jain index) over \
       every figure run as JSON to $(docv)."

let figure_cmds =
  let cmd name knobs doc run =
    Cmd.v (Cmd.info name ~doc)
      Term.(
        const (fun k metrics_out -> with_metrics metrics_out (fun () -> run k))
        $ knobs_term knobs $ figure_metrics_arg)
  in
  List.map (fun (name, knobs, doc, run) -> cmd name knobs doc run) figures
  @ [
      cmd "all" `All
        "Every figure (fig6, privatization, fig13, fig15 to fig20), in \
         order, each under an == NAME == header."
        (fun k ->
          List.fold_left
            (fun acc (name, _, _, run) ->
              Fmt.pr "== %s ==@." name;
              run k && acc)
            true figures);
    ]

(* The litmus rows and ablation tables beyond the paper's figures. *)

let extras_cmd =
  let run () =
    let cells = Stm_litmus.Matrix.extras_rows () in
    Fmt.pr "%a" Stm_litmus.Matrix.pp_table cells;
    let ok = Stm_litmus.Matrix.all_match cells in
    Fmt.pr "matches expectations: %b@." ok;
    if ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "extras"
       ~doc:
         "Extra litmus rows: the Section 2.1 write-then-read variant and \
          transaction-vs-transaction dirty reads; non-zero exit on a \
          mismatch.")
    Term.(const run $ const ())

let ablations_cmd =
  let open Stm_harness.Ablations in
  let tables =
    [
      ( "DEA read-barrier privacy check (Figure 10a, optional instructions)",
        fun () -> dea_read_privacy () );
      ( "quiescence commit protocol cost (Section 3.4), OO7 @ 8 threads",
        quiescence_cost );
      ( "Section 5.2 transactional open-for-read removal, Tsp @ 4 threads \
         (weak)",
        txn_read_removal );
      ( "versioning granularity (Section 2.4), JBB, 4 threads",
        fun () -> versioning_granularity () );
      ("contention management: suicide vs wound-wait", contention_management);
    ]
  in
  let run () =
    List.iter
      (fun (title, rows) -> Fmt.pr "== %s ==@.%a" title pp (rows ()))
      tables;
    0
  in
  Cmd.v
    (Cmd.info "ablations"
       ~doc:
         "The five ablation tables: DEA read privacy, quiescence cost, \
          transactional read-barrier removal, versioning granularity and \
          contention management.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* Backends                                                            *)
(* ------------------------------------------------------------------ *)

(* The backends stress and perf can run: eager, lazy, mvcc, mvcc-si,
   eager-ts, lazy-ts. *)
let backends =
  List.map
    (fun b -> (Stm_core.Point.backend_name b, b))
    Stm_core.Point.backends

let backend_arg choices ~doc =
  Arg.(
    value
    & opt (enum choices) Stm_core.Point.(Eager Stm_core.Config.Incremental)
    & info [ "backend" ] ~docv:"BACKEND" ~doc)

(* ------------------------------------------------------------------ *)
(* Stress                                                              *)
(* ------------------------------------------------------------------ *)

let stress_report_json (r : Stm_harness.Stress.report) =
  let open Stm_obs in
  Json.Obj
    [
      ( "status",
        Json.Str
          (match r.Stm_harness.Stress.status with
          | Stm_runtime.Sched.Completed -> "completed"
          | Stm_runtime.Sched.Fuel_exhausted -> "fuel-exhausted"
          | Stm_runtime.Sched.Deadlock _ -> "deadlock") );
      ("completed", Json.Bool r.Stm_harness.Stress.completed);
      ("passed", Json.Bool (Stm_harness.Stress.passed r));
      ("makespan", Json.Int r.Stm_harness.Stress.makespan);
      ( "starved",
        Json.List
          (List.map (fun t -> Json.Int t) r.Stm_harness.Stress.starved) );
      ( "metrics",
        Metrics.to_json ~stats:r.Stm_harness.Stress.stats
          r.Stm_harness.Stress.metrics );
    ]

let run_stress scenarios backend cm seed fuel metrics_out diag_out =
  let scenarios =
    Option.fold scenarios ~none:Stm_harness.Stress.all_scenarios
      ~some:(fun s -> [ s ])
  in
  let reports =
    Cli.with_diag diag_out (fun diag ->
        List.map
          (fun s ->
            let r =
              Stm_harness.Stress.run ?seed ?fuel ~backend ~cm s
            in
            Fmt.pr "%a@." Stm_harness.Stress.pp_report r;
            (match (diag, r.Stm_harness.Stress.starved) with
            | Some d, (_ :: _ as tids) ->
                Stm_diag.Diag.force_incident d
                  ~reason:
                    (Fmt.str
                       "starvation verdict: %s under %s starved threads [%s]"
                       (Stm_harness.Stress.scenario_name s)
                       (Stm_cm.Policy.to_string cm)
                       (String.concat "; " (List.map string_of_int tids)))
            | _ -> ());
            r)
          scenarios)
  in
  Option.iter
    (fun path ->
      Cli.write_json path
        (Stm_obs.Json.Obj
           [
             ("policy", Stm_obs.Json.Str (Stm_cm.Policy.to_string cm));
             ( "backend",
               Stm_obs.Json.Str
                 (Stm_core.Config.versioning_to_string
                    (Stm_core.Point.versioning backend)) );
             ( "isolation",
               Stm_obs.Json.Str
                 (Stm_core.Config.isolation_to_string
                    (Stm_core.Point.isolation backend)) );
             ( "validation",
               Stm_obs.Json.Str
                 (Stm_core.Config.validation_to_string
                    (Stm_core.Point.validation backend)) );
             ("seed", Stm_obs.Json.Int (Option.value ~default:0 seed));
             ( "threshold",
               Stm_obs.Json.Int Stm_harness.Stress.starvation_threshold );
             ( "scenarios",
               Stm_obs.Json.Obj
                 (List.map
                    (fun r ->
                      ( Stm_harness.Stress.scenario_name
                          r.Stm_harness.Stress.scenario,
                        stress_report_json r ))
                    reports) );
           ]))
    metrics_out;
  if List.for_all (fun r -> r.Stm_harness.Stress.completed) reports then 0
  else 1

let stress_cmd =
  let scenario =
    Arg.(
      required
      & pos 0
          (some
             (enum
                (("all", None)
                :: List.map
                     (fun s -> (Stm_harness.Stress.scenario_name s, Some s))
                     Stm_harness.Stress.all_scenarios)))
          None
      & info [] ~docv:"SCENARIO"
          ~doc:
            "$(b,long-vs-short), $(b,livelock-pair), $(b,inversion-chain), \
             $(b,read-heavy), or $(b,all).")
  in
  let backend =
    backend_arg backends
      ~doc:
        "Versioning backend: $(b,eager) (in-place + undo log), $(b,lazy) \
         (write buffer), $(b,mvcc) (bounded per-granule version chains; \
         read-only transactions run abort-free against consistent \
         snapshots), $(b,mvcc-si) (mvcc at snapshot isolation: \
         first-committer-wins only), or $(b,eager-ts)/$(b,lazy-ts) (the \
         single-version backends under global-commit-clock validation)."
  in
  Cmd.v
    (Cmd.info "stress"
       ~doc:
         "Run a contention stress scenario; non-zero exit unless every run \
          completes.")
    Term.(
      const run_stress $ scenario $ backend $ Cli.cm
      $ Cli.seed
          ~doc:
            "Random-scheduler seed (also seeds randomized backoff); runs \
             are reproducible per seed. Default 0."
      $ Cli.fuel
          ~doc:
            "Scheduler step bound (default 2000000); exceeding it reports \
             fuel-exhausted."
      $ Cli.metrics_out
          ~doc:
            "Write the per-scenario reports (status, starved threads, \
             metrics incl. the Jain index) as JSON to $(docv)."
      $ Cli.diag_out
          ~doc:
            "Attach the conflict-diagnosis pipeline (contention heatmap, \
             abort-causality graph, flight recorder) live, print its report \
             after the scenario reports, and write the full Debug-level \
             event stream as a JSONL trace to $(docv) for offline replay \
             with $(b,stm_diag). A starvation verdict forces a \
             flight-recorder incident.")

(* ------------------------------------------------------------------ *)
(* Fuzz                                                                *)
(* ------------------------------------------------------------------ *)

let sanitize_name s =
  String.map
    (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.') as c -> c | _ -> '_')
    s

(* The budget and repro directory both fuzz sweeps take. *)
let fuzz_budget =
  let open Stm_check in
  let mk programs seeds seed fuel dir =
    Option.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) dir;
    ( {
        Fuzz.default_budget with
        Fuzz.programs;
        seeds;
        base_seed =
          Option.value seed ~default:Fuzz.default_budget.Fuzz.base_seed;
        max_steps = Option.value fuel ~default:Fuzz.default_budget.Fuzz.max_steps;
      },
      dir )
  in
  Term.(
    const mk
    $ Arg.(
        value & opt int Fuzz.default_budget.Fuzz.programs
        & info [ "programs" ] ~docv:"N" ~doc:"Generated programs per campaign.")
    $ Arg.(
        value & opt int Fuzz.default_budget.Fuzz.seeds
        & info [ "seeds" ] ~docv:"N" ~doc:"Random schedules per program.")
    $ Cli.seed ~doc:"Base seed for program generation and schedules."
    $ Cli.fuel ~doc:"Per-run scheduler step bound."
    $ Arg.(
        value
        & opt (some string) None
        & info [ "dir" ] ~docv:"DIR"
            ~doc:
              "Write every minimized counterexample as a replayable repro \
               JSON file into $(docv) (created if missing); replay with \
               $(b,stm_run --repro FILE)."))

let run_fuzz ((budget : Stm_check.Fuzz.budget), dir) driver validation
    metrics_out diag_out =
  let open Stm_check in
  let budget = { budget with driver } in
  (* Fuzz mode feeds the flight recorder through [on_anomaly] alone:
     each unexpected anomaly freezes an incident naming the campaign,
     program seed and schedule seed. *)
  let diag = Option.map (fun _ -> Stm_diag.Diag.create ()) diag_out in
  let on_anomaly =
    Option.map
      (fun d c ~prog_seed ~sched_seed ->
        Stm_diag.Diag.force_incident d
          ~reason:
            (Printf.sprintf "%s: unexpected anomaly on program %d schedule %d"
               (Fuzz.campaign_name c) prog_seed sched_seed))
      diag
  in
  let log msg = Fmt.pr "    %s@." msg in
  let results =
    List.map
      (fun c ->
        let r = Fuzz.run_campaign ~log ?on_anomaly budget c in
        Fmt.pr "%-40s %4d runs %3d anomalies %3d inconclusive  %s@."
          (Fuzz.campaign_name c) r.Fuzz.runs r.Fuzz.anomalies
          r.Fuzz.inconclusive
          (if r.Fuzz.ok then "ok" else "FAIL");
        (match (r.Fuzz.repro, dir) with
        | Some repro, Some d ->
            let path =
              Filename.concat d (sanitize_name (Fuzz.campaign_name c) ^ ".json")
            in
            Repro.save path repro;
            Fmt.pr "    repro written to %s@." path
        | Some repro, None ->
            if not r.Fuzz.ok then
              Fmt.pr "    repro: %s@." (Repro.to_string repro)
        | None, _ -> ());
        r)
      (* --validation timestamp swaps in the timestamp certification
         plan: expect-clean campaigns over the 24-combo timestamp grid *)
      (match validation with
      | Stm_core.Config.Incremental -> Fuzz.default_plan
      | Stm_core.Config.Timestamp -> Fuzz.timestamp_plan)
  in
  let summary = Fuzz.summary_json budget results in
  Option.iter (fun path -> Cli.write_json path summary) metrics_out;
  Option.iter
    (fun d ->
      let path = Option.get diag_out in
      Cli.write_json path (Stm_diag.Diag.to_json d);
      Fmt.pr "fuzz diag report written to %s@." path)
    diag;
  let ok = Fuzz.passed results in
  Fmt.pr "fuzz sweep: %d campaigns, %d runs, %s@." (List.length results)
    (List.fold_left (fun a r -> a + r.Stm_check.Fuzz.runs) 0 results)
    (if ok then "all expectations met" else "EXPECTATIONS VIOLATED");
  if ok then 0 else 1

(* The same seeded programs and schedules run on every backend in the
   grid (eager, lazy, mvcc-serializable, all certified serializable, plus
   mvcc-snapshot certified at snapshot isolation); any member certifying
   anomalous at its own level is a cross-backend divergence, saved as a
   replayable repro. *)
let run_differential (budget, dir) validation metrics_out =
  let open Stm_check in
  let log msg = Fmt.pr "    %s@." msg in
  (* --validation timestamp widens the grid with eager-ts and lazy-ts:
     the same programs and schedules under both validation schemes *)
  let combos =
    match validation with
    | Stm_core.Config.Incremental -> Fuzz.backend_grid
    | Stm_core.Config.Timestamp -> Fuzz.timestamp_backend_grid
  in
  let r = Fuzz.run_differential ~log ~combos budget in
  Fmt.pr "backend grid:@.";
  List.iter
    (fun c -> Fmt.pr "  %s@." (Combo.name c))
    r.Fuzz.diff_combos;
  List.iter
    (fun (d : Fuzz.divergence) ->
      Fmt.pr "DIVERGENCE program seed %d, schedule seed %d:@."
        d.Fuzz.div_prog_seed d.Fuzz.div_sched_seed;
      List.iter
        (fun (combo, v) ->
          Fmt.pr "  %-32s %a@." combo Stm_check.History.pp_verdict v)
        d.Fuzz.div_verdicts;
      List.iteri
        (fun i repro ->
          match dir with
          | Some dd ->
              let path =
                Filename.concat dd
                  (Fmt.str "divergence-p%d-s%d-%d.json" d.Fuzz.div_prog_seed
                     d.Fuzz.div_sched_seed i)
              in
              Repro.save path repro;
              Fmt.pr "  repro written to %s@." path
          | None -> Fmt.pr "  repro: %s@." (Repro.to_string repro))
        d.Fuzz.div_repros)
    r.Fuzz.divergences;
  Option.iter
    (fun path -> Cli.write_json path (Fuzz.differential_to_json r))
    metrics_out;
  let ok = Fuzz.differential_passed r in
  Fmt.pr
    "differential sweep: %d backends x %d programs, %d executions, %d \
     divergences — %s@."
    (List.length r.Fuzz.diff_combos)
    r.Fuzz.diff_programs r.Fuzz.diff_executions
    (List.length r.Fuzz.divergences)
    (if ok then "backends agree" else "BACKENDS DIVERGED");
  if ok then 0 else 1

let fuzz_summary_arg =
  Cli.metrics_out ~doc:"Write the sweep's JSON summary to $(docv)."

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Property-based fuzz sweep: random programs per (configuration \
          combo, profile) campaign, checked against the serializability \
          oracle; counterexamples are shrunk and printed (or saved with \
          $(b,--dir)) as replayable JSON. Non-zero exit when any campaign \
          misses its expectation.")
    Term.(
      const run_fuzz $ fuzz_budget
      $ Arg.(
          value
          & opt
              (enum
                 Stm_check.Fuzz.
                   [
                     ("random", Drv_random);
                     ("explore", Drv_explore);
                     ("dpor", Drv_dpor);
                   ])
              Stm_check.Fuzz.default_budget.Stm_check.Fuzz.driver
          & info [ "driver" ] ~docv:"DRIVER"
              ~doc:
                "Schedule source: $(b,random) (seeded random scheduler), \
                 $(b,explore) (the litmus explorer's preemption-bounded DFS, \
                 one search per program), or $(b,dpor) (the race-reduced \
                 DPOR walk, same bound, far fewer runs).")
      $ Cli.validation
          ~doc:
            "$(b,incremental) runs the default plan; $(b,timestamp) runs \
             the timestamp certification plan instead (expect-clean \
             campaigns over the 24-combo global-commit-clock grid)."
      $ fuzz_summary_arg
      $ Cli.diag_out
          ~doc:
            "Feed each unexpected anomaly to the flight recorder as an \
             incident and write the diagnosis report as JSON to $(docv).")

let differential_cmd =
  Cmd.v
    (Cmd.info "differential"
       ~doc:
         "Cross-backend differential fuzz sweep: the same seeded \
          transaction-only programs under the same schedule seeds on every \
          backend in the grid (eager, lazy, mvcc at serializable — all \
          certified serializable — plus mvcc at snapshot isolation, \
          certified at snapshot level). Any member certifying anomalous at \
          its own level is a divergence: its verdicts are printed, a \
          replayable repro per anomalous member is saved with $(b,--dir), \
          and the exit status is non-zero.")
    Term.(
      const run_differential $ fuzz_budget
      $ Cli.validation
          ~doc:
            "$(b,timestamp) widens the grid with the eager-ts and lazy-ts \
             members."
      $ fuzz_summary_arg)

(* ------------------------------------------------------------------ *)
(* Perf: host wall-clock microbenchmarks                               *)
(* ------------------------------------------------------------------ *)

(* --diag-gate: the diagnosis layer must be free when disabled. The STM
   hot paths (the txn/ benches) and the explorer cell (fig6/) run with no
   trace sink installed, so merging the diag code must not move them:
   hold those benches to a tighter budget than the general ratchet. *)
let diag_gate_pct = 5.0

let diag_gated c =
  let pre p =
    String.length c.Stm_perf.Perf.c_name >= String.length p
    && String.sub c.Stm_perf.Perf.c_name 0 (String.length p) = p
  in
  pre "txn/" || pre "fig6/"

(* Each backend (and validation scheme) ratchets against its own
   checked-in baseline; an explicit --baseline overrides the choice. *)
let default_baseline = function
  | Stm_core.Point.Eager Stm_core.Config.Incremental -> "bench/baseline.json"
  | Stm_core.Point.Eager Stm_core.Config.Timestamp -> "bench/baseline-timestamp.json"
  | Stm_core.Point.Lazy Stm_core.Config.Incremental -> "bench/baseline-lazy.json"
  | Stm_core.Point.Lazy Stm_core.Config.Timestamp -> "bench/baseline-lazy-timestamp.json"
  | Stm_core.Point.Mvcc _ -> "bench/baseline-mvcc.json"

let run_perf quick backend out baseline threshold diag_gate =
  let baseline = Option.value baseline ~default:(default_baseline backend) in
  let report = Stm_perf.Perf.suite ~quick ~backend () in
  Fmt.pr "backend: %s (%s validation)@."
    (Stm_core.Config.versioning_to_string (Stm_core.Point.versioning backend))
    (Stm_core.Config.validation_to_string (Stm_core.Point.validation backend));
  Fmt.pr "%a" Stm_perf.Perf.pp_report report;
  Cli.write_json out (Stm_perf.Perf.to_json report);
  Fmt.pr "perf results written to %s@." out;
  if not (Sys.file_exists baseline) then begin
    Fmt.pr "no baseline at %s; skipping regression check@." baseline;
    0
  end
  else
    let doc = In_channel.with_open_text baseline In_channel.input_all in
    match Stm_obs.Json.of_string doc with
    | Error msg ->
        Fmt.epr "cannot parse baseline %s: %s@." baseline msg;
        2
    | Ok json ->
        let base = Stm_perf.Perf.baseline_of_json json in
        let comps = Stm_perf.Perf.compare_to_baseline ~baseline:base report in
        Fmt.pr "vs %s:@.%a" baseline Stm_perf.Perf.pp_comparison comps;
        let regressed =
          Stm_perf.Perf.regressions ~threshold_pct:threshold comps
        in
        let diag_regressed =
          if not diag_gate then []
          else
            List.filter
              (fun c ->
                diag_gated c
                && Stm_perf.Perf.ns_regressed ~threshold_pct:diag_gate_pct c)
              comps
        in
        if diag_gate then
          Fmt.pr "diag overhead gate: %d txn/fig6 benches held to %.0f%%@."
            (List.length (List.filter diag_gated comps))
            diag_gate_pct;
        if regressed = [] && diag_regressed = [] then begin
          Fmt.pr
            "no microbench regressed more than %.0f%% in ns/op or %.0f%% in \
             alloc words/op@."
            threshold Stm_perf.Perf.alloc_bound_pct;
          0
        end
        else begin
          List.iter
            (fun c ->
              if Stm_perf.Perf.ns_regressed ~threshold_pct:threshold c then
                Fmt.epr "REGRESSION %s: %.0f ns/op vs baseline %.0f (>%g%%)@."
                  c.Stm_perf.Perf.c_name c.Stm_perf.Perf.c_ns
                  c.Stm_perf.Perf.c_baseline_ns threshold;
              match c.Stm_perf.Perf.c_baseline_words with
              | Some w when Stm_perf.Perf.alloc_regressed c ->
                  Fmt.epr
                    "REGRESSION %s: %.2f alloc words/op vs baseline %.2f \
                     (>%g%%)@."
                    c.Stm_perf.Perf.c_name c.Stm_perf.Perf.c_words w
                    Stm_perf.Perf.alloc_bound_pct
              | Some _ | None -> ())
            regressed;
          List.iter
            (fun c ->
              Fmt.epr
                "DIAG OVERHEAD %s: %.0f ns/op vs baseline %.0f (>%g%% with \
                 diagnosis disabled)@."
                c.Stm_perf.Perf.c_name c.Stm_perf.Perf.c_ns
                c.Stm_perf.Perf.c_baseline_ns diag_gate_pct)
            diag_regressed;
          1
        end

let perf_cmd =
  (* every backend but mvcc-si, which has no perf baseline of its own *)
  let backend =
    backend_arg
      (List.filter
         (fun (_, b) -> Stm_core.Point.isolation b = Stm_core.Config.Serializable)
         backends)
      ~doc:
        "Backend the txn/*, barrier/*, diag/* and store/* benches run under: \
         $(b,eager), $(b,lazy), $(b,mvcc), $(b,eager-ts) or $(b,lazy-ts). \
         It also picks the default $(b,--baseline)."
  in
  Cmd.v
    (Cmd.info "perf"
       ~doc:
         "Host wall-clock performance suite (Bechamel): txn \
          read/write/commit/abort microbenches, the fig6 explorer cell, the \
          fig18 Tsp end-to-end unit and a fuzz-campaign throughput unit. \
          Writes JSON to $(b,--out) and, when $(b,--baseline) exists, fails \
          with non-zero exit if any bench regresses more than \
          $(b,--threshold) percent in ns/op, or allocates more than 2% \
          over its baseline words/op.")
    Term.(
      const run_perf
      $ Arg.(
          value & flag
          & info [ "quick" ]
              ~doc:
                "Shrink the Bechamel sampling quota for CI smoke runs (same \
                 operations, fewer samples).")
      $ backend
      $ Arg.(
          value & opt string "BENCH_PR4.json"
          & info [ "out" ] ~docv:"FILE" ~doc:"Where the JSON report goes.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "baseline" ] ~docv:"FILE"
              ~doc:
                "Baseline report to ratchet against (same schema as \
                 $(b,--out); refresh it by pointing $(b,--out) here). \
                 Defaults to the backend's own file: \
                 $(b,bench/baseline.json) (eager), \
                 $(b,bench/baseline-timestamp.json) (eager-ts), \
                 $(b,bench/baseline-lazy.json) (lazy), \
                 $(b,bench/baseline-lazy-timestamp.json) (lazy-ts) or \
                 $(b,bench/baseline-mvcc.json) (mvcc). Missing file skips \
                 the check.")
      $ Arg.(
          value & opt float 25.0
          & info [ "threshold" ] ~docv:"PCT"
              ~doc:"Allowed per-bench slowdown vs the baseline, in percent.")
      $ Arg.(
          value & flag
          & info [ "diag-gate" ]
              ~doc:
                "Additionally hold the txn/* and fig6/* benches (which run \
                 with no trace sink, i.e. diagnosis disabled) to a 5% budget \
                 vs the baseline — the conflict-diagnosis layer must be free \
                 when off."))

(* ------------------------------------------------------------------ *)
(* Store: KV workload engine                                           *)
(* ------------------------------------------------------------------ *)

type store_opts = {
  so_shards : int;
  so_clients : int;
  so_keys : int;
  so_ops : int;
  so_batch : int;
  so_value_size : int;
  so_dist : Stm_store.Keydist.dist;
}

let store_params so profile ~record ~mode ~shards cm seed fuel =
  {
    Stm_store.Engine.default with
    Stm_store.Engine.mode;
    shards;
    clients = so.so_clients;
    keys = so.so_keys;
    value_size = so.so_value_size;
    batch = so.so_batch;
    ops_per_client = so.so_ops;
    dist = so.so_dist;
    profile;
    seed = Option.value seed ~default:0;
    cm;
    record;
    fuel =
      Option.value fuel
        ~default:Stm_store.Engine.default.Stm_store.Engine.fuel;
  }

(* One profile run, with the optional diagnosis pipeline attached the
   same way stress attaches it; the heatmap's hot granules are joined
   back to store keys through the report's oid resolver. *)
let run_store_profile so profile mode check cm seed fuel metrics_out
    diag_out =
  let p =
    store_params so profile ~record:check ~mode ~shards:so.so_shards cm seed
      fuel
  in
  let hot_keys d r =
    Fmt.pr "hot keys (heatmap granules resolved to store keys):@.";
    List.iter
      (fun (c : Stm_diag.Heatmap.cell) ->
        match r.Stm_store.Engine.r_resolve_oid c.Stm_diag.Heatmap.oid with
        | Some (k, sh) ->
            Fmt.pr "  key %-6d shard %-3d heat %d@." k sh
              (Stm_diag.Heatmap.heat c)
        | None ->
            Fmt.pr "  oid %-6d (store structure)  heat %d@."
              c.Stm_diag.Heatmap.oid
              (Stm_diag.Heatmap.heat c))
      (Stm_diag.Heatmap.top (Stm_diag.Diag.heatmap d) ~k:10)
  in
  let r =
    Cli.with_diag ~after:hot_keys diag_out (fun _ ->
        let r = Stm_store.Engine.run p in
        Fmt.pr "%a@." Stm_store.Engine.pp_report r;
        r)
  in
  Option.iter
    (fun path -> Cli.write_json path (Stm_store.Engine.to_json r))
    metrics_out;
  let failures = ref [] in
  let fail fmt = Fmt.kstr (fun s -> failures := s :: !failures) fmt in
  if not r.Stm_store.Engine.r_completed then fail "run did not complete";
  List.iter (fun v -> fail "invariant violated: %s" v)
    r.Stm_store.Engine.r_invariants;
  (* A mode that leaves non-transactional accesses unisolated is
     *expected* to misbehave on mixed traffic — its verdict and deviation
     are findings, not failures. *)
  if Stm_core.Mode.isolated mode then begin
    (match r.Stm_store.Engine.r_verdict with
    | Some Stm_check.History.Serializable | None -> ()
    | Some v ->
        fail "oracle rejected a %s run: %a" (Stm_core.Mode.name mode)
          Stm_check.History.pp_verdict v);
    match r.Stm_store.Engine.r_deviation with
    | Some d when d <> 0 ->
        fail "update deviation %d in %s mode" d (Stm_core.Mode.name mode)
    | _ -> ()
  end;
  match !failures with
  | [] -> 0
  | fs ->
      List.iter (fun f -> Fmt.epr "STORE FAILURE: %s@." f) (List.rev fs);
      1

(* The acceptance sweep: shard scaling on read-heavy Zipfian traffic,
   then strong-vs-weak barrier overhead on the same traffic. *)
let sweep_shards = [ 1; 2; 4; 8 ]

let run_store_sweep so cm seed fuel metrics_out =
  let profile = Stm_store.Profile.read_heavy in
  let mk atomicity shards =
    let mode =
      Stm_core.(Mode.Stm (Point.v (Point.Eager Config.Incremental) atomicity))
    in
    store_params so profile ~record:false ~mode ~shards cm seed fuel
  in
  Fmt.pr "== shard scaling: %s, %s, %d clients ==@."
    profile.Stm_store.Profile.pname
    (Stm_store.Keydist.dist_to_string so.so_dist)
    so.so_clients;
  let points =
    List.map
      (fun s ->
        let r = Stm_store.Engine.run (mk Stm_core.Point.Strong s) in
        Fmt.pr "%a@." Stm_store.Engine.pp_report r;
        (s, r))
      sweep_shards
  in
  let thr (_, r) = r.Stm_store.Engine.r_throughput in
  let first = List.hd points and last = List.nth points (List.length points - 1) in
  let scaling_ok = thr last > thr first in
  Fmt.pr "shard scaling %d -> %d: %.1f -> %.1f ops/Mcycle (%s)@.@." (fst first)
    (fst last) (thr first) (thr last)
    (if scaling_ok then "ok" else "NOT SCALING");
  Fmt.pr "== barrier overhead: strong vs weak, %d shards ==@." so.so_shards;
  let rs = Stm_store.Engine.run (mk Stm_core.Point.Strong so.so_shards) in
  Fmt.pr "%a@." Stm_store.Engine.pp_report rs;
  let rw = Stm_store.Engine.run (mk Stm_core.Point.Weak so.so_shards) in
  Fmt.pr "%a@." Stm_store.Engine.pp_report rw;
  (* Overhead is measured where barriers live: the per-op latency of the
     non-transactional classes. Makespan would fold in contention-manager
     timing noise (abort/backoff divergence between the two runs). *)
  let lat_strong = Stm_store.Engine.nontxn_mean_latency rs in
  let lat_weak = Stm_store.Engine.nontxn_mean_latency rw in
  let overhead_pct =
    if lat_weak > 0. then (lat_strong -. lat_weak) /. lat_weak *. 100. else 0.
  in
  Fmt.pr
    "strong-atomicity barrier overhead at %d shards: %+.1f%% per \
     non-transactional op (%.1f vs %.1f cycles)@."
    so.so_shards overhead_pct lat_strong lat_weak;
  let runs = List.map snd points @ [ rs; rw ] in
  let completed =
    List.for_all (fun r -> r.Stm_store.Engine.r_completed) runs
  in
  let invariants_ok =
    List.for_all (fun r -> r.Stm_store.Engine.r_invariants = []) runs
  in
  Option.iter
    (fun path ->
      let open Stm_obs in
      Cli.write_json path
        (Json.Obj
           [
             ("schema", Json.Str "stm-store/1");
             ("kind", Json.Str "sweep");
             ( "scaling",
               Json.Obj
                 [
                   ("profile", Json.Str profile.Stm_store.Profile.pname);
                   ( "dist",
                     Json.Str (Stm_store.Keydist.dist_to_string so.so_dist) );
                   ("clients", Json.Int so.so_clients);
                   ( "points",
                     Json.List
                       (List.map
                          (fun (s, r) ->
                            Json.Obj
                              [
                                ("shards", Json.Int s);
                                ( "throughput_ops_per_mcycle",
                                  Json.Float r.Stm_store.Engine.r_throughput );
                                ( "makespan",
                                  Json.Int r.Stm_store.Engine.r_makespan );
                              ])
                          points) );
                   ("scaling_ok", Json.Bool scaling_ok);
                 ] );
             ( "barrier_overhead",
               Json.Obj
                 [
                   ("shards", Json.Int so.so_shards);
                   ("strong_makespan", Json.Int rs.Stm_store.Engine.r_makespan);
                   ("weak_makespan", Json.Int rw.Stm_store.Engine.r_makespan);
                   ( "strong_throughput",
                     Json.Float rs.Stm_store.Engine.r_throughput );
                   ( "weak_throughput",
                     Json.Float rw.Stm_store.Engine.r_throughput );
                   ("strong_nontxn_latency", Json.Float lat_strong);
                   ("weak_nontxn_latency", Json.Float lat_weak);
                   ("overhead_pct", Json.Float overhead_pct);
                   ("overhead_positive", Json.Bool (overhead_pct > 0.));
                 ] );
             ( "runs",
               Json.List (List.map Stm_store.Engine.to_json runs) );
           ]))
    metrics_out;
  if completed && invariants_ok && scaling_ok && overhead_pct > 0. then 0
  else begin
    if not completed then Fmt.epr "STORE FAILURE: a sweep run did not complete@.";
    if not invariants_ok then Fmt.epr "STORE FAILURE: invariant violations@.";
    if not scaling_ok then
      Fmt.epr "STORE FAILURE: throughput did not increase with shard count@.";
    if overhead_pct <= 0. then
      Fmt.epr "STORE FAILURE: strong-atomicity barrier overhead not measurable@.";
    1
  end

(* The sweep fixes its own modes and records nothing, so --mode, --check
   and --diag-out are usage errors there. Parameter checks the engine
   makes (shard and key counts, theta range) are usage errors too. *)
let run_store target mode check so cm seed fuel metrics_out diag_out =
  try
    match target with
    | `Sweep when mode <> None || check || diag_out <> None ->
        `Error (true, "store sweep reads none of --mode, --check, --diag-out")
    | `Sweep -> `Ok (run_store_sweep so cm seed fuel metrics_out)
    | `Profile p ->
        `Ok
          (run_store_profile so p
             (Option.value mode
                ~default:Stm_store.Engine.default.Stm_store.Engine.mode)
             check cm seed fuel metrics_out diag_out)
  with Invalid_argument m -> `Error (false, m)

let store_cmd =
  let int_opt names default doc =
    Arg.(value & opt int default & info names ~docv:"N" ~doc)
  in
  let target =
    let parse = function
      | "sweep" -> Ok `Sweep
      | s -> (
          match Stm_store.Profile.of_string s with
          | Some p -> Ok (`Profile p)
          | None ->
              Error
                (`Msg
                  (Fmt.str "unknown store profile %s (expected sweep or one of %s)"
                     s
                     (String.concat ", "
                        (List.map
                           (fun p -> p.Stm_store.Profile.pname)
                           Stm_store.Profile.all)))))
    in
    let print ppf = function
      | `Sweep -> Fmt.string ppf "sweep"
      | `Profile p -> Fmt.string ppf p.Stm_store.Profile.pname
    in
    Arg.(
      required
      & pos 0 (some (conv (parse, print))) None
      & info [] ~docv:"PROFILE"
          ~doc:
            "An operation-mix profile (see $(b,stm_bench list); YCSB letter \
             aliases accepted), or $(b,sweep) for the acceptance sweep: \
             shard scaling on read-heavy Zipfian traffic plus \
             strong-vs-weak barrier overhead on the same traffic.")
  in
  let mode =
    Arg.(
      value
      & opt
          (some
             (enum
                (List.map (fun m -> (Stm_core.Mode.name m, m)) Stm_core.Mode.all)))
          None
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Concurrency discipline: $(b,locks) (shard mutexes, no \
             barriers), or atomic blocks as transactions at a point \
             ($(b,strong-eager), the default; any name $(b,explore \
             --mode) takes). Under $(b,locks) and the strong and dea \
             points the update deviation must be zero; weak and quiesce \
             points leave non-transactional accesses unisolated, so mixed \
             traffic may exhibit the Figure 6 anomalies.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Rewrite stored values to globally-unique tokens, record the \
             value-access history, and check it against the serializability \
             oracle. Non-zero exit if a run under $(b,locks) or a strong or \
             dea point is rejected (an anomaly under a weak or quiesce point \
             is reported, not fatal). Only non-structural profiles (no \
             insert/delete) can be checked.")
  in
  let opts =
    let mk so_shards so_clients so_keys so_ops so_batch so_value_size dist
        theta =
      let so_dist =
        match dist with
        | Stm_store.Keydist.Zipfian _ -> Stm_store.Keydist.Zipfian theta
        | Stm_store.Keydist.Uniform -> Stm_store.Keydist.Uniform
      in
      { so_shards; so_clients; so_keys; so_ops; so_batch; so_value_size; so_dist }
    in
    Term.(
      const mk
      $ int_opt [ "shards" ] 4 "Store shard count."
      $ int_opt [ "clients" ] 8 "Closed-loop client threads."
      $ int_opt [ "keys" ] 1024 "Preloaded key-space size."
      $ int_opt [ "ops" ] 128 "Operations per client."
      $ int_opt [ "batch" ] 8 "Keys per multi-get (and per scan)."
      $ Arg.(
          value & opt int 4
          & info [ "value-size" ] ~docv:"WORDS"
              ~doc:"Heap words per store value; writes touch all of them.")
      $ Arg.(
          value
          & opt
              (enum
                 Stm_store.Keydist.
                   [ ("zipfian", Zipfian 0.99); ("uniform", Uniform) ])
              (Stm_store.Keydist.Zipfian 0.99)
          & info [ "dist" ] ~docv:"DIST"
              ~doc:"Key distribution: $(b,zipfian) or $(b,uniform).")
      $ Arg.(
          value & opt float 0.99
          & info [ "theta" ] ~docv:"F"
              ~doc:"Zipfian skew exponent in (0, 1) for $(b,--dist zipfian)."))
  in
  Cmd.v
    (Cmd.info "store"
       ~doc:
         "Run the KV-store workload engine on one profile, or its \
          acceptance sweep.")
    Term.(
      ret
        (const run_store $ target $ mode $ check $ opts $ Cli.cm
        $ Cli.seed ~doc:"Random-scheduler seed (default 0)."
        $ Cli.fuel ~doc:"Scheduler step bound per run."
        $ Cli.metrics_out ~doc:"Write the run's JSON report to $(docv)."
        $ Cli.diag_out
            ~doc:
              "Attach the conflict-diagnosis pipeline as $(b,stress) does, \
               print its report with the hot store keys, and write the \
               JSONL trace to $(docv)."))

(* ------------------------------------------------------------------ *)
(* Exploration-engine certification                                    *)
(* ------------------------------------------------------------------ *)

(* explore ENGINE: re-derive the litmus matrix with a chosen schedule
   engine. "dpor" is the certification mode: every cell is decided by
   both the enumerative DFS and the race-reduced DPOR walk at the same
   preemption bound, and a verdict flip — or a DPOR walk that fails to
   complete where the enumerative baseline finished — is fatal. "enum"
   re-derives the cells with the DFS alone; "pct" samples them with
   probabilistic concurrency testing, where only an anomaly on an
   expected-"no" cell is conclusive (a sampler's silence certifies
   nothing, so missed "yes" cells are reported, not fatal). *)

(* The [--rows] cell set, narrowed to one program's row and/or one
   mode's column when [--program]/[--mode] name them. *)
let explore_cells ~bound ~rows ~program ~mode =
  let selected sel name = match sel with None -> true | Some s -> s = name in
  List.filter
    (fun (p, m, _) ->
      (rows = `All
      || List.mem_assoc p.Stm_litmus.Programs.name
           Stm_litmus.Matrix.expected_fig6
         && List.mem m Stm_litmus.Modes.all_fig6)
      && selected program p.Stm_litmus.Programs.name
      && selected mode (Stm_core.Mode.name m))
    (Stm_litmus.Matrix.full_matrix ~bound ())

(* Every mode some matrix cell runs under, in matrix order. *)
let explore_modes =
  List.fold_left
    (fun acc (_, m, _) ->
      let n = Stm_core.Mode.name m in
      if List.mem n acc then acc else acc @ [ n ])
    []
    (Stm_litmus.Matrix.full_matrix ())

let cell_json (c : Stm_litmus.Matrix.cell) =
  let open Stm_obs in
  [
    ("program", Json.Str c.Stm_litmus.Matrix.program.Stm_litmus.Programs.name);
    ("mode", Json.Str (Stm_core.Mode.name c.Stm_litmus.Matrix.mode));
    ("expected", Json.Bool c.Stm_litmus.Matrix.expected);
    ("observed", Json.Bool c.Stm_litmus.Matrix.observed);
    ("runs", Json.Int c.Stm_litmus.Matrix.runs);
    ("truncated", Json.Bool c.Stm_litmus.Matrix.truncated);
  ]

let run_explore_dpor ~bound ~max_runs ~cells ~cells_out =
  let open Stm_obs in
  Fmt.pr "certifying %d cells at preemption bound %d (dpor vs enum)@."
    (List.length cells) bound;
  let results =
    List.map
      (fun (p, m, b) ->
        let c =
          Stm_litmus.Matrix.certify_cell ~preemption_bound:b ?max_runs p m
        in
        Fmt.pr "%a@." Stm_litmus.Matrix.pp_certified c;
        c)
      cells
  in
  let total f = List.fold_left (fun a c -> a + f c) 0 results in
  let enum_total =
    total (fun c -> c.Stm_litmus.Matrix.enum.Stm_litmus.Matrix.runs)
  in
  let dpor_total =
    total (fun c -> c.Stm_litmus.Matrix.dpor.Stm_litmus.Matrix.runs)
  in
  let flips =
    List.filter
      (fun c ->
        c.Stm_litmus.Matrix.dpor.Stm_litmus.Matrix.observed
        <> c.Stm_litmus.Matrix.enum.Stm_litmus.Matrix.observed)
      results
  in
  let incomplete =
    List.filter (fun c -> not (Stm_litmus.Matrix.cell_certified c)) results
  in
  let mismatches =
    List.filter
      (fun c ->
        c.Stm_litmus.Matrix.enum.Stm_litmus.Matrix.observed
        <> c.Stm_litmus.Matrix.enum.Stm_litmus.Matrix.expected)
      results
  in
  let ratio =
    if dpor_total = 0 then 0.
    else float_of_int enum_total /. float_of_int dpor_total
  in
  Fmt.pr
    "total runs: enum %d, dpor %d (%.2fx reduction); %d verdict flips, %d \
     uncertified, %d paper mismatches@."
    enum_total dpor_total ratio (List.length flips) (List.length incomplete)
    (List.length mismatches);
  let ok = incomplete = [] && mismatches = [] in
  Option.iter
    (fun path ->
      Cli.write_json path
        (Json.Obj
           [
             ("engine", Json.Str "dpor");
             ("preemption_bound", Json.Int bound);
             ( "cells",
               Json.List
                 (List.map
                    (fun c ->
                      Json.Obj
                        (cell_json c.Stm_litmus.Matrix.dpor
                        @ [
                            ( "enum_observed",
                              Json.Bool
                                c.Stm_litmus.Matrix.enum
                                  .Stm_litmus.Matrix.observed );
                            ( "enum_runs",
                              Json.Int
                                c.Stm_litmus.Matrix.enum.Stm_litmus.Matrix.runs
                            );
                            ("complete", Json.Bool c.Stm_litmus.Matrix.complete);
                            ("races", Json.Int c.Stm_litmus.Matrix.races);
                            ( "certified",
                              Json.Bool (Stm_litmus.Matrix.cell_certified c) );
                          ]))
                    results) );
             ("enum_runs_total", Json.Int enum_total);
             ("dpor_runs_total", Json.Int dpor_total);
             ("run_ratio", Json.Float ratio);
             ("flips", Json.Int (List.length flips));
             ("passed", Json.Bool ok);
           ]))
    cells_out;
  if ok then 0 else 1

(* [sampled]: the engine samples schedules rather than enumerating them,
   so it is only held to the one-sided check. [ablation]: the cells ran
   at an overridden granule, so no verdict is held to the paper.
   [outcomes]: list each cell's outcome set under its verdict line. *)
let run_explore_cells ~engine ~sampled ?ablation ?(outcomes = false) ~runner
    ~cells ~cells_out () =
  let open Stm_obs in
  Fmt.pr "re-deriving %d cells with the %s engine@." (List.length cells) engine;
  let results =
    List.map
      (fun (p, m, b) ->
        let (c : Stm_litmus.Matrix.cell) = runner ~bound:b p m in
        Fmt.pr "%-14s %-14s %s expected=%b runs=%d@."
          c.Stm_litmus.Matrix.program.Stm_litmus.Programs.name
          (Stm_core.Mode.name c.Stm_litmus.Matrix.mode)
          (if c.Stm_litmus.Matrix.observed then "yes" else "no ")
          c.Stm_litmus.Matrix.expected c.Stm_litmus.Matrix.runs;
        if outcomes then
          List.iter
            (fun (o, n) ->
              Fmt.pr "    %-30s x%d%s@." o n
                (if p.Stm_litmus.Programs.is_anomalous o then "  <- ANOMALY"
                 else ""))
            c.Stm_litmus.Matrix.outcomes;
        c)
      cells
  in
  let false_yes =
    List.filter
      (fun (c : Stm_litmus.Matrix.cell) ->
        c.Stm_litmus.Matrix.observed && not c.Stm_litmus.Matrix.expected)
      results
  in
  let missed =
    List.filter
      (fun (c : Stm_litmus.Matrix.cell) ->
        c.Stm_litmus.Matrix.expected && not c.Stm_litmus.Matrix.observed)
      results
  in
  (* The enumerative DFS at the standard bound must reproduce the paper
     exactly; a sampler is only held to the one-sided check. *)
  let ok =
    match ablation with
    | Some granule ->
        Fmt.pr
          "%d cells, %d with an anomaly at granule %d (an ablation: not held \
           to the paper)@."
          (List.length results)
          (List.length
             (List.filter (fun c -> c.Stm_litmus.Matrix.observed) results))
          granule;
        true
    | None ->
        let ok =
          if sampled then begin
            if missed <> [] then
              Fmt.pr "note: %d expected-yes cells not reached by sampling@."
                (List.length missed);
            false_yes = []
          end
          else false_yes = [] && missed = []
        in
        Fmt.pr "%d cells, %d unexpected anomalies, %d missed witnesses: %s@."
          (List.length results) (List.length false_yes) (List.length missed)
          (if ok then "ok" else "FAIL");
        ok
  in
  Option.iter
    (fun path ->
      Cli.write_json path
        (Json.Obj
           [
             ("engine", Json.Str engine);
             ( "cells",
               Json.List (List.map (fun c -> Json.Obj (cell_json c)) results)
             );
             ("passed", Json.Bool ok);
           ]))
    cells_out;
  if ok then 0 else 1

(* The sampler ignores the preemption bound, so --bound is a usage error
   with pct; the granule ablation is an enumerative one, so --granule is
   one with dpor and pct. A one-program selection under enum walks each
   cell's whole schedule space (within the budget), not just up to the
   first witness, to list its complete outcome set. *)
let run_explore engine bound max_runs rows program mode granule cells_out =
  let bound' = Option.value bound ~default:2 in
  let cells = explore_cells ~bound:bound' ~rows ~program ~mode in
  match (engine, bound, granule, cells) with
  | `Pct, Some _, _, _ -> `Error (true, "the pct engine takes no --bound")
  | (`Pct | `Dpor), _, Some _, _ ->
      `Error (true, "only the enum engine takes --granule")
  | _, _, _, [] -> `Error (true, "the selection matches no matrix cell")
  | `Pct, None, None, _ ->
      `Ok
        (run_explore_cells ~engine:"pct" ~sampled:true ~cells ~cells_out
           ~runner:(fun ~bound:_ p m ->
             Stm_litmus.Matrix.run_cell_pct ?runs:max_runs p m)
           ())
  | `Enum, _, _, _ ->
      let exhaustive = program <> None in
      `Ok
        (run_explore_cells ~engine:"enum" ~sampled:false ?ablation:granule
           ~outcomes:exhaustive ~cells ~cells_out
           ~runner:(fun ~bound p m ->
             Stm_litmus.Matrix.run_cell ~preemption_bound:bound ?max_runs
               ?granule_override:granule ~exhaustive p m)
           ())
  | `Dpor, _, None, _ ->
      `Ok (run_explore_dpor ~bound:bound' ~max_runs ~cells ~cells_out)

let explore_cmd =
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Re-derive the litmus behaviour matrix with a schedule engine.")
    Term.(
      ret
        (const run_explore
        $ Arg.(
            required
            & pos 0
                (some (enum [ ("dpor", `Dpor); ("enum", `Enum); ("pct", `Pct) ]))
                None
            & info [] ~docv:"ENGINE"
                ~doc:
                  "$(b,dpor) (certification mode — every cell decided by \
                   both the race-reduced DPOR walk and the enumerative DFS \
                   at the same preemption bound; any verdict flip, or a DPOR \
                   walk less complete than a finished enumerative baseline, \
                   is a non-zero exit), $(b,enum) (enumerative DFS alone, \
                   held to the paper's expectations), or $(b,pct) \
                   (probabilistic sampling; only an anomaly on an \
                   expected-\"no\" cell is fatal).")
        $ Arg.(
            value
            & opt (some int) None
            & info [ "bound" ] ~docv:"N"
                ~doc:"Preemption bound for dpor and enum (default 2).")
        $ Arg.(
            value
            & opt (some int) None
            & info [ "runs" ] ~docv:"N"
                ~doc:
                  "Run budget per cell: max explored schedules for \
                   $(b,dpor)/$(b,enum) (default 40000 resp. 6000), sampling \
                   quota for $(b,pct) (default 2000).")
        $ Arg.(
            value
            & opt (enum [ ("all", `All); ("fig6", `Fig6) ]) `All
            & info [ "rows" ] ~docv:"ROWS"
                ~doc:
                  "Cell set: $(b,all) (every matrix cell — Figure 6, extras, \
                   privatization, SI, mvcc and timestamp columns) or \
                   $(b,fig6) (the 45 Figure 6 cells, the CI smoke set).")
        $ Arg.(
            value
            & opt
                (some
                   (enum
                      (List.map
                         (fun p ->
                           let n = p.Stm_litmus.Programs.name in
                           (n, n))
                         Stm_litmus.Programs.all)))
                None
            & info [ "program" ] ~docv:"NAME"
                ~doc:
                  "Only the cells of this litmus program's row. Under \
                   $(b,enum) each cell's full outcome set is listed too, \
                   with the number of schedules behind each outcome.")
        $ Arg.(
            value
            & opt (some (enum (List.map (fun n -> (n, n)) explore_modes))) None
            & info [ "mode" ] ~docv:"MODE"
                ~doc:"Only the cells of this execution mode's column.")
        $ Arg.(
            value
            & opt (some int) None
            & info [ "granule" ] ~docv:"N"
                ~doc:
                  "$(b,enum) only: run every cell at $(docv) fields per \
                   versioning granule instead of the program's own \
                   (granularity ablation). The verdicts are printed but not \
                   held to the paper's expectations.")
        $ Arg.(
            value
            & opt (some string) None
            & info [ "cells-out" ] ~docv:"FILE"
                ~doc:
                  "Write the per-cell results (verdicts, run counts, \
                   completeness, races) as JSON to $(docv).")))

(* ------------------------------------------------------------------ *)
(* List                                                                *)
(* ------------------------------------------------------------------ *)

let run_list () =
  Fmt.pr "figures (one subcommand each; all runs them in order):@.";
  List.iter (fun (f, _, _, _) -> Fmt.pr "  %s@." f) figures;
  Fmt.pr "@.beyond the figures: extras, ablations@.";
  Fmt.pr "@.workloads (Jt programs behind the figures):@.";
  List.iter
    (fun fam ->
      Fmt.pr "  %-8s %s@." fam.Stm_workloads.Catalog.fam_name
        fam.Stm_workloads.Catalog.fam_descr;
      List.iter
        (fun (w : Stm_workloads.Workload.t) ->
          Fmt.pr "    %-12s %s@." w.Stm_workloads.Workload.name
            w.Stm_workloads.Workload.descr)
        fam.Stm_workloads.Catalog.members)
    Stm_workloads.Catalog.families;
  Fmt.pr "@.store profiles (store PROFILE, or store sweep):@.";
  List.iter
    (fun (p : Stm_store.Profile.t) ->
      Fmt.pr "  %-12s %-10s %s@." p.Stm_store.Profile.pname
        (match p.Stm_store.Profile.aliases with
        | [] -> ""
        | a -> "(" ^ String.concat ", " a ^ ")")
        p.Stm_store.Profile.pdescr)
    Stm_store.Profile.all;
  Fmt.pr "@.stress scenarios (stress SCENARIO):@.";
  List.iter
    (fun s -> Fmt.pr "  %s@." (Stm_harness.Stress.scenario_name s))
    Stm_harness.Stress.all_scenarios;
  Fmt.pr "@.backends (stress and perf --backend; perf takes all but mvcc-si):@.";
  List.iter (fun (b, _) -> Fmt.pr "  %s@." b) backends;
  Fmt.pr "@.fuzz campaigns (fuzz):@.";
  List.iter
    (fun c -> Fmt.pr "  %s@." (Stm_check.Fuzz.campaign_name c))
    Stm_check.Fuzz.default_plan;
  Fmt.pr
    "@.validation modes (fuzz and differential --validation; selects the \
     fuzz plan and the differential grid):@.";
  List.iter
    (fun (v, descr) ->
      Fmt.pr "  %-12s %s@." (Stm_core.Config.validation_to_string v) descr)
    [
      ( Stm_core.Config.Incremental,
        "per-checkpoint read-set walk (the default)" );
      ( Stm_core.Config.Timestamp,
        "global commit clock: O(1) revalidation, timestamp extension, \
         read-only fast-path commits" );
    ];
  Fmt.pr "@.timestamp fuzz campaigns (fuzz --validation timestamp):@.";
  List.iter
    (fun c -> Fmt.pr "  %s@." (Stm_check.Fuzz.campaign_name c))
    Stm_check.Fuzz.timestamp_plan;
  Fmt.pr "@.exploration engines (explore ENGINE; re-derive the litmus matrix):@.";
  List.iter
    (fun (e, descr) -> Fmt.pr "  %-6s %s@." e descr)
    [
      ( "dpor",
        "certification: race-reduced DPOR walk cross-checked against the \
         enumerative DFS at the same preemption bound; verdict flips and \
         incomplete \"no\" cells are fatal" );
      ("enum", "enumerative preemption-bounded DFS, held to the paper");
      ( "pct",
        "probabilistic sampling; conclusive only for unexpected anomalies" );
    ];
  Fmt.pr "@.perf benches (perf):@.";
  List.iter (fun n -> Fmt.pr "  %s@." n) Stm_perf.Perf.bench_names;
  0

let list_cmd =
  Cmd.v
    (Cmd.info "list"
       ~doc:
         "List everything this binary can run — figures, workloads, store \
          profiles, stress scenarios, backends, fuzz campaigns, exploration \
          engines and perf benches.")
    Term.(const run_list $ const ())

let cmd =
  Cmd.group
    (Cmd.info "stm_bench"
       ~doc:
         "regenerate the PLDI 2007 evaluation figures, run contention \
          stress scenarios and store workloads, and fuzz the STM against a \
          serializability oracle")
    (figure_cmds
    @ [
        extras_cmd;
        ablations_cmd;
        stress_cmd;
        store_cmd;
        fuzz_cmd;
        differential_cmd;
        explore_cmd;
        perf_cmd;
        list_cmd;
      ])

let () = exit (Cmd.eval' cmd)
