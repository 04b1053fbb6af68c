(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation and micro-benchmarks the harness units with Bechamel.

   Usage:
     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- figures   # figure tables only
     dune exec bench/main.exe -- micro     # bechamel micro-benchmarks only

   Absolute numbers are simulated cycles (and, for the micro section,
   host-wall-clock of one harness unit); the comparison against the paper
   is by shape, recorded in EXPERIMENTS.md. *)

open Bechamel
open Toolkit

let line () =
  print_endline (String.make 78 '-')

let section title =
  line ();
  Printf.printf "== %s\n" title;
  line ()

(* ------------------------------------------------------------------ *)
(* Figure tables                                                       *)
(* ------------------------------------------------------------------ *)

let figures () =
  section "Figure 6 - anomaly matrix (weak-atomicity behaviours, Figures 1-5 litmus)";
  let cells = Stm_harness.Figures.fig6 () in
  Fmt.pr "%a" Stm_harness.Figures.pp_fig6 cells;
  Fmt.pr "matches the paper's table: %b@."
    (Stm_litmus.Matrix.all_match cells);

  section "Figure 6 ablation - privatization (Figure 1) incl. quiescence (Section 3.4)";
  let priv = Stm_litmus.Matrix.privatization_row () in
  Fmt.pr "%a" Stm_litmus.Matrix.pp_table priv;
  Fmt.pr "matches expectations: %b@." (Stm_litmus.Matrix.all_match priv);

  section "Extra litmus rows - Section 2.1 write/read variant + txn-vs-txn dirty reads";
  let extras = Stm_litmus.Matrix.extras_rows () in
  Fmt.pr "%a" Stm_litmus.Matrix.pp_table extras;
  Fmt.pr "matches expectations: %b@." (Stm_litmus.Matrix.all_match extras);

  section "Figure 13 - static barrier removal: NAIT vs thread-local analysis";
  Fmt.pr "%a" Stm_analysis.Barrier_stats.pp_table (Stm_harness.Figures.fig13 ());

  section "Figure 15 - strong-atomicity overhead, read + write barriers (JVM98 kernels)";
  Fmt.pr "%a" Stm_harness.Figures.pp_overhead (Stm_harness.Figures.fig15 ());

  section "Figure 16 - overhead with read barriers only";
  Fmt.pr "%a" Stm_harness.Figures.pp_overhead (Stm_harness.Figures.fig16 ());

  section "Figure 17 - overhead with write barriers only";
  Fmt.pr "%a" Stm_harness.Figures.pp_overhead (Stm_harness.Figures.fig17 ());

  section "Figure 18 - Tsp execution time, 1..16 simulated processors";
  Fmt.pr "%a" Stm_harness.Figures.pp_scaling (Stm_harness.Figures.fig18 ());

  section "Figure 19 - OO7 execution time, 1..16 simulated processors";
  Fmt.pr "%a" Stm_harness.Figures.pp_scaling (Stm_harness.Figures.fig19 ());

  section "Figure 20 - JBB execution time, 1..16 simulated processors";
  Fmt.pr "%a" Stm_harness.Figures.pp_scaling (Stm_harness.Figures.fig20 ());

  section "Ablation - DEA read-barrier privacy check (Figure 10a, optional instructions)";
  Fmt.pr "%a" Stm_harness.Ablations.pp (Stm_harness.Ablations.dea_read_privacy ());

  section "Ablation - quiescence commit protocol cost (Section 3.4), OO7 @ 8 threads";
  Fmt.pr "%a" Stm_harness.Ablations.pp (Stm_harness.Ablations.quiescence_cost ());

  section "Ablation - Section 5.2 transactional open-for-read removal, Tsp @ 4 threads (weak)";
  Fmt.pr "%a" Stm_harness.Ablations.pp (Stm_harness.Ablations.txn_read_removal ());

  section "Ablation - versioning granularity (Section 2.4), JBB, 4 threads";
  Fmt.pr "%a" Stm_harness.Ablations.pp (Stm_harness.Ablations.versioning_granularity ());

  section "Ablation - contention management: suicide vs wound-wait";
  Fmt.pr "%a" Stm_harness.Ablations.pp (Stm_harness.Ablations.contention_management ())

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure unit      *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let fig6_cell () =
    (* one "yes" cell: SLU under eager-weak *)
    ignore
      (Stm_litmus.Matrix.run_cell ~max_runs:500
         Stm_litmus.Programs.speculative_lost_update
         (Stm_litmus.Modes.Weak Stm_core.Config.Eager))
  in
  let kernel name cfg opt =
    let w =
      Stm_workloads.Workload.scaled
        (List.find
           (fun (w : Stm_workloads.Workload.t) -> w.name = name)
           Stm_workloads.Jvm98.all)
        0.25
    in
    let prog = Stm_workloads.Workload.program w in
    ignore (Stm_jit.Opt.optimize opt prog);
    fun () ->
      ignore (Stm_ir.Interp.run ~cfg ~params:w.Stm_workloads.Workload.params prog)
  in
  let scaling w nt =
    let w = Stm_workloads.Workload.scaled w 0.25 in
    let prog = Stm_workloads.Workload.program w in
    fun () ->
      ignore
        (Stm_ir.Interp.run ~cfg:Stm_core.Config.eager_strong
           ~params:([ ("threads", nt); ("use_locks", 0) ] @ w.Stm_workloads.Workload.params)
           prog)
  in
  let analysis () =
    let prog = Stm_workloads.Workload.program Stm_workloads.Tsp.tsp in
    let pta = Stm_analysis.Pta.analyze prog in
    ignore (Stm_analysis.Nait.apply prog pta)
  in
  Test.make_grouped ~name:"figures"
    [
      Test.make ~name:"fig6/litmus-cell" (Staged.stage fig6_cell);
      Test.make ~name:"fig13/pta+nait(tsp)" (Staged.stage analysis);
      Test.make ~name:"fig15/compress-weak"
        (Staged.stage (kernel "compress" Stm_core.Config.eager_weak Stm_jit.Opt.O0));
      Test.make ~name:"fig15/compress-strong"
        (Staged.stage (kernel "compress" Stm_core.Config.eager_strong Stm_jit.Opt.O0));
      Test.make ~name:"fig15/compress-strong-O2"
        (Staged.stage (kernel "compress" Stm_core.Config.eager_strong Stm_jit.Opt.O2));
      Test.make ~name:"fig16/mtrt-reads-only"
        (Staged.stage
           (kernel "mtrt"
              { Stm_core.Config.eager_strong with strong_writes = false }
              Stm_jit.Opt.O0));
      Test.make ~name:"fig17/db-writes-only"
        (Staged.stage
           (kernel "db"
              { Stm_core.Config.eager_strong with strong_reads = false }
              Stm_jit.Opt.O0));
      Test.make ~name:"fig18/tsp-4t" (Staged.stage (scaling Stm_workloads.Tsp.tsp 4));
      Test.make ~name:"fig19/oo7-4t" (Staged.stage (scaling Stm_workloads.Oo7.oo7 4));
      Test.make ~name:"fig20/jbb-4t" (Staged.stage (scaling Stm_workloads.Jbb.jbb 4));
    ]

let micro () =
  section "Bechamel micro-benchmarks (host wall-clock per harness unit)";
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (bechamel_tests ()) in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some [ ns ] -> Printf.printf "%-28s %12.0f ns/run\n" name ns
      | _ -> Printf.printf "%-28s (no estimate)\n" name)
    (List.sort compare rows)

let () =
  (* `--metrics-out FILE` collects STM run metrics across every figure
     regenerated by this invocation and writes them as JSON. *)
  let metrics_out = ref None in
  let words = ref [] in
  let argv = Array.to_list Sys.argv in
  let rec parse = function
    | [] -> ()
    | "--metrics-out" :: path :: rest ->
        metrics_out := Some path;
        parse rest
    | "--metrics-out" :: [] ->
        prerr_endline "--metrics-out needs a FILE argument";
        exit 2
    | w :: rest ->
        words := w :: !words;
        parse rest
  in
  parse (List.tl argv);
  let metrics = Option.map (fun _ -> Stm_obs.Metrics.create ()) !metrics_out in
  let what = match List.rev !words with [] -> "all" | w :: _ -> w in
  Stm_core.Trace.with_sinks
    (Option.fold metrics ~none:[] ~some:(fun m ->
         [ (Stm_core.Trace.Info, Stm_obs.Metrics.handle m) ]))
    (fun () ->
      match what with
      | "figures" -> figures ()
      | "micro" -> micro ()
      | "all" ->
          figures ();
          micro ()
      | other ->
          Printf.eprintf "unknown argument %S (use: figures | micro | all)\n"
            other;
          exit 2);
  Option.iter
    (fun m ->
      let path = Option.get !metrics_out in
      (try
         Out_channel.with_open_text path (fun oc ->
             output_string oc
               (Stm_obs.Json.to_string (Stm_obs.Metrics.to_json m));
             output_char oc '\n')
       with Sys_error msg ->
         Printf.eprintf "cannot write %s: %s\n" path msg;
         exit 2);
      Printf.printf "metrics written to %s\n" path)
    metrics;
  line ();
  print_endline "done."
