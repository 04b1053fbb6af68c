(* CLI: compile and execute a Jt source file under a chosen STM
   configuration and optimization level.

   Examples:
     stm_run examples/jt/counter.jt
     stm_run examples/jt/counter.jt --config strong-eager --opt O2 --nait
     stm_run examples/jt/philosophers.jt -P threads=5 -P rounds=30
     stm_run prog.jt --detect-races        # barriers raise on data races *)

open Cmdliner

let config_of_string detect_races s =
  let base =
    match s with
    | "weak-eager" -> Ok Stm_core.Config.eager_weak
    | "weak-lazy" -> Ok Stm_core.Config.lazy_weak
    | "strong-eager" -> Ok Stm_core.Config.eager_strong
    | "strong-lazy" -> Ok Stm_core.Config.lazy_strong
    | "strong-eager-dea" -> Ok Stm_core.Config.(with_dea eager_strong)
    | "strong-lazy-dea" -> Ok Stm_core.Config.(with_dea lazy_strong)
    | "quiesce-eager" -> Ok Stm_core.Config.(with_quiescence eager_weak)
    | "quiesce-lazy" -> Ok Stm_core.Config.(with_quiescence lazy_weak)
    | "weak-mvcc" -> Ok Stm_core.Config.mvcc_weak
    | "strong-mvcc" -> Ok Stm_core.Config.mvcc_strong
    | "mvcc-snapshot" ->
        Ok Stm_core.Config.(with_snapshot_isolation mvcc_weak)
    | other -> Error ("unknown config " ^ other)
  in
  Result.map
    (fun c ->
      if detect_races then
        { c with Stm_core.Config.conflict = Stm_core.Config.Raise_error }
      else c)
    base

let parse_param s =
  match String.index_opt s '=' with
  | Some i ->
      let k = String.sub s 0 i in
      let v = String.sub s (i + 1) (String.length s - i - 1) in
      (k, int_of_string v)
  | None -> failwith ("bad -P " ^ s ^ " (expected name=value)")

let explore_program prog params cfg bound pct_runs =
  let make () =
    let main, observe = Stm_ir.Interp.explorer_instance ~params prog in
    { Stm_litmus.Explorer.main; observe }
  in
  let e =
    if pct_runs > 0 then
      Stm_litmus.Explorer.explore_pct ~runs:pct_runs ~cfg ~make ()
    else
      Stm_litmus.Explorer.explore ~preemption_bound:bound ~max_runs:20_000
        ~cfg ~make ()
  in
  Fmt.pr "schedules explored : %d%s@." e.Stm_litmus.Explorer.runs
    (if e.Stm_litmus.Explorer.truncated then " (budget exhausted)" else "");
  if e.Stm_litmus.Explorer.livelocks > 0 || e.Stm_litmus.Explorer.deadlocks > 0
  then
    Fmt.pr "livelocks/deadlocks: %d/%d@." e.Stm_litmus.Explorer.livelocks
      e.Stm_litmus.Explorer.deadlocks;
  Fmt.pr "distinct outcomes  : %d@." (List.length e.Stm_litmus.Explorer.outcomes);
  List.iter
    (fun (o, n) -> Fmt.pr "  %-50s x%d@." (if o = "" then "(no output)" else o) n)
    e.Stm_litmus.Explorer.outcomes;
  if List.length e.Stm_litmus.Explorer.outcomes > 1 then begin
    Fmt.pr "@.the printed outcome is SCHEDULE-DEPENDENT@.";
    1
  end
  else 0

(* --repro: replay a fuzzer counterexample deterministically and check
   the verdict still matches the recorded one. *)
let run_repro path =
  match Stm_check.Repro.load path with
  | Error e ->
      Fmt.epr "%s: %s@." path e;
      2
  | Ok r ->
      Fmt.pr "combo    : %s@." (Stm_check.Combo.name r.Stm_check.Repro.combo);
      Fmt.pr "profile  : %s@." r.Stm_check.Repro.profile;
      (match r.Stm_check.Repro.driver with
      | Stm_check.Repro.Random_sched seed ->
          Fmt.pr "driver   : random scheduler, seed %d@." seed
      | Stm_check.Repro.Explore { preemption_bound; max_runs } ->
          Fmt.pr "driver   : explorer DFS, preemption bound %d, max %d runs@."
            preemption_bound max_runs
      | Stm_check.Repro.Dpor { preemption_bound; max_runs } ->
          Fmt.pr "driver   : DPOR explorer, preemption bound %d, max %d runs@."
            preemption_bound max_runs);
      Fmt.pr "program  : %s" (Stm_check.Prog.to_string r.Stm_check.Repro.prog);
      let v = Stm_check.Repro.replay r in
      Fmt.pr "verdict  : %a@." Stm_check.History.pp_verdict v;
      if Stm_check.Repro.matches r v then begin
        Fmt.pr "replay matches the recorded verdict@.";
        0
      end
      else begin
        Fmt.pr "replay DIVERGED from the recorded verdict@.recorded : %s@."
          (Stm_obs.Json.to_string r.Stm_check.Repro.verdict);
        1
      end

let try_write path f =
  try f ()
  with Sys_error m ->
    Fmt.epr "cannot write %s: %s@." path m;
    exit 2

(* .jsonl extension selects the flat line-per-event format; anything
   else gets the Chrome trace_event document for Perfetto. *)
let write_trace_file path ~resolve recorder =
  let entries = Stm_obs.Recorder.entries recorder in
  try_write path (fun () ->
      Out_channel.with_open_text path (fun oc ->
          if Filename.check_suffix path ".jsonl" then
            Stm_obs.Export.write_jsonl ~resolve oc entries
          else Stm_obs.Export.write_chrome ~resolve oc entries));
  if Stm_obs.Recorder.dropped recorder > 0 then
    Fmt.epr "trace: ring full, dropped %d oldest events@."
      (Stm_obs.Recorder.dropped recorder)

let main repro file config opt nait params verbose detect_races granule cm seed
    validation trace profile trace_out profile_barriers metrics_out diag explore
    pct =
  match repro with
  | Some path -> run_repro path
  | None ->
  let file =
    match file with
    | Some f -> f
    | None ->
        Fmt.epr "a FILE.jt argument or --repro is required@.";
        exit 2
  in
  match config_of_string detect_races config with
  | Error m ->
      Fmt.epr "%s@." m;
      2
  | Ok cfg -> (
      let cfg = { cfg with Stm_core.Config.granule } in
      let cfg =
        match cm with
        | Some p -> Stm_core.Config.with_cm p cfg
        | None -> cfg
      in
      let cfg =
        match seed with
        | Some s -> { cfg with Stm_core.Config.cm_seed = s }
        | None -> cfg
      in
      let cfg =
        match validation with
        | Some v -> Stm_core.Config.with_validation v cfg
        | None -> cfg
      in
      let policy = Option.map (fun s -> Stm_runtime.Sched.Random s) seed in
      let src = In_channel.with_open_text file In_channel.input_all in
      match Stm_jtlang.Jt.compile ~name:file src with
      | exception Stm_jtlang.Jt.Error (msg, line) ->
          Fmt.epr "%s:%d: %s@." file line msg;
          2
      | prog ->
          let level =
            match opt with
            | "O0" -> Stm_jit.Opt.O0
            | "O1" -> Stm_jit.Opt.O1
            | _ -> Stm_jit.Opt.O2
          in
          let report = Stm_jit.Opt.optimize level prog in
          let removed =
            if nait then begin
              let pta = Stm_analysis.Pta.analyze prog in
              let n = Stm_analysis.Nait.apply prog pta in
              ignore (Stm_analysis.Thread_local.apply prog pta : int);
              n
            end
            else 0
          in
          let params = List.map parse_param params in
          if explore || pct > 0 then
            explore_program prog params cfg 2 pct
          else begin
          let resolve site =
            Option.map
              (fun (f, l) -> Printf.sprintf "%s:%d" f l)
              (Stm_ir.Ir.site_loc prog site)
          in
          let recorder =
            if trace_out <> None then Some (Stm_obs.Recorder.create ())
            else None
          in
          let profiler =
            if profile_barriers then Some (Stm_obs.Profiler.create ())
            else None
          in
          let metrics =
            if metrics_out <> None then Some (Stm_obs.Metrics.create ())
            else None
          in
          let diagnoser =
            if diag then Some (Stm_diag.Diag.create ~resolve ()) else None
          in
          let print_event ev =
            Fmt.epr "[%8d] %a@."
              (if Stm_runtime.Sched.running () then Stm_runtime.Sched.time ()
               else 0)
              Stm_core.Trace.pp_event ev
          in
          (* each consumer at its own level: the printer shows only the
             lifecycle events (per-access Debug events would flood
             stderr) and metrics count the same events whatever else is
             on; the recorder, profiler and diagnoser take everything *)
          let opt level f = function Some c -> [ (level, f c) ] | None -> [] in
          let sinks =
            List.concat
              Stm_core.Trace.
                [
                  (if trace then [ (Info, print_event) ] else []);
                  opt Debug Stm_obs.Recorder.record recorder;
                  opt Debug Stm_obs.Profiler.handle profiler;
                  opt Info Stm_obs.Metrics.handle metrics;
                  opt Debug Stm_diag.Diag.consumer diagnoser;
                ]
          in
          let out =
            Stm_core.Trace.with_sinks sinks (fun () ->
                Stm_ir.Interp.run ?policy ~cfg ~params ~profile prog)
          in
          Option.iter
            (fun r ->
              write_trace_file (Option.get trace_out) ~resolve r)
            recorder;
          Option.iter
            (fun p ->
              Fmt.epr "per-site barrier profile:@.%a"
                (fun ppf -> Stm_obs.Profiler.pp ~resolve ppf)
                p)
            profiler;
          Option.iter
            (fun d ->
              Fmt.epr "%a"
                (fun ppf -> Stm_diag.Diag.report ppf)
                d)
            diagnoser;
          Option.iter
            (fun m ->
              let path = Option.get metrics_out in
              try_write path (fun () ->
                  Out_channel.with_open_text path (fun oc ->
                      output_string oc
                        (Stm_obs.Json.to_string
                           (Stm_obs.Metrics.to_json
                              ~stats:out.Stm_ir.Interp.stats m));
                      output_char oc '\n')))
            metrics;
          List.iter print_endline out.Stm_ir.Interp.prints;
          let r = out.Stm_ir.Interp.result in
          (match r.Stm_runtime.Sched.exns with
          | [] -> ()
          | (tid, e) :: _ ->
              Fmt.epr "thread %d died: %s@." tid (Printexc.to_string e));
          if verbose then begin
            Fmt.epr "status    : %s@."
              (match r.Stm_runtime.Sched.status with
              | Stm_runtime.Sched.Completed -> "completed"
              | Stm_runtime.Sched.Deadlock _ -> "deadlock"
              | Stm_runtime.Sched.Fuel_exhausted -> "out of fuel");
            Fmt.epr "config    : %s, %s%s@." (Stm_core.Config.describe cfg)
              (Stm_jit.Opt.level_name level)
              (if nait then Fmt.str " + NAIT (%d barriers removed)" removed
               else "");
            Fmt.epr "jit       : %d immutable, %d escape, %d aggregated@."
              report.Stm_jit.Opt.immutable report.Stm_jit.Opt.escape
              report.Stm_jit.Opt.aggregated;
            Fmt.epr "cycles    : %d@." r.Stm_runtime.Sched.makespan;
            Fmt.epr "instrs    : %d@." out.Stm_ir.Interp.instrs;
            Fmt.epr "stats     : %a@." Stm_core.Stats.pp out.Stm_ir.Interp.stats
          end;
          if profile then begin
            (* map site ids back to methods for the report *)
            let site_meth = Hashtbl.create 64 in
            Stm_ir.Ir.iter_methods prog (fun m ->
                Stm_ir.Ir.iter_access_notes m (fun ins note ->
                    Hashtbl.replace site_meth note.Stm_ir.Ir.site (m, ins)));
            Fmt.epr "hottest barrier sites:@.";
            List.iteri
              (fun i (site, hits) ->
                if i < 15 then
                  match Hashtbl.find_opt site_meth site with
                  | Some (m, ins) ->
                      Fmt.epr "  %8d  %a  %s::%s  %a@." hits
                        (Stm_ir.Ir.pp_site prog) site m.Stm_ir.Ir.mcls
                        m.Stm_ir.Ir.mname Stm_ir.Ir.pp_instr ins
                  | None ->
                      Fmt.epr "  %8d  %a@." hits (Stm_ir.Ir.pp_site prog) site)
              out.Stm_ir.Interp.site_profile
          end;
          (match
             ( r.Stm_runtime.Sched.status,
               r.Stm_runtime.Sched.exns )
           with
          | Stm_runtime.Sched.Completed, [] -> 0
          | _ -> 1)
          end)

let file_arg =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"FILE.jt" ~doc:"Jt source file. Optional when $(b,--repro) is given.")

let repro_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "repro" ] ~docv:"FILE"
        ~doc:
          "Replay a fuzzer counterexample (JSON written by $(b,stm_bench --fuzz)) instead of running a Jt program: re-executes the recorded program under the recorded configuration and schedule driver, prints the verdict, and exits 0 iff it matches the recorded one.")

let config_arg =
  Arg.(
    value & opt string "strong-eager-dea"
    & info [ "c"; "config" ] ~docv:"CFG"
        ~doc:
          "STM configuration: weak-eager, weak-lazy, strong-eager, strong-lazy, strong-eager-dea, strong-lazy-dea, quiesce-eager, quiesce-lazy, weak-mvcc, strong-mvcc, mvcc-snapshot (multi-version at snapshot isolation).")

let opt_arg =
  Arg.(
    value & opt string "O2"
    & info [ "O"; "opt" ] ~docv:"LEVEL" ~doc:"JIT level: O0, O1, O2.")

let nait_arg =
  Arg.(value & flag & info [ "nait" ] ~doc:"Run the whole-program NAIT + TL barrier removal.")

let params_arg =
  Arg.(
    value & opt_all string []
    & info [ "P"; "param" ] ~docv:"NAME=INT"
        ~doc:"Value for the program's param(\"name\") builtin; repeatable.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print execution statistics.")

let races_arg =
  Arg.(
    value & flag
    & info [ "detect-races" ]
        ~doc:
          "Isolation barriers raise on transactional/non-transactional conflicts instead of backing off (the paper's debugging mode).")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:"Count executions of each access site's non-transactional path and report the hottest sites.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ] ~doc:"Print STM events (txn lifecycle, conflicts, publications) to stderr.")

let cm_conv =
  let parse s =
    match Stm_cm.Policy.of_string s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
            (Fmt.str "unknown contention-management policy %s (expected %s)" s
               (String.concat ", "
                  (List.map Stm_cm.Policy.to_string Stm_cm.Policy.all))))
  in
  Arg.conv (parse, Stm_cm.Policy.pp)

let cm_arg =
  Arg.(
    value
    & opt (some cm_conv) None
    & info [ "cm" ] ~docv:"POLICY"
        ~doc:
          "Contention-management policy: suicide (default), wound-wait, exp-backoff, karma, or timestamp.")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Run under the seeded random scheduler instead of the deterministic min-clock one (also seeds the contention manager's randomized backoff). Runs are reproducible per seed.")

let granule_arg =
  Arg.(
    value & opt int 1
    & info [ "granule" ] ~docv:"N" ~doc:"Versioning granularity (fields per granule).")

let validation_conv =
  let parse s =
    match Stm_core.Config.validation_of_string s with
    | Some v -> Ok v
    | None ->
        Error
          (`Msg
            (Fmt.str "unknown validation scheme %s (expected incremental or \
                      timestamp)" s))
  in
  Arg.conv
    ( parse,
      fun ppf v -> Fmt.string ppf (Stm_core.Config.validation_to_string v) )

let validation_arg =
  Arg.(
    value
    & opt (some validation_conv) None
    & info [ "validation" ] ~docv:"SCHEME"
        ~doc:
          "Read-set validation scheme for the single-version configurations: \
           $(b,incremental) (default) or $(b,timestamp) (global commit \
           clock: O(1) revalidation, timestamp extension, read-only \
           fast-path commits). The mvcc configurations ignore it.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Record all STM events and write them to $(docv): Chrome trace_event JSON (open in Perfetto / chrome://tracing), or one JSON object per line if $(docv) ends in .jsonl.")

let profile_barriers_arg =
  Arg.(
    value & flag
    & info [ "profile-barriers" ]
        ~doc:
          "Accumulate per-site barrier counters (fired / private / elided / conflicts, with file:line site names) and print the table to stderr.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write run metrics (transaction counters, abort causes, commit/abort latency histograms, global stats) as JSON to $(docv).")

let diag_arg =
  Arg.(
    value & flag
    & info [ "diag" ]
        ~doc:
          "Run the conflict-diagnosis pipeline live and print its report (contention heatmap with source sites, abort-causality graph with kill chains, starvation verdicts, flight-recorder post-mortems) to stderr after the run.")

let explore_arg =
  Arg.(
    value & flag
    & info [ "explore" ]
        ~doc:
          "Systematically explore schedules (preemption-bounded DFS) instead of one run; reports every distinct printed outcome. Non-zero exit if the outcome is schedule-dependent.")

let pct_arg =
  Arg.(
    value & opt int 0
    & info [ "pct" ] ~docv:"RUNS"
        ~doc:"Explore with probabilistic concurrency testing for RUNS randomized runs.")

let cmd =
  let doc = "run a Jt program on the strong-atomicity STM" in
  Cmd.v (Cmd.info "stm_run" ~doc)
    Term.(
      const main $ repro_arg $ file_arg $ config_arg $ opt_arg $ nait_arg $ params_arg
      $ verbose_arg $ races_arg $ granule_arg $ cm_arg $ seed_arg
      $ validation_arg $ trace_arg
      $ profile_arg $ trace_out_arg $ profile_barriers_arg $ metrics_out_arg
      $ diag_arg $ explore_arg $ pct_arg)

let () = exit (Cmd.eval' cmd)
