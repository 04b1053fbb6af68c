(* CLI: explore the weak-atomicity anomalies of Figures 1-5 and decide
   the Figure 6 matrix by systematic schedule exploration.

   Examples:
     stm_anomalies                          # the whole Figure 6 matrix
     stm_anomalies -p sdr -m weak-eager     # one cell, with outcome sets
     stm_anomalies --privatization          # Figure 1 incl. quiescence
     stm_anomalies -p glu --granule 1       # granularity ablation *)

open Cmdliner
open Stm_litmus

let run_one program mode bound max_runs granule =
  let cfg =
    Modes.config
      ~granule:(Option.value ~default:program.Programs.needs_granule granule)
      mode
  in
  let e =
    Explorer.explore ~preemption_bound:bound ~max_runs ~cfg
      ~make:(fun () -> program.Programs.build (Modes.harness mode cfg))
      ()
  in
  Fmt.pr "program     : %s (Figure %s)@." program.Programs.name
    program.Programs.figure;
  Fmt.pr "anomaly     : %s@." program.Programs.anomaly;
  Fmt.pr "mode        : %s@." (Modes.name mode);
  Fmt.pr "schedules   : %d (truncated: %b, livelocks: %d, deadlocks: %d)@."
    e.Explorer.runs e.Explorer.truncated e.Explorer.livelocks
    e.Explorer.deadlocks;
  Fmt.pr "outcomes    :@.";
  List.iter
    (fun (o, n) ->
      Fmt.pr "  %-30s x%-6d %s@." o n
        (if program.Programs.is_anomalous o then "<- ANOMALY" else ""))
    e.Explorer.outcomes;
  Fmt.pr "anomaly observed: %b@."
    (Explorer.observed e program.Programs.is_anomalous)

let main program mode privatization bound max_runs granule =
  match (program, mode) with
  | Some p, Some m -> run_one p m bound max_runs granule
  | Some p, None ->
      List.iter (fun m -> run_one p m bound max_runs granule) Modes.all_fig6
  | None, _ ->
      if privatization then begin
        let cells =
          Matrix.privatization_row ~preemption_bound:bound ~max_runs ()
        in
        Fmt.pr "%a" Matrix.pp_table cells;
        Fmt.pr "matches expectations: %b@." (Matrix.all_match cells)
      end
      else begin
        let cells = Matrix.fig6 ~preemption_bound:bound ~max_runs () in
        Fmt.pr "%a" Matrix.pp_table cells;
        Fmt.pr "matches the paper's Figure 6: %b@." (Matrix.all_match cells)
      end

let program_arg =
  Arg.(
    value
    & opt
        (some (enum (List.map (fun p -> (p.Programs.name, p)) Programs.all)))
        None
    & info [ "p"; "program" ] ~docv:"NAME"
        ~doc:
          "Litmus program to explore (nr, gir, ilu, slu, glu, mi-ww, idr, \
           sdr, mi-rw, privatization, ...).")

let mode_arg =
  Arg.(
    value
    & opt
        (some
           (enum
              (List.map (fun m -> (Modes.name m, m)) Matrix.privatization_modes)))
        None
    & info [ "m"; "mode" ] ~docv:"MODE"
        ~doc:
          "Execution mode: weak-eager, weak-lazy, locks, strong-eager, \
           strong-lazy, quiesce-eager, quiesce-lazy.")

let privatization_arg =
  Arg.(
    value & flag
    & info [ "privatization" ]
        ~doc:"Run the Figure 1 privatization row incl. the quiescence modes.")

let bound_arg =
  Arg.(
    value & opt int 2
    & info [ "bound" ] ~docv:"N" ~doc:"Preemption bound for the explorer.")

let max_runs_arg =
  Arg.(
    value & opt int 6000
    & info [ "max-runs" ] ~docv:"N" ~doc:"Schedule budget per cell.")

let granule_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "granule" ] ~docv:"N"
        ~doc:"Override the versioning granularity (fields per granule).")

let cmd =
  let doc = "systematic exploration of STM weak-atomicity anomalies (PLDI 2007 Figures 1-6)" in
  Cmd.v
    (Cmd.info "stm_anomalies" ~doc)
    Term.(
      const main $ program_arg $ mode_arg $ privatization_arg $ bound_arg
      $ max_runs_arg $ granule_arg)

let () = exit (Cmd.eval cmd)
