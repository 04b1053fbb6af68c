(* CLI: offline conflict diagnosis over a recorded JSONL trace.

   Replays a trace written by `stm_run --trace-out t.jsonl` or
   `stm_bench stress ... --diag-out t.jsonl` through the same
   heatmap / causality / flight-recorder pipeline that runs live, and
   renders the result as text, JSON, or a Perfetto-annotated Chrome
   trace.

   Examples:
     stm_diag trace.jsonl
     stm_diag trace.jsonl --json --out report.json
     stm_diag trace.jsonl --perfetto annotated.json
     stm_diag trace.jsonl --streak 4 --k 5 *)

open Cmdliner

let with_out path f =
  match path with
  | None -> f Fmt.stdout
  | Some p -> (
      try
        Out_channel.with_open_text p (fun oc ->
            let ppf = Format.formatter_of_out_channel oc in
            f ppf;
            Format.pp_print_flush ppf ())
      with Sys_error m ->
        Fmt.epr "cannot write %s: %s@." p m;
        exit 2)

let main file json out perfetto k threshold streak capacity quiet =
  let ingested =
    try Stm_diag.Ingest.of_file file
    with Sys_error m ->
      Fmt.epr "%s@." m;
      exit 2
  in
  if ingested.Stm_diag.Ingest.parsed = 0 then begin
    Fmt.epr "%s: no parsable trace events (%d lines skipped)@." file
      ingested.Stm_diag.Ingest.skipped;
    exit 2
  end;
  if (not quiet) && ingested.Stm_diag.Ingest.skipped > 0 then
    Fmt.epr "%s: skipped %d unparsable lines (%d events ingested)@." file
      ingested.Stm_diag.Ingest.skipped ingested.Stm_diag.Ingest.parsed;
  let d =
    Stm_diag.Diag.create ~flight_capacity:capacity ~streak_threshold:streak
      ~resolve:ingested.Stm_diag.Ingest.resolve ()
  in
  Stm_diag.Diag.feed_all d ingested.Stm_diag.Ingest.entries;
  (match perfetto with
  | Some p ->
      with_out (Some p) (fun ppf ->
          Fmt.pf ppf "%s@."
            (Stm_obs.Json.to_string
               (Stm_diag.Diag.perfetto ~k d ingested.Stm_diag.Ingest.entries)));
      if not quiet then Fmt.epr "perfetto trace written to %s@." p
  | None -> ());
  with_out out (fun ppf ->
      if json then
        Fmt.pf ppf "%s@."
          (Stm_obs.Json.to_string (Stm_diag.Diag.to_json ~k ~threshold d))
      else Stm_diag.Diag.report ~k ~threshold ppf d);
  0

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"TRACE.jsonl"
        ~doc:
          "JSONL trace to analyze (written by $(b,stm_run --trace-out) or $(b,stm_bench stress ... --diag-out)). Traces recorded before the abort-attribution fields existed degrade to unattributed aborts.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the report as one stm-diag/1 JSON document instead of text.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the report to $(docv) instead of stdout.")

let perfetto_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "perfetto" ] ~docv:"FILE"
        ~doc:
          "Additionally write the trace as Chrome trace_event JSON with diagnosis annotations (per-granule heat counter tracks, abort-edge instants naming the aggressor); open in Perfetto / chrome://tracing.")

let k_arg =
  Arg.(
    value & opt int 10
    & info [ "k" ] ~docv:"N" ~doc:"Hottest granules to report (default 10).")

let threshold_arg =
  Arg.(
    value & opt int 50
    & info [ "threshold" ] ~docv:"N"
        ~doc:
          "Consecutive-abort streak that counts as starvation in the fairness section (default 50, the stress harness's verdict threshold).")

let streak_arg =
  Arg.(
    value & opt int 8
    & info [ "streak" ] ~docv:"N"
        ~doc:
          "Consecutive-abort streak that freezes a flight-recorder incident (default 8).")

let capacity_arg =
  Arg.(
    value & opt int 512
    & info [ "flight-capacity" ] ~docv:"N"
        ~doc:"Flight-recorder window size in events (default 512).")

let quiet_arg =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress progress notes on stderr.")

let cmd =
  let doc = "diagnose contention in a recorded STM trace" in
  Cmd.v (Cmd.info "stm_diag" ~doc)
    Term.(
      const main $ file_arg $ json_arg $ out_arg $ perfetto_arg $ k_arg
      $ threshold_arg $ streak_arg $ capacity_arg $ quiet_arg)

let () = exit (Cmd.eval' cmd)
