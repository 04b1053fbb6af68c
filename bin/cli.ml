(* Flags and output plumbing shared by stm_run and stm_bench: each flag
   is defined once here, with one spelling, one converter and one
   default. *)

open Cmdliner

let with_out path f =
  try Out_channel.with_open_text path f
  with Sys_error msg ->
    Fmt.epr "cannot write %s: %s@." path msg;
    exit 2

let write_json path json =
  with_out path (fun oc ->
      output_string oc (Stm_obs.Json.to_string json);
      output_char oc '\n')

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

let cm =
  Arg.(
    value
    & opt cm_conv Stm_cm.Policy.Suicide
    & info [ "cm" ] ~docv:"POLICY"
        ~doc:
          "Contention-management policy: $(b,suicide), $(b,wound-wait), \
           $(b,exp-backoff), $(b,karma) or $(b,timestamp).")

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

let validation ~doc =
  Arg.(
    value
    & opt validation_conv Stm_core.Config.Incremental
    & info [ "validation" ] ~docv:"SCHEME" ~doc)

let seed ~doc =
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc)

let fuel ~doc =
  Arg.(value & opt (some int) None & info [ "fuel" ] ~docv:"STEPS" ~doc)

let metrics_out ~doc =
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

(* --diag-out: the live conflict-diagnosis pipeline, and a recorder whose
   raw entries make the file a JSONL trace that `stm_diag` replays to the
   same conclusions. [f] runs with both subscribed; [after] prints what
   the caller adds to the report. *)
let with_diag ?(after = fun _ _ -> ()) diag_out f =
  match diag_out with
  | None -> f None
  | Some path ->
      let d = Stm_diag.Diag.create () and rec_ = Stm_obs.Recorder.create () in
      let x =
        Stm_core.Trace.with_sinks
          Stm_core.Trace.
            [
              (Debug, Stm_obs.Recorder.record rec_);
              (Debug, Stm_diag.Diag.consumer d);
            ]
          (fun () -> f (Some d))
      in
      with_out path (fun oc ->
          Stm_obs.Export.write_jsonl oc (Stm_obs.Recorder.entries rec_));
      if Stm_obs.Recorder.dropped rec_ > 0 then
        Fmt.epr "diag trace: ring full, dropped %d oldest events@."
          (Stm_obs.Recorder.dropped rec_);
      Fmt.pr "@.=== conflict diagnosis ===@.%a"
        (fun ppf -> Stm_diag.Diag.report ppf)
        d;
      after d x;
      Fmt.pr "diag trace written to %s (replay with stm_diag)@." path;
      x

let diag_out ~doc =
  Arg.(value & opt (some string) None & info [ "diag-out" ] ~docv:"FILE" ~doc)
