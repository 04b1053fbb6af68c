(** Offline trace ingestion: JSONL (as written by
    {!Stm_obs.Export.write_jsonl}) back into {!Stm_obs.Recorder.entry}
    values, so the analyzer replays a checked-in trace through the same
    pipeline that runs live.

    Site labels that were resolved to source strings at export time are
    re-interned into synthetic ids (from a range no real site id uses)
    and surfaced through [resolve]. Malformed lines and unknown event
    kinds are counted and skipped, never fatal. *)

type result = {
  entries : Stm_obs.Recorder.entry list;  (** in file order *)
  resolve : int -> string option;
      (** maps interned synthetic site ids back to their labels *)
  parsed : int;
  skipped : int;
}

val of_file : string -> result
(** Raises [Sys_error] if the file cannot be opened. *)

val of_string : string -> result
(** Newline-separated JSONL in memory (tests). *)
