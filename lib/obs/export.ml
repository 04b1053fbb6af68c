open Stm_core

(* Recorder entries -> JSONL and Chrome trace_event JSON. Both formats
   are written from the same [Recorder.entry] stream; the Chrome export
   additionally turns commit/abort events into duration slices spanning
   the transaction on the emitting thread's cost clock. *)

let no_resolve : int -> string option = fun _ -> None

let site_json resolve site =
  match resolve site with Some s -> Json.Str s | None -> Json.Int site

(* Event kind name + payload fields, shared by both formats. *)
let event_fields resolve (ev : Trace.event) =
  match ev with
  | Trace.Txn_begin { txid; tid } ->
      ("txn_begin", [ ("txid", Json.Int txid); ("tid", Json.Int tid) ])
  | Trace.Txn_commit { txid; tid; reads; writes; latency } ->
      ( "txn_commit",
        [
          ("txid", Json.Int txid);
          ("tid", Json.Int tid);
          ("reads", Json.Int reads);
          ("writes", Json.Int writes);
          ("latency", Json.Int latency);
        ] )
  | Trace.Txn_abort { txid; tid; wounded; cause; latency; by; by_tid; oid } ->
      ( "txn_abort",
        [
          ("txid", Json.Int txid);
          ("tid", Json.Int tid);
          ("wounded", Json.Bool wounded);
          ("cause", Json.Str (Trace.string_of_cause cause));
          ("latency", Json.Int latency);
          ("by", Json.Int by);
          ("by_tid", Json.Int by_tid);
          ("oid", Json.Int oid);
        ] )
  | Trace.Txn_wound { victim; by } ->
      ("txn_wound", [ ("victim", Json.Int victim); ("by", Json.Int by) ])
  | Trace.Conflict { tid; oid; cls; writer; site } ->
      ( "conflict",
        [
          ("tid", Json.Int tid);
          ("oid", Json.Int oid);
          ("class", Json.Str cls);
          ("writer", Json.Bool writer);
          ("site", site_json resolve site);
        ] )
  | Trace.Publish { oid; cls } ->
      ("publish", [ ("oid", Json.Int oid); ("class", Json.Str cls) ])
  | Trace.Quiesce_wait { txid } -> ("quiesce_wait", [ ("txid", Json.Int txid) ])
  | Trace.Barrier { tid; site; op; path } ->
      ( "barrier",
        [
          ("tid", Json.Int tid);
          ("site", site_json resolve site);
          ("op", Json.Str (Trace.string_of_op op));
          ("path", Json.Str (Trace.string_of_path path));
        ] )
  | Trace.Backoff { tid; attempt; delay } ->
      ( "backoff",
        [
          ("tid", Json.Int tid);
          ("attempt", Json.Int attempt);
          ("delay", Json.Int delay);
        ] )
  | Trace.Validation { txid; tid; ok } ->
      ( "validation",
        [
          ("txid", Json.Int txid);
          ("tid", Json.Int tid);
          ("ok", Json.Bool ok);
        ] )
  | Trace.Cm_decision { tid; txid; policy; decision; owner; delay } ->
      ( "cm_decision",
        [
          ("tid", Json.Int tid);
          ("txid", Json.Int txid);
          ("policy", Json.Str policy);
          ("decision", Json.Str decision);
          ("owner", Json.Int owner);
          ("delay", Json.Int delay);
        ] )
  | Trace.Access { tid; txid; oid; fld; value; write } ->
      ( "access",
        [
          ("tid", Json.Int tid);
          ("txid", Json.Int txid);
          ("oid", Json.Int oid);
          ("fld", Json.Int fld);
          ("value", Json.Str (Stm_runtime.Heap.show_value value));
          ("write", Json.Bool write);
        ] )
  | Trace.Txn_serialized { txid; tid } ->
      ("txn_serialized", [ ("txid", Json.Int txid); ("tid", Json.Int tid) ])

let entry_json resolve (e : Recorder.entry) =
  let name, fields = event_fields resolve e.Recorder.ev in
  (* the envelope already carries the emitting tid *)
  let fields = List.filter (fun (k, _) -> k <> "tid") fields in
  Json.Obj
    ([
       ("ev", Json.Str name);
       ("ts", Json.Int e.Recorder.ts);
       ("step", Json.Int e.Recorder.step);
       ("tid", Json.Int e.Recorder.tid);
     ]
    @ fields)

let to_jsonl ?(resolve = no_resolve) buf entries =
  List.iter
    (fun e ->
      Json.to_buffer buf (entry_json resolve e);
      Buffer.add_char buf '\n')
    entries

let write_jsonl ?resolve oc entries =
  let buf = Buffer.create 4096 in
  to_jsonl ?resolve buf entries;
  Buffer.output_buffer oc buf

(* Chrome trace_event format (chrome://tracing / Perfetto). Cost-clock
   cycles are mapped 1:1 to microseconds. Commits and aborts become
   "X" (complete) slices covering the transaction's [begin, end] span on
   the emitting thread's track; everything else becomes a thread-scoped
   "i" instant. *)
let chrome_events ?(resolve = no_resolve) entries =
  let tids = Hashtbl.create 16 in
  List.iter
    (fun (e : Recorder.entry) ->
      if not (Hashtbl.mem tids e.Recorder.tid) then
        Hashtbl.replace tids e.Recorder.tid ())
    entries;
  let meta =
    Hashtbl.fold
      (fun tid () acc ->
        Json.Obj
          [
            ("name", Json.Str "thread_name");
            ("ph", Json.Str "M");
            ("pid", Json.Int 1);
            ("tid", Json.Int tid);
            ( "args",
              Json.Obj
                [
                  ( "name",
                    Json.Str
                      (if tid < 0 then "(main)"
                       else Printf.sprintf "thread %d" tid) );
                ] );
          ]
        :: acc)
      tids []
    |> List.sort compare
  in
  let body =
    List.map
      (fun (e : Recorder.entry) ->
        let name, fields = event_fields resolve e.Recorder.ev in
        let args = Json.Obj (("step", Json.Int e.Recorder.step) :: fields) in
        match e.Recorder.ev with
        | Trace.Txn_commit { latency; _ } | Trace.Txn_abort { latency; _ } ->
            let dur = max 1 latency in
            Json.Obj
              [
                ("name", Json.Str name);
                ("cat", Json.Str "txn");
                ("ph", Json.Str "X");
                ("ts", Json.Int (max 0 (e.Recorder.ts - dur)));
                ("dur", Json.Int dur);
                ("pid", Json.Int 1);
                ("tid", Json.Int e.Recorder.tid);
                ("args", args);
              ]
        | _ ->
            let cat =
              match Trace.event_level e.Recorder.ev with
              | Trace.Debug | Trace.History -> "access"
              | Trace.Info -> "stm"
            in
            Json.Obj
              [
                ("name", Json.Str name);
                ("cat", Json.Str cat);
                ("ph", Json.Str "i");
                ("ts", Json.Int e.Recorder.ts);
                ("pid", Json.Int 1);
                ("tid", Json.Int e.Recorder.tid);
                ("s", Json.Str "t");
                ("args", args);
              ])
      entries
  in
  meta @ body

let to_chrome ?resolve entries =
  Json.Obj
    [
      ("traceEvents", Json.List (chrome_events ?resolve entries));
      ("displayTimeUnit", Json.Str "ns");
      ( "otherData",
        Json.Obj
          [
            ("clock", Json.Str "stm-cost-cycles");
            ("source", Json.Str "stm_obs");
          ] );
    ]

let write_chrome ?resolve oc entries =
  let buf = Buffer.create 8192 in
  Json.to_buffer buf (to_chrome ?resolve entries);
  Buffer.add_char buf '\n';
  Buffer.output_buffer oc buf
