open Stm_runtime
open Stm_core
open Stm_obs

(* The conflict-diagnosis pipeline: one object owning a contention
   heatmap, an abort-causality graph, a flight recorder, and an
   event-derived metrics block, all fed from a single event stream -
   live (as a trace subscriber that stamps entries itself, exactly
   like [Recorder.record]) or offline (replaying ingested entries).
   Report rendering pulls the pieces together: hottest granules mapped
   to sites, victim <- aggressor edges with kill chains, starvation
   verdicts cross-checked against [Fairness], and post-mortems for
   every frozen incident. *)

type t = {
  heatmap : Heatmap.t;
  causality : Causality.t;
  flight : Flight.t;
  metrics : Metrics.t;
  mutable resolve : int -> string option;
}

let create ?(flight_capacity = 512) ?streak_threshold ?max_incidents
    ?(resolve = fun _ -> None) () =
  {
    heatmap = Heatmap.create ();
    causality = Causality.create ();
    flight =
      Flight.create ~capacity:flight_capacity ?streak_threshold ?max_incidents
        ();
    metrics = Metrics.create ();
    resolve;
  }

let set_resolve t r = t.resolve <- r
let heatmap t = t.heatmap
let causality t = t.causality
let flight t = t.flight
let metrics t = t.metrics

let feed t (e : Recorder.entry) =
  Heatmap.handle t.heatmap e.Recorder.ev;
  Causality.handle t.causality e.Recorder.ev;
  Metrics.handle t.metrics e.Recorder.ev;
  Flight.record t.flight e

let feed_all t entries = List.iter (feed t) entries

(* Live consumer: stamp the event with the emitting thread's clocks
   (the recorder's envelope discipline) and feed the pipeline. *)
let consumer t ev =
  let running = Sched.running () in
  feed t
    {
      Recorder.ts = (if running then Sched.time () else 0);
      step = Sched.steps ();
      tid = (if running then Sched.self () else -1);
      ev;
    }

let force_incident t ~reason = Flight.force t.flight ~reason

let incidents t = Flight.incidents t.flight

let starved ?(threshold = 50) t =
  Stm_cm.Fairness.starved (Metrics.fairness t.metrics) ~threshold

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

(* Wasted-work cross-check: the causality graph sums abort latencies
   per victim thread independently of [Fairness] (which is fed the same
   latencies by [Metrics]); a mismatch means the two pipelines saw
   different event streams. *)
let wasted_consistent t =
  let f = Metrics.fairness t.metrics in
  List.for_all
    (fun (tid, (s : Causality.tstat)) ->
      s.Causality.self_wasted = Stm_cm.Fairness.wasted_cycles f ~tid)
    (Causality.thread_stats t.causality)

let pp_starvation ?(threshold = 50) ppf t =
  let f = Metrics.fairness t.metrics in
  (match starved ~threshold t with
  | [] ->
      Fmt.pf ppf "starvation: none at threshold %d (worst streak %d)@."
        threshold
        (Stm_cm.Fairness.max_consec_aborts f)
  | tids ->
      Fmt.pf ppf "starvation: threads [%s] starved at threshold %d@."
        (String.concat "; " (List.map string_of_int tids))
        threshold);
  (match Causality.most_starved t.causality with
  | Some (tid, s) when s.Causality.aborts > 0 ->
      Fmt.pf ppf
        "most-starved thread: t%d (%d aborts vs %d commits, streak %d, %d \
         cycles wasted)@."
        tid s.Causality.aborts s.Causality.commits
        (Stm_cm.Fairness.max_consec_aborts_of f ~tid)
        s.Causality.self_wasted
  | _ -> ());
  (match Causality.top_aggressor t.causality with
  | Some (tid, s) ->
      Fmt.pf ppf
        "top aggressor: t%d (caused %d aborts, costing other threads %d \
         cycles)@."
        tid s.Causality.caused s.Causality.caused_wasted
  | None -> ());
  Fmt.pf ppf "wasted-work cross-check (causality vs fairness): %s@."
    (if wasted_consistent t then "consistent" else "MISMATCH")

let report ?(k = 10) ?(threshold = 50) ppf t =
  Fmt.pf ppf "=== contention heatmap ===@.";
  Heatmap.pp ~resolve:t.resolve ~k ppf t.heatmap;
  Fmt.pf ppf "@.=== abort causality ===@.";
  Causality.pp ppf t.causality;
  Fmt.pf ppf "@.=== fairness ===@.";
  pp_starvation ~threshold ppf t;
  let inc = incidents t in
  Fmt.pf ppf "@.=== flight recorder ===@.";
  if inc = [] then Fmt.pf ppf "no incidents@."
  else
    List.iteri
      (fun i it ->
        Fmt.pf ppf "--- incident %d ---@.%s" (i + 1)
          (Flight.explain ~resolve:t.resolve it))
      inc

let to_json ?(k = 10) ?(threshold = 50) t =
  Json.Obj
    [
      ("schema", Json.Str "stm-diag/1");
      ("heatmap", Heatmap.to_json ~resolve:t.resolve ~k t.heatmap);
      ("causality", Causality.to_json t.causality);
      ("metrics", Metrics.to_json t.metrics);
      ( "starved",
        Json.List (List.map (fun tid -> Json.Int tid) (starved ~threshold t))
      );
      ( "wasted_crosscheck",
        Json.Str (if wasted_consistent t then "consistent" else "mismatch") );
      ( "incidents",
        Json.List
          (List.map (Flight.to_json ~resolve:t.resolve) (incidents t)) );
    ]

(* ------------------------------------------------------------------ *)
(* Perfetto annotations                                                *)
(* ------------------------------------------------------------------ *)

(* The plain Chrome export plus diagnosis annotations: a counter track
   per hot granule (cumulative heat over time) and an instant on the
   victim's track for every attributed abort, naming the aggressor and
   the granule. Loads in Perfetto / chrome://tracing like the plain
   export does. *)
let perfetto ?(k = 5) t entries =
  let hot = List.map (fun c -> c.Heatmap.oid) (Heatmap.top t.heatmap ~k) in
  let counters = Hashtbl.create 8 in
  let annotations =
    List.concat_map
      (fun (e : Recorder.entry) ->
        let counter oid =
          if List.mem oid hot then begin
            let n =
              1 + Option.value ~default:0 (Hashtbl.find_opt counters oid)
            in
            Hashtbl.replace counters oid n;
            [
              Json.Obj
                [
                  ("name", Json.Str (Printf.sprintf "heat @%d" oid));
                  ("cat", Json.Str "diag");
                  ("ph", Json.Str "C");
                  ("ts", Json.Int e.Recorder.ts);
                  ("pid", Json.Int 1);
                  ("args", Json.Obj [ ("heat", Json.Int n) ]);
                ];
            ]
          end
          else []
        in
        match e.Recorder.ev with
        | Trace.Conflict { oid; _ } -> counter oid
        | Trace.Txn_abort { txid; oid; by; by_tid; cause; _ }
          when by >= 0 || oid >= 0 ->
            Json.Obj
              [
                ("name", Json.Str "abort-edge");
                ("cat", Json.Str "diag");
                ("ph", Json.Str "i");
                ("ts", Json.Int e.Recorder.ts);
                ("pid", Json.Int 1);
                ("tid", Json.Int e.Recorder.tid);
                ("s", Json.Str "t");
                ( "args",
                  Json.Obj
                    [
                      ("victim_txid", Json.Int txid);
                      ("aggr_txid", Json.Int by);
                      ("aggr_tid", Json.Int by_tid);
                      ("oid", Json.Int oid);
                      ("cause", Json.Str (Trace.string_of_cause cause));
                    ] );
              ]
            :: (if oid >= 0 then counter oid else [])
        | _ -> [])
      entries
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List (Export.chrome_events ~resolve:t.resolve entries @ annotations)
      );
      ("displayTimeUnit", Json.Str "ns");
      ( "otherData",
        Json.Obj
          [
            ("clock", Json.Str "stm-cost-cycles");
            ("source", Json.Str "stm_diag");
          ] );
    ]
