(** The conflict-diagnosis pipeline.

    One object owning the three diagnosis pillars — {!Heatmap},
    {!Causality}, {!Flight} — plus an event-derived {!Stm_obs.Metrics}
    block, all fed from a single event stream. Feed it live by
    subscribing {!consumer} at [Debug]
    ([Trace.with_sinks [ (Trace.Debug, Diag.consumer d) ] run]), or offline by
    replaying {!Ingest}ed entries through {!feed_all}; the contents are
    identical either way, which is what lets the [stm_diag] CLI analyze
    a checked-in trace exactly as [stm_run --diag] analyzes a live run. *)

type t

val create :
  ?flight_capacity:int ->
  ?streak_threshold:int ->
  ?max_incidents:int ->
  ?resolve:(int -> string option) ->
  unit ->
  t
(** [resolve] maps access-site ids to source labels in every rendered
    report (e.g. {!Stm_ir.Ir.site_loc} live, {!Ingest.result.resolve}
    offline); the flight parameters are {!Flight.create}'s. *)

val set_resolve : t -> (int -> string option) -> unit

val consumer : t -> Stm_core.Trace.event -> unit
(** Live feed: stamps the event with the emitting thread's cost clock
    and scheduler step (the {!Stm_obs.Recorder} envelope discipline)
    and runs it through all four pillars. *)

val feed : t -> Stm_obs.Recorder.entry -> unit
(** Offline feed of one already-stamped entry. *)

val feed_all : t -> Stm_obs.Recorder.entry list -> unit

val force_incident : t -> reason:string -> unit
(** Freeze the flight-recorder window (starvation verdict, fuzzer
    anomaly, operator request). *)

val heatmap : t -> Heatmap.t
val causality : t -> Causality.t
val flight : t -> Flight.t
val metrics : t -> Stm_obs.Metrics.t
val incidents : t -> Flight.incident list

val starved : ?threshold:int -> t -> int list
(** {!Stm_cm.Fairness.starved} over the metrics fairness block;
    [threshold] defaults to 50 consecutive aborts (the stress
    harness's verdict threshold). *)

val wasted_consistent : t -> bool
(** Cross-check: the causality graph's per-thread wasted-cycle sums
    must equal {!Stm_cm.Fairness.wasted_cycles} for every thread — the
    two pipelines are fed independently, so a mismatch means they saw
    different event streams. *)

val report : ?k:int -> ?threshold:int -> Format.formatter -> t -> unit
(** Full text report: heatmap top-[k], causality edges and kill chains,
    starvation verdicts with the fairness cross-check, and a rendered
    post-mortem per incident. *)

val to_json : ?k:int -> ?threshold:int -> t -> Stm_obs.Json.t
(** The same content as a single [stm-diag/1] document. *)

val perfetto : ?k:int -> t -> Stm_obs.Recorder.entry list -> Stm_obs.Json.t
(** The plain Chrome export of [entries] plus diagnosis annotations: a
    counter track per top-[k] hot granule (cumulative heat over time)
    and an instant on the victim's track for every attributed abort
    naming the aggressor and granule. *)
