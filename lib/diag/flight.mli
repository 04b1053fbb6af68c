(** Flight recorder: bounded event window, trigger logic, and
    post-mortem rendering.

    Every entry fed through {!record} lands in a ring of the configured
    capacity. When one thread's consecutive-abort streak reaches the
    threshold — or an external caller fires {!force} (a starvation
    verdict, a fuzzer anomaly) — the current window is frozen into an
    {!incident}. {!explain} renders an incident as a human-readable
    "why": the final abort, its conflict edge (victim, aggressor,
    granule), the barrier site that kept losing, the CM decision in
    force, and where the aggressor serialized. *)

type t

(** A frozen window plus the trigger that froze it. *)
type incident = {
  reason : string;
  at_step : int;  (** scheduler step of the trigger, [-1] for {!force} *)
  tid : int;  (** thread the streak trigger fired for, [-1] for {!force} *)
  streak : int;  (** consecutive aborts at trigger time, [0] for {!force} *)
  window : Stm_obs.Recorder.entry list;  (** oldest first *)
  window_dropped : int;
      (** entries already evicted from the ring when the freeze happened *)
}

val create :
  ?capacity:int -> ?streak_threshold:int -> ?max_incidents:int -> unit -> t
(** [capacity] (default 512) bounds the window; [streak_threshold]
    (default 8) is the consecutive-abort count that trips the internal
    trigger; at most [max_incidents] (default 8) windows are retained —
    later triggers are dropped, not rotated, so the earliest incidents
    (usually the onset of the pathology) survive. *)

val record : t -> Stm_obs.Recorder.entry -> unit
(** Feed one stamped entry: push into the window, update streaks, and
    freeze an incident if a streak trigger fires. A thread's trigger
    re-arms only when it commits, so one streak produces one incident. *)

val force : t -> reason:string -> unit
(** Freeze the current window unconditionally (external trigger). *)

val incidents : t -> incident list
(** In trigger order. *)

val incident_count : t -> int

val explain : ?resolve:(int -> string option) -> incident -> string
(** Multi-line post-mortem; [resolve] maps access-site ids to source
    labels for the barrier-site line. *)

val to_json : ?resolve:(int -> string option) -> incident -> Stm_obs.Json.t
(** The incident with its rendered explanation and the full frozen
    window (repro-style capture: replayable through [stm_diag]). *)
