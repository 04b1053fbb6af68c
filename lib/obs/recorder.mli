(** Ring-buffered structured event recorder.

    Wraps every {!Stm_core.Trace} event with the emitting thread id, its
    cost clock ({!Stm_runtime.Sched.time}), and the global scheduler step
    — the substrate for the JSONL and Chrome-trace exporters
    ({!Export}). Bounded: a run hotter than the capacity keeps the most
    recent events and counts the dropped prefix. *)

open Stm_core

type entry = {
  ts : int;  (** emitting thread's cost clock (per-thread monotone) *)
  step : int;  (** scheduler decision count (globally monotone) *)
  tid : int;  (** emitting simulated thread *)
  ev : Trace.event;
}

type t

val create : ?capacity:int -> unit -> t
(** Default capacity: 65536 events. *)

val record : t -> Trace.event -> unit
(** The subscriber function. A recorder exists to capture the full
    stream, so subscribe it at [Debug]:
    [Trace.with_sinks [ (Trace.Debug, Recorder.record r) ] body]. *)

val entries : t -> entry list
(** Oldest first. *)

val length : t -> int

val dropped : t -> int
(** Events lost to ring wrap-around; [0] means [entries] is complete. *)

val clear : t -> unit
