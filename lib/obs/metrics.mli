(** Event-derived run metrics with snapshot/diff.

    A {!t} consumes {!Stm_core.Trace} events and accumulates transaction
    lifecycle counters, per-cause abort counts, and commit/abort latency
    histograms on the simulated cost clock. {!snapshot} and {!diff}
    scope the metrics to any window of a run — e.g. per benchmark
    iteration.

    Every caller in this tree subscribes it at [Info], which keeps the
    access fast paths cheap and makes its counters independent of
    whatever else is subscribed. At [Info] the [backoffs],
    [cm_decisions], [validations] and [validation_failures] counters stay
    [0]: they count [Debug] events and need a [Debug] subscription. The
    always-on counts of those actions are in the run's
    {!Stm_core.Stats}. *)

open Stm_core

type t

val create : unit -> t

val handle : t -> Trace.event -> unit
(** The subscriber function: [Trace.with_sinks [ (Trace.Info, handle m) ]]. *)

val install : t -> unit
(** Replace the whole subscriber set with this collector at [Info]
    ({!Trace.set_sink}). Unscoped; kept only for
    [bench/e2e/stm_e2e.ml]. *)

val snapshot : t -> t
(** Immutable copy of the current totals. *)

val diff : t -> t -> t
(** [diff later earlier]: the activity between two snapshots. *)

val begins : t -> int
val commits : t -> int
val aborts : t -> int
val abort_cause_count : t -> Trace.abort_cause -> int

val fairness : t -> Stm_cm.Fairness.t
(** Per-thread commit/abort accounting derived from the [tid] fields of
    the lifecycle events (Jain index, consecutive-abort streaks, wasted
    cycles). *)

(** Every abort cause, in serialization order. *)
val all_causes : Trace.abort_cause list
val commit_latency : t -> Hist.t
val abort_latency : t -> Hist.t

val to_assoc : t -> (string * int) list

val host_alloc_words : t -> float
(** Host-process (OCaml GC) words allocated over this object's window:
    creation to now for a live object, creation to {!snapshot} for a
    snapshot, between the two snapshots for a {!diff}. A real-resource
    counterpart to the simulated counters — the perf harness reports the
    same quantity per benchmark op. *)

val to_json : ?stats:Stats.t -> t -> Json.t
(** Full metrics object: counters, abort causes, latency histograms, a
    ["fairness"] block (Jain index, worst consecutive-abort streak,
    per-thread counters), and ["host_alloc_words"] ({!host_alloc_words});
    [stats] additionally embeds the run's global {!Stm_core.Stats}. *)

val pp : Format.formatter -> t -> unit
