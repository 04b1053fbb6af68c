(** Livelock / starvation stress scenarios for contention management.

    Three adversarial schedules whose outcome depends on the configured
    {!Stm_cm.Policy}: a long writer against a crowd of short ones, a
    symmetric livelock pair, and a circular priority-inversion chain.
    Every run is deterministic given [seed] (scheduler interleaving and
    randomized backoff both derive from it).

    The pass criterion the tests and CI enforce: [timestamp] completes
    every scenario within fuel with no starved thread, while [suicide]
    exceeds {!starvation_threshold} consecutive aborts on at least one. *)

type scenario = Long_vs_short | Livelock_pair | Inversion_chain | Read_heavy

val all_scenarios : scenario list
val scenario_name : scenario -> string

val scenario_of_string : string -> scenario option
(** Accepts the {!scenario_name} spellings plus underscore and short
    aliases ([livelock], [inversion]). *)

val describe_scenario : scenario -> string

val starvation_threshold : int
(** Consecutive aborts by one thread that count as starvation. *)

type report = {
  scenario : scenario;
  policy : Stm_cm.Policy.t;
  seed : int;
  status : Stm_runtime.Sched.status;
  completed : bool;
      (** scheduler completed within fuel and no thread raised *)
  makespan : int;
  stats : Stm_core.Stats.t;
  metrics : Stm_obs.Metrics.t;
      (** trace-derived metrics incl. per-thread fairness *)
  starved : int list;  (** threads over {!starvation_threshold} *)
}

val run :
  ?seed:int ->
  ?fuel:int ->
  ?versioning:Stm_core.Config.versioning ->
  ?isolation:Stm_core.Config.isolation ->
  ?validation:Stm_core.Config.validation ->
  cm:Stm_cm.Policy.t ->
  scenario ->
  report
(** Execute one scenario under one policy. [fuel] bounds scheduler steps
    (default 2M); a run that exhausts it reports
    [status = Fuel_exhausted] and [completed = false]. The report's
    metrics are an [Info] {!Stm_core.Trace} subscriber for the run; a
    caller that wants the Debug stream too (e.g.
    {!Stm_diag.Diag.consumer}) wraps the call in
    {!Stm_core.Trace.with_sinks}, and the report's counters are the
    same with or without it. [versioning]
    (default eager) and [isolation] (default serializable) select the
    backend; under mvcc the {!Read_heavy} scanners must commit
    abort-free. [validation] (default incremental) selects the read-set
    validation scheme of the single-version backends. *)

val passed : report -> bool
(** Completed with zero starved threads. *)

val pp_report : Format.formatter -> report -> unit
