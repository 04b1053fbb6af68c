(** Execute fuzz programs on the real STM and collect their histories.

    A {!Collector} turns the runtime's History-level trace events into
    a {!History.history} over the program's cells, roots and boxes, one
    logical thread per program thread.

    Every entry point subscribes its collector with
    {!Stm_core.Trace.with_sinks} for the duration of the call, alongside
    whatever the caller has subscribed; an exploration subscribes once
    and hands each schedule a fresh collector. *)

val default_fuel : int
(** Default scheduler step budget per execution. *)

val run :
  ?policy:Stm_runtime.Sched.policy ->
  ?max_steps:int ->
  cfg:Stm_core.Config.t ->
  Prog.t ->
  History.verdict * History.history option
(** Run the program once under the given scheduling policy and check the
    resulting history. The verdict is [Inconclusive] when the run hit the
    step budget or deadlocked (no history to judge), [Anomalous
    (Exec_failure _)] when a thread body raised. *)

val explore :
  ?preemption_bound:int ->
  ?max_runs:int ->
  ?max_steps:int ->
  cfg:Stm_core.Config.t ->
  Prog.t ->
  History.verdict option * Stm_litmus.Explorer.exploration
(** Drive the program through the litmus explorer's preemption-bounded
    DFS instead of a single random schedule. Each explored schedule's
    outcome is the verdict's JSON rendering; the search stops at the
    first anomalous outcome, which is also returned directly. *)

val explore_dpor :
  ?preemption_bound:int ->
  ?max_runs:int ->
  ?max_steps:int ->
  cfg:Stm_core.Config.t ->
  Prog.t ->
  History.verdict option * Stm_litmus.Explorer.dpor
(** As {!explore}, but through the race-reduced
    {!Stm_litmus.Explorer.explore_dpor} walk: typically an order of
    magnitude fewer runs at the same preemption bound, and the result
    carries [complete] (the reduced schedule space was exhausted) and
    [races] alongside the exploration counters. Omitting
    [preemption_bound] makes the walk unbounded — exhaustive when it
    terminates, but divergent for programs whose contention-manager
    retry loops keep generating fresh races. *)
