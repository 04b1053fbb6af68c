(** Differential fuzz sweep over the configuration grid.

    Pairs every configuration combo with the program profiles it is
    expected to keep serializable (see {!Gen.profile}), plus "hunt"
    campaigns on weak configurations where the paper's anomalies must be
    found and minimized — the oracle's positive control. *)

type expectation =
  | Expect_clean  (** any anomaly fails the campaign *)
  | Expect_anomaly  (** finding no anomaly fails the campaign *)

type driver_kind =
  | Drv_random  (** one random schedule per (program, seed) pair *)
  | Drv_explore  (** preemption-bounded DFS per program *)
  | Drv_dpor
      (** race-reduced DPOR walk per program, same bound as
          [Drv_explore] (see {!Stm_litmus.Explorer.explore_dpor}) *)

type budget = {
  programs : int;
  seeds : int;
  base_seed : int;
  max_steps : int;
  driver : driver_kind;
  preemption_bound : int;
  max_runs : int;
}

val default_budget : budget

type campaign = {
  combo : Combo.t;
  profile : Gen.profile;
  expectation : expectation;
  driver : driver_kind option;
      (** per-campaign override of the budget's schedule driver (the
          handoff hunts use the DPOR explorer: the privatization window
          is too narrow for random sampling) *)
}

type campaign_result = {
  campaign : campaign;
  runs : int;
  anomalies : int;
  inconclusive : int;
  repro : Repro.t option;  (** first counterexample, minimized *)
  shrink_steps : int;  (** ops removed by shrinking *)
  ok : bool;
}

val clean_campaigns : campaign list
val hunt_campaigns : campaign list
val default_plan : campaign list

val timestamp_campaigns : campaign list
(** Expect-clean campaigns over {!Combo.timestamp_grid} (every profile
    the flavor admits — the timestamp-validation certification sweep). *)

val timestamp_plan : campaign list
(** The plan behind [stm_bench fuzz --validation timestamp]. *)

val campaign_name : campaign -> string

val run_campaign :
  ?log:(string -> unit) ->
  ?on_anomaly:(campaign -> prog_seed:int -> sched_seed:int -> unit) ->
  budget ->
  campaign ->
  campaign_result
(** Fuzz one campaign. On the first anomaly the failing program is
    shrunk to a fixpoint (re-running the same deterministic driver as
    the [keep] predicate) and packaged as a {!Repro.t}. Hunt campaigns
    stop at the first witness.

    [on_anomaly] fires the moment an [Expect_clean] campaign observes an
    anomalous history, with the program and schedule seeds that produced
    it — before shrinking re-runs the program and scrolls recent state
    away. The diagnosis layer uses it to freeze a flight-recorder
    incident ({!Stm_diag.Diag.force_incident}); hunt campaigns, which
    find anomalies by design, never fire it. *)

val sweep : ?log:(string -> unit) -> ?plan:campaign list -> budget -> campaign_result list
val passed : campaign_result list -> bool
val summary_json : budget -> campaign_result list -> Stm_obs.Json.t

(** {1 Cross-backend differential sweep} *)

val backend_grid : Combo.t list
(** One weak/suicide combo per backend — eager, lazy, mvcc — certified
    serializable, plus mvcc at snapshot isolation. *)

val timestamp_backend_grid : Combo.t list
(** {!backend_grid} plus eager/lazy under timestamp validation: the
    same programs and schedules across both validation schemes; any
    divergence fails timestamp certification. *)

type divergence = {
  div_prog_seed : int;
  div_sched_seed : int;
  div_verdicts : (string * History.verdict) list;
      (** combo name -> certified verdict, one entry per grid member *)
  div_repros : Repro.t list;  (** one replayable repro per anomalous member *)
}

type differential_result = {
  diff_combos : Combo.t list;
  diff_programs : int;
  diff_executions : int;
  divergences : divergence list;
}

val run_differential :
  ?log:(string -> unit) -> ?combos:Combo.t list -> budget -> differential_result
(** Run the same seeded txn-only programs, under the same schedule
    seeds, on every combo in the grid, certifying each at its own
    isolation level. Every member must come back clean; an anomalous
    member is recorded as a divergence with a replayable repro. *)

val differential_passed : differential_result -> bool
val differential_to_json : differential_result -> Stm_obs.Json.t
