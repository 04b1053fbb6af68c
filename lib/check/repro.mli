(** Replayable counterexamples.

    A repro document pins the configuration combo, the schedule driver,
    the step budget and the exact program, plus the verdict observed
    when it was recorded. Because the whole simulator is deterministic,
    {!replay} must reproduce the recorded verdict bit for bit. *)

type driver =
  | Random_sched of int
      (** seed used for both the random scheduling policy and the
          contention manager's backoff streams *)
  | Explore of { preemption_bound : int; max_runs : int }
      (** the litmus explorer's preemption-bounded DFS; the verdict is
          the first anomalous outcome, or [Serializable] if none *)
  | Dpor of { preemption_bound : int; max_runs : int }
      (** the race-reduced {!Stm_litmus.Explorer.explore_dpor} walk at
          the same bound: the same verdict contract as [Explore] from
          far fewer runs *)

type t = {
  combo : Combo.t;
  profile : string;  (** informational: generator profile name *)
  prog_seed : int option;  (** informational: generator seed *)
  driver : driver;
  max_steps : int;
  prog : Prog.t;
  verdict : Stm_obs.Json.t;  (** verdict as recorded, in JSON form *)
}

val to_json : t -> Stm_obs.Json.t
val to_string : t -> string
val of_string : string -> (t, string) result
val save : string -> t -> unit
val load : string -> (t, string) result

val run_driver :
  combo:Combo.t -> driver:driver -> max_steps:int -> Prog.t -> History.verdict
(** Execute a program under a driver (the primitive {!replay} uses). *)

val replay : t -> History.verdict
(** Re-run the recorded execution deterministically. *)

val matches : t -> History.verdict -> bool
(** Does a replayed verdict equal the recorded one (JSON comparison)? *)
