(** Systematic concurrency testing for the litmus programs of Figures 1-5.

    Stateless model checking in the style of CHESS: each execution is
    driven by a {!Stm_runtime.Sched.Controlled} policy; the explorer
    re-executes the program with different schedule prefixes, enumerating
    the scheduling tree depth-first with a {e preemption bound} — only
    schedules with at most [preemption_bound] scheduler choices that
    deviate from the default are explored. Every anomaly in the paper
    needs at most three preemptions at specific points, so a small bound
    finds them all, while keeping the search tractable.

    The default schedule continues the current thread while it is
    runnable, rotating round-robin once one thread has taken 64
    consecutive decisions (the fairness window) so that spin loops
    (barrier back-off, quiescence waits) cannot livelock the default
    execution. Rotations do not count against the preemption bound.

    All three engines ({!explore}, {!explore_dpor}, {!explore_pct}) run
    their schedules through one executor: it charges each run against the
    budget, resets the simulated mutex ids, builds a fresh instance, runs
    it under the engine's next-thread choice and books the outcome, so
    the three report runs, outcomes, livelocks and deadlocks the same
    way. *)

type exploration = {
  outcomes : (string * int) list;
      (** distinct observed outcomes with the number of schedules that
          produced each, sorted by outcome string. Fuel-exhausted
          executions have no final state and are accounted in
          [livelocks] only, so [runs = livelocks + sum of counts]. *)
  runs : int;  (** number of executions performed *)
  truncated : bool;
      (** [explore]/[explore_dpor]: [max_runs] stopped the walk before
          the (bounded, resp. race-reduced) schedule tree was
          exhausted — the search is incomplete. [explore_pct] never
          sets it: a sampler's quota {e is} its search, so completing
          [runs] samples without a [stop_when] hit is the search
          finishing, not a truncation. *)
  livelocks : int;  (** executions that ran out of scheduler fuel *)
  deadlocks : int;
}

type instance = {
  main : unit -> unit;  (** body executed as simulated thread 0 *)
  observe : unit -> string;  (** read the final state, after the run *)
}

val explore :
  ?preemption_bound:int ->
  ?max_runs:int ->
  ?max_steps:int ->
  ?stop_when:(string -> bool) ->
  cfg:Stm_core.Config.t ->
  make:(unit -> instance) ->
  unit ->
  exploration
(** [explore ~cfg ~make ()] repeatedly calls [make] to get a fresh
    instance and runs it under systematically varied schedules.
    Defaults: [preemption_bound = 2], [max_runs = 40_000],
    [max_steps = 60_000]. If [stop_when] is given, the search stops as
    soon as a matching outcome is observed (used for "anomaly possible?"
    queries, where one witness suffices). *)

val observed : exploration -> (string -> bool) -> bool
(** Did any schedule produce an outcome satisfying the predicate? *)

type dpor = {
  exploration : exploration;
  complete : bool;
      (** The race-reduced schedule space was walked to the end: no
          [max_runs] truncation, no [stop_when] early exit, and no
          run that reached a final state (completed or deadlocked)
          outgrew the 2,000-decision analysis horizon. With no
          [preemption_bound] this certifies that {e every} schedule is
          outcome-equivalent to an explored one — subject to the
          caveats below. *)
  races : int;
      (** conflicting, unordered (immediately racing) segment pairs
          found across all runs; each seeded a backtrack point *)
}

val explore_dpor :
  ?preemption_bound:int ->
  ?max_runs:int ->
  ?max_steps:int ->
  ?stop_when:(string -> bool) ->
  cfg:Stm_core.Config.t ->
  make:(unit -> instance) ->
  unit ->
  dpor
(** Dynamic partial-order reduction (Flanagan-Godefroid race-directed
    backtracking with sleep sets) over the same deterministic scheduler
    as {!explore}. Every access to cross-thread-visible state is traced
    through {!Stm_runtime.Footprint}; per-segment footprints give the
    happens-before relation of each run, and only racing segment pairs
    seed alternative schedules, instead of flipping every decision.
    Futile spin-wait re-reads ({!Stm_runtime.Footprint.Spin_read}) join
    happens-before but seed no reversals — the spin-assume reduction of
    await loops, without which a blocked retry loop degenerates the
    reduction to plain enumeration.

    By default the search is {e unbounded} (full reduction, exhaustive
    when [complete = true]); this terminates for lock-based and weak
    STM cells but diverges on programs whose contention-manager
    abort/retry loops make the trace space infinite (each reversal
    forces a retry that races anew). Passing [preemption_bound] prunes
    branches whose deviation count exceeds the bound; sleep sets stay
    on, and a default choice whose next step is asleep is diverted to a
    non-sleeping runnable {e without} charging the bound (the divert is
    the effective default). Combining any partial-order pruning with a
    preemption bound can in principle drop a behavior whose
    reduced-tree representative is over budget (the BPOR pitfall,
    Coons et al., OOPSLA 2013), which is why certification always
    cross-checks bounded-DPOR verdicts against the enumerative baseline
    at the same bound (see {!Matrix.certify} and the CI gate).

    Completeness caveats (see docs/TESTING.md):
    - programs must confine cross-thread communication to the simulated
      heap and runtime primitives; plain shared OCaml refs are
      invisible to the dependency analysis;
    - each run is analyzed only up to its first 2,000 decisions (the
      analysis horizon). A fuel-exhausted (livelocked) run may outgrow
      it, on the premise that an unfair spin's suffix reaches no new
      final state; any run that reached a final state (completed or
      deadlocked) and outgrew the horizon clears [complete];
    - stateful contention managers fold all policy state into one
      pseudo-granule, which is exact for the stateless default
      policies and conservative (more runs, never fewer behaviors)
      otherwise; order-insensitive policies (Suicide) skip both that
      granule and the txid counter, whose orders cannot change their
      decisions.

    Per executed schedule of [m] recorded segments with [F] footprint
    entries in all, over [n] threads, the race analysis ({!races}) costs
    O((m + F)·n²), plus sorting each segment's candidates (at most
    [n - 1] per granule it touches): linear in [m] for a fixed thread
    count. The rest of the per-schedule bookkeeping is linear in [m] too.

    Defaults as {!explore} otherwise: [max_runs = 40_000],
    [max_steps = 60_000]. *)

val races :
  chosen:Stm_runtime.Sched.tid array ->
  runnables:Stm_runtime.Sched.tid list array ->
  footprints:(int, int) Hashtbl.t array ->
  start:int ->
  (int * int) list
(** The race analysis {!explore_dpor} runs on each executed schedule.
    Segment [j] is what thread [chosen.(j)] ran after decision [j], taken
    among the ascending [runnables.(j)]; [footprints.(j)] maps each
    granule it touched to its strongest access level (2 = write,
    1 = read, 0 = futile spin-wait re-read). Returns the immediate races
    [(i, j)], [i < j], with [j >= start], in the order the search inserts
    their reversals into its backtrack sets: by ascending [j], then by
    descending [i]. Two segments conflict when they are on different
    threads, share a granule and one of them writes it; the pair is
    reversible unless the other access is a spin re-read; it is a race
    when nothing orders it through program order, enabledness (a thread
    becoming runnable after a segment) or an earlier conflict.

    Linear in the number of segments: each granule keeps, per thread,
    its latest accessor and its latest writer, so a segment is tested
    against at most one segment per other thread and shared granule. *)

val explore_pct :
  ?runs:int ->
  ?depth:int ->
  ?max_steps:int ->
  ?seed:int ->
  ?stop_when:(string -> bool) ->
  cfg:Stm_core.Config.t ->
  make:(unit -> instance) ->
  unit ->
  exploration
(** Probabilistic concurrency testing (Burckhardt et al., ASPLOS 2010):
    each run assigns random priorities to threads and demotes the running
    thread's priority at [depth - 1] randomly chosen scheduling steps; the
    scheduler otherwise always runs the highest-priority runnable thread.
    For a bug of depth [d] (number of ordering constraints), each run
    finds it with probability at least [1/(n * k^(d-1))] — an independent
    method of deciding the Figure 6 cells, complementing the
    preemption-bounded DFS. A thread that takes more than 64 consecutive
    decisions (the fairness window) while others are runnable is demoted
    below every other thread, so a spin-waiter cannot starve the thread
    it waits on. Defaults: [runs = 2000], [depth = 3],
    [seed = 1]. The result's [truncated] is always [false]: the quota
    defines the search rather than cutting an exhaustive one short. *)
