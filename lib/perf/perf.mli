(** Wall-clock performance harness for the STM runtime's hot paths.

    Unlike every other harness in this repository, which measures
    {e simulated} cycles on the deterministic cost clock, this suite
    measures {e host} wall-clock time (Bechamel monotonic clock, OLS
    estimate) and host allocation (GC words per operation). It exists to
    ratchet the reproduction-overhead of the simulator itself: read-set
    maintenance, validation, descriptor churn, scheduler picks, and
    interpreter dispatch.

    The suite is run by [stm_bench perf]; results are written as JSON
    ([BENCH_PR4.json] by default) and compared against the checked-in
    [bench/baseline.json]. See [docs/PERFORMANCE.md]. *)

(** An operation is one call of the bench's body, except for
    [barrier/strong-read] and [barrier/weak-read], where it is one
    non-transactional read, [sched/switch], where it is one switching
    yield,
    [sched/effect-floor], where it is one bare effect round trip, and
    [ir/alu-loop] and [ir/call-loop], where it is one interpreted
    instruction. *)
type sample = {
  name : string;
  ns_per_op : float;  (** OLS wall-clock estimate per operation *)
  alloc_words_per_op : float;  (** GC-allocated words per operation *)
}

type report = {
  quick : bool;
  backend : Stm_core.Config.versioning;  (** see {!suite} *)
  validation : Stm_core.Config.validation;  (** see {!suite} *)
  samples : sample list;  (** sorted by name *)
}

val bench_names : string list
(** Every bench the suite runs, in definition order ([stm_bench list]). *)

val suite :
  ?quick:bool ->
  ?backend:Stm_core.Config.versioning ->
  ?validation:Stm_core.Config.validation ->
  unit ->
  report
(** Run every microbench and end-to-end bench. [quick] shrinks the
    Bechamel quota for CI smoke runs (same operations, fewer samples).
    [backend] (default [Eager]) selects the versioning backend the
    backend-sensitive benches run under — the txn/* and diag/* benches
    switch their weak-atomicity configuration, the store/* benches run
    the store's matching mode ([Kv.Mvcc] under mvcc, [Kv.Strong]
    otherwise); [lazy-write-commit] and the end-to-end figure/fuzz units
    keep their own fixed configurations. [validation] (default
    [Incremental]) switches the txn/* and diag/* configuration to the
    global-commit-clock scheme; the revalidate-heavy and
    read-only-commit benches are its showcase — see docs/PERFORMANCE.md.
    Reports for different backends/validation schemes ratchet against
    different baseline files ([bench/baseline.json],
    [bench/baseline-mvcc.json], [bench/baseline-timestamp.json]). *)

val to_json : report -> Stm_obs.Json.t

type baseline = {
  b_ns : float;
  b_words : float option;  (** [alloc_words_per_op], when recorded *)
}

val baseline_of_json : Stm_obs.Json.t -> (string * baseline) list
(** Extract the per-bench baseline from a report JSON (the baseline file
    uses the same schema as {!to_json} output). *)

type comparison = {
  c_name : string;
  c_ns : float;
  c_baseline_ns : float;
  c_speedup : float;  (** baseline / current; > 1 means faster now *)
  c_words : float;  (** alloc words per operation now *)
  c_baseline_words : float option;
}

val compare_to_baseline :
  baseline:(string * baseline) list -> report -> comparison list

val alloc_bound_pct : float
(** How far a bench's alloc words per operation may exceed its baseline,
    in percent (2). The counts are exact and repeat from run to run on
    every bench, so the bound is small and fixed, unlike the ns/op
    threshold. *)

val alloc_regressed : comparison -> bool
(** The bench allocates more than {!alloc_bound_pct} over its baseline
    words per operation (never, for a baseline that records none). *)

val ns_regressed : threshold_pct:float -> comparison -> bool
(** The bench is slower than its baseline by more than [threshold_pct]
    percent. *)

val regressions : threshold_pct:float -> comparison list -> comparison list
(** Benches that are {!ns_regressed} or {!alloc_regressed}. *)

val pp_report : Format.formatter -> report -> unit
val pp_comparison : Format.formatter -> comparison list -> unit
