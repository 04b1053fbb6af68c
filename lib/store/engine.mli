(** YCSB-style closed-loop workload engine over {!Kv}.

    One simulated thread per client; each client draws operations from
    its profile's weighted mix and keys from its own deterministic
    {!Keydist} sampler, and issues them back-to-back (closed loop)
    against the shared store. Everything is seeded: a [(params, seed)]
    pair reproduces the run bit-for-bit, makespan included.

    Reported metrics ride the existing observability pipeline:
    throughput is operations per {e megacycle} of makespan on the
    simulated cost clock (the parallel execution time under the
    [Min_clock] discrete-event policy), per-op-class latencies are
    {!Stm_obs.Hist} histograms of cost-clock cycles, per-shard abort
    counts come from the [Txn_abort] attribution events, and the full
    {!Stm_obs.Metrics} block (abort causes, fairness, latency
    histograms) is embedded in the JSON report ([stm-store/1]).

    [record] mode additionally rewrites every stored value to a
    globally-unique token and runs the {!Oracle} collector, so the
    run's verdict under {!Stm_check.History.check_graph} is part of the
    report — the store's differential check against the
    serializability oracle. *)

open Stm_runtime

type params = {
  mode : Stm_core.Mode.t;
  shards : int;
  clients : int;
  keys : int;  (** preloaded key-space size *)
  buckets : int;  (** hash buckets per shard *)
  value_size : int;  (** heap words per value *)
  batch : int;  (** keys per [multi_get] *)
  scan_len : int;  (** keys per [scan] *)
  ops_per_client : int;
  dist : Keydist.dist;
  profile : Profile.t;
  seed : int;
  cm : Stm_cm.Policy.t;
  record : bool;  (** unique-token values + serializability audit *)
  fuel : int;  (** scheduler step bound *)
}

val default : params
(** strong-eager / 4 shards / 8 clients / 1024 keys / zipfian(0.99) /
    read-heavy / 128 ops per client / timestamp CM. *)

type class_stat = {
  cs_ops : int;  (** operations issued *)
  cs_misses : int;  (** operations that found no key (get/rmw on absent) *)
  cs_hist : Stm_obs.Hist.t;  (** per-op latency, cost-clock cycles *)
}

type report = {
  r_params : params;
  r_status : Sched.status;
  r_completed : bool;
  r_makespan : int;
  r_total_ops : int;
  r_throughput : float;  (** ops per megacycle of makespan *)
  r_classes : (Profile.op * class_stat) list;  (** mix order *)
  r_shard_aborts : int array;
  r_shard_commits : int array;
  r_stats : Stm_core.Stats.t;
  r_metrics : Stm_obs.Metrics.t;
  r_invariants : string list;  (** {!Kv.check_invariants} violations *)
  r_increments : int;  (** committed +1s (rmw/add) when the profile counts them *)
  r_deviation : int option;
      (** final key-sum minus expected key-sum, for increment-counting
          profiles: [Some 0] iff no update was lost or invented — the
          store-level Figure 6 verdict. [None] when the mix has
          non-increment writes. *)
  r_verdict : Stm_check.History.verdict option;  (** [record] runs only *)
  r_resolve_oid : int -> (int * int) option;
      (** post-run oid -> (key, shard) for entry granules: joins the
          diag heatmap's hot granules back to hot keys *)
}

val run : params -> report
(** Execute one run. The report's metrics and per-shard abort counts are
    {!Stm_core.Trace} subscribers at [Info], and the [record] oracle one
    at [History]; a caller that wants the event stream too (the diag
    pipeline, a trace recorder) wraps the call in
    {!Stm_core.Trace.with_sinks}, and the report's counters are the
    same with or without it. *)

val nontxn_mean_latency : report -> float
(** Mean simulated cycles per non-transactional operation
    ({!Profile.nontransactional} classes). Those ops pay only the
    isolation barriers, so comparing this between a strong- and a
    weak-mode run of identical traffic isolates the barrier overhead
    from contention-manager timing noise. [0.] if the mix has no such
    class. *)

val to_json : report -> Stm_obs.Json.t
(** The [stm-store/1] run document. *)

val pp_report : Format.formatter -> report -> unit
