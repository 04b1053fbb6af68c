(** Execution counters collected by the STM.

    Every counter is cumulative over one simulated run; the benchmark
    harness and the tests use them to check behaviour (e.g. that DEA
    removes synchronized operations, or that a workload actually
    conflicts). *)

type t = {
  mutable commits : int;
  mutable aborts : int;
  mutable txn_reads : int;
  mutable txn_writes : int;
  mutable barrier_reads : int;  (** non-txn read barriers executed *)
  mutable barrier_writes : int;
  mutable barrier_private_hits : int;
      (** barriers that took the DEA private fast path *)
  mutable atomic_ops : int;  (** CAS / BTR operations issued *)
  mutable conflicts : int;  (** conflict-manager invocations *)
  mutable publishes : int;  (** objects marked public by publishObject *)
  mutable validations : int;
  mutable fast_validations : int;
      (** validations answered by the O(1) global-clock fast path
          ([Config.Timestamp] only) *)
  mutable ts_extensions : int;
      (** successful read-timestamp extensions ([Config.Timestamp] only) *)
  mutable ro_fast_commits : int;
      (** read-only commits that skipped the commit-time validation walk
          ([Config.Timestamp] only) *)
  mutable retries : int;  (** user-initiated retry operations *)
  mutable wounds : int;  (** contention-manager kills issued *)
  mutable backoff_cycles : int;
      (** virtual cycles spent in contention-manager waits *)
  mutable quiesce_waits : int;
}

val create : unit -> t
val reset : t -> unit
val to_assoc : t -> (string * int) list
(** Every counter as a (name, value) pair, in declaration order. The
    metrics exporter serializes from this — never scrape {!pp}'s
    human-readable output. *)

val pp : Format.formatter -> t -> unit
