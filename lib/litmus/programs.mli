(** The litmus programs of the paper's Figures 1-5.

    Each program is a two-thread race whose anomalous outcome is
    impossible in any sequentially-consistent execution of the program's
    critical sections, yet reachable under particular STM implementations.
    The explorer decides reachability per execution mode, regenerating the
    Figure 6 matrix. *)

type t = {
  name : string;
  figure : string;  (** paper figure, e.g. "3a" *)
  group : string;  (** Figure 6 grouping: "NW-TR", "NW-TW" or "NR-TW" *)
  anomaly : string;  (** human description of the anomalous outcome *)
  needs_granule : int;
      (** versioning granularity required to express the anomaly (2 for
          the Section 2.4 programs, else 1) *)
  is_anomalous : string -> bool;
  build : Modes.harness -> Explorer.instance;
}

val non_repeatable_read : t  (** Figure 2a (NR) *)

val intermediate_dirty_read : t  (** Figure 2c (IDR) *)

val speculative_lost_update : t  (** Figure 3a (SLU) *)

val speculative_dirty_read : t  (** Figure 3b (SDR) *)

val overlapped_writes : t  (** Figure 4a (MI, non-txn read vs txn write) *)

val granular_lost_update : t  (** Figure 5a (GLU) *)

val granular_inconsistent_read : t  (** Figure 5b (GIR) *)

val privatization : t
(** Figure 1: the linked-list privatization idiom. Not a Figure 6 row on
    its own (its eager manifestation is SDR, its lazy one MI) but the
    paper's motivating example; also exercised with quiescence. *)

val write_read_nr : t
(** Section 2.1 text: a transaction's write-then-read of the same
    location can fail to read back its own value under eager-weak
    atomicity (a non-transactional write lands in between). *)

val txn_dirty_read : t
(** Section 4's doomed-transaction discussion: a transaction may read
    another transaction's speculative data, but those values must never
    survive into a committed transaction's observations, under any mode
    (an all-"no" row: transactional isolation holds even under weak
    atomicity). *)

val long_fork : t
(** Two independent writers, two read-only observers seeing them in
    opposite orders. Admitted by the SI oracle (PSI shape) but
    unreachable at runtime: the global commit clock totally orders the
    writers. An all-"no" row. *)

val read_only_snapshot : t
(** A read-only transaction must never observe a torn two-location
    invariant, under any backend or isolation level. *)

val extras : t list
(** The two extra litmus programs above. *)

val si_rows : t list
(** The snapshot-isolation litmus programs: write skew, long fork,
    read-only snapshot. *)

val fig6_rows : t list
(** The nine programs backing the nine Figure 6 anomaly rows, in the
    paper's row order. *)

val all : t list
