(** YCSB-style operation mixes for the store workload engine.

    An operation class names both a store API call and its concurrency
    discipline under the STM modes: [Get], [Put] and [Add] run as
    {e non-transactional} accesses (the mixed transactional /
    non-transactional traffic the paper's strong atomicity exists for),
    while [Rmw], [Multi_get], [Scan], [Insert] and [Delete] run inside
    atomic blocks. Under [Lock] mode every class takes its shard
    lock(s) instead. *)

type op =
  | Get  (** single-key read; non-transactional under the STM modes *)
  | Put  (** single-key blind update; non-transactional *)
  | Add
      (** unsynchronized non-transactional read-modify-write (+1) on a
          client-private key slice — the Figure-2b shape that loses
          updates under weak atomicity *)
  | Rmw  (** transactional read-modify-write (+1) *)
  | Touch
      (** transactional value-preserving re-write: reads the value and
          writes it back unchanged. Against a concurrent {!Add} its
          commits are invisible — so any drift it causes (a rollback
          clobbering an interleaved add, an add reading its speculative
          state) is an {e implementation} anomaly, never an application
          race. The anomaly profile is built on this. *)
  | Multi_get  (** transactional batch of point reads *)
  | Scan  (** transactional read of a run of consecutive keys *)
  | Insert  (** transactional insert of a fresh key *)
  | Delete  (** transactional delete *)

val op_name : op -> string

val nontransactional : op -> bool
(** [Get], [Put], [Add]: the classes that run outside atomic blocks
    under the STM modes and therefore pay (only) the isolation
    barriers — the classes the strong-vs-weak overhead comparison
    measures. *)

type t = {
  pname : string;
  aliases : string list;  (** YCSB letter names, etc. *)
  pdescr : string;
  mix : (int * op) list;  (** weights, drawn via {!Stm_runtime.Det_rng.weighted} *)
}

val all : t list

val of_string : string -> t option
(** Accepts the canonical name or any alias, case-insensitively. *)

val read_heavy : t  (** 90% get / 5% multi-get / 5% rmw (YCSB B) *)

val churn : t  (** 85% get / 10% insert / 5% delete (YCSB D-like) *)

val write_heavy : t  (** 10% get / 40% put / 40% rmw / 10% insert *)

val batch_mix : t  (** 50% multi-get / 30% get / 20% rmw *)

val anomaly : t
(** 50% transactional value-preserving {!Touch} / 50% non-transactional
    {!Add} on the same hot keys: the store-traffic rendition of the
    paper's Figure 6 lost-update and dirty-read anomalies. The touches
    never change a value and each key's adds all come from one client,
    so the application itself is race-free: under strong atomicity (or
    locks) the final key-sum equals the number of committed increments
    {e exactly}, while under weak atomicity eager rollback clobbers
    interleaved adds and adds read speculative state — the key-sum
    drifts, and every unit of drift is the TM implementation's doing. *)

val counts_increments : t -> bool
(** Whether every write in the mix is a +1 increment ([Rmw]/[Add] only),
    making the final key-sum checkable against the increment count. *)

val structural : t -> bool
(** Whether the mix contains [Insert] or [Delete] (excluded from
    oracle-recorded runs, whose final-state check wants a stable key
    population). *)
