(** STM system configuration.

    A configuration picks one point in the design space the paper
    explores: version management (eager McRT-style vs lazy), atomicity
    (weak vs strong), the dynamic-escape-analysis barrier variants, the
    version-management granularity (Section 2.4), and the quiescence
    alternative (Section 3.4). *)

type versioning =
  | Eager  (** in-place updates + undo log (McRT-STM, the paper's base) *)
  | Lazy  (** private write buffer, write-back after commit *)
  | Mvcc
      (** multi-version: per-granule bounded version chains stamped with
          commit clocks; snapshot reads, buffered writes installed
          first-committer-wins at commit (see {!Stm_mvcc.Mvcc}) *)

type isolation =
  | Serializable
      (** mvcc commits additionally validate that every read granule is
          still current — except for read-only transactions, which
          serialize at their snapshot point and commit validation-free *)
  | Snapshot
      (** first-committer-wins only: write skew and long fork are
          admitted, dirty reads and lost updates are not. Meaningful only
          under {!Mvcc}; the single-version backends ignore it. *)

type validation =
  | Incremental
      (** every validation walks the whole read set (the paper's
          scheme); the seed-identical default *)
  | Timestamp
      (** TL2/TinySTM-style global-commit-clock validation for the
          eager/lazy backends: transactions carry a read timestamp [rv]
          and a [last_validated_at] watermark; a validation whose clock
          observation matches the watermark is O(1), a read of a granule
          stamped newer than [rv] attempts timestamp extension (one walk,
          then advance [rv]) instead of aborting, and read-only
          transactions commit without a validation walk, serializing at
          [rv]. A no-op under {!Mvcc}, whose snapshot protocol already
          draws from the same global clock. *)

type conflict_policy =
  | Backoff  (** exponential back-off and retry (the paper's default) *)
  | Raise_error
      (** signal the race by raising {!Conflict.Isolation_violation}
          — the paper's "barriers can aid in debugging" mode *)

type t = {
  versioning : versioning;
  isolation : isolation;  (** mvcc isolation level (default [Serializable]) *)
  validation : validation;
      (** read-set validation scheme (default [Incremental]) *)
  strong : bool;  (** insert non-transactional isolation barriers *)
  strong_reads : bool;
      (** insert read barriers (Figure 16 measures reads only) *)
  strong_writes : bool;
      (** insert write barriers (Figure 17 measures writes only) *)
  dea : bool;  (** dynamic escape analysis: allocate objects private *)
  read_privacy_check : bool;
      (** the optional private-object fast path in the read barrier
          (Figure 10a, italicized instructions) *)
  granule : int;
      (** fields per undo-log / write-buffer granule; 1 = exact field
          granularity, >1 models the coarse-grained versioning of
          Section 2.4 (GLU / GIR anomalies) *)
  detect_nontxn_races : bool;
      (** footnote 2 of Section 3.1: the read barrier can also detect
          conflicts between two non-transactional threads by checking the
          lowest-order bit (a concurrent writer of either kind holds it
          clear); off by default since such races violate no
          transaction's isolation *)
  quiescence : bool;  (** commit-time quiescence (Section 3.4) *)
  conflict : conflict_policy;
  cm : Stm_cm.Policy.t;
      (** contention management between transactions: how an
          open-for-read/-write resolves a record owned by another
          transaction (see {!Stm_cm.Policy}) *)
  cm_seed : int;
      (** seed for the contention manager's randomized-backoff streams *)
  max_txn_retries : int;
      (** per-access back-offs before the contention manager gives up and
          aborts the transaction (the {!Stm_cm.Cm.create} retry budget) *)
  max_txn_restarts : int;
      (** consecutive failed attempts of one atomic block before
          {!Stm.atomic} raises {!Stm.Starved} instead of retrying;
          [0] = retry forever *)
  validate_every : int;
      (** re-validate the read set every N transactional accesses so that
          doomed transactions cannot run unboundedly on inconsistent
          data *)
  cost : Stm_runtime.Cost.t;
}

val base : t
(** Weakly-atomic eager-versioning McRT-style STM: the paper's starting
    point. Strong atomicity and all optimizations off; field-granular
    versioning; back-off conflict policy; suicide contention management. *)

val eager_weak : t
val lazy_weak : t

val eager_strong : t
(** Strong atomicity with no optimizations (the "Strong Atom NoOpts"
    series). *)

val lazy_strong : t

val mvcc_weak : t
(** Multi-version backend, weak atomicity, [Serializable] isolation. *)

val mvcc_strong : t
(** Multi-version backend with strong-atomicity barriers:
    non-transactional reads see the latest committed version,
    non-transactional writes install a fresh version. *)

val with_dea : t -> t
(** Enable dynamic escape analysis (+ read privacy check). *)

val with_granule : int -> t -> t
val with_quiescence : t -> t

val with_cm : Stm_cm.Policy.t -> t -> t
(** Select a contention-management policy. *)

val with_isolation : isolation -> t -> t

val with_validation : validation -> t -> t

val versioning_to_string : versioning -> string
val versioning_of_string : string -> versioning option
val isolation_to_string : isolation -> string
val isolation_of_string : string -> isolation option
val validation_to_string : validation -> string
val validation_of_string : string -> validation option

val pp : Format.formatter -> t -> unit
val describe : t -> string
