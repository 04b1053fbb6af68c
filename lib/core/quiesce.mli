(** Quiescence mechanism (paper Section 3.4).

    An alternative to non-transactional barriers that restores
    privatization safety (Figures 1 and 4b) without solving the general
    isolation problems — reproducing the paper's discussion.

    - {b Eager versioning}: a committing transaction may complete only
      when every other in-flight transaction has reached a consistent
      state (successfully re-validated, aborted, or finished) {e after}
      the committer bumped the global epoch. A doomed transaction
      re-validates at its next STM operation, fails, and rolls back first
      — so privatizing transactions never race with rollback writes.
    - {b Lazy versioning}: committed transactions apply their write-backs
      strictly in commit order (a ticket lock); a transaction completes
      only when all previously serialized transactions have finished
      flushing, so post-transaction code sees their updates. *)

type t

val create : unit -> t

val reset : t -> unit
(** Back to what {!create} gives, for a context reused by the next run. *)

(** {1 Participant registry} *)

type participant

val register : t -> participant
(** Called at transaction begin. *)

val deregister : t -> participant -> unit
(** Called at commit completion or abort completion. *)

val mark_consistent : t -> participant -> unit
(** Called by a transaction right after a successful validation: records
    that it is consistent as of the current epoch. *)

val commit_epoch_wait : t -> participant -> unit
(** Eager commit protocol: bump the epoch and block (yield-spin) until
    every other registered participant is consistent as of the new epoch
    or has deregistered. *)

(** {1 Ordered write-back (lazy)} *)

val take_ticket : t -> int

val await_turn : t -> int -> unit
(** Block until all earlier tickets have been retired. *)

val retire_ticket : t -> int -> unit
