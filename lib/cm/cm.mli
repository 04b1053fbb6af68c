(** Contention manager: per-transaction priority state and the decision
    procedure applied at every ownership conflict.

    The manager is independent of the STM core. It models a transaction as
    an {e atomic block} that may run through several incarnations (txids):
    the block's contention state — its birth timestamp, banked karma, and
    its backoff generator — survives aborts and is only discarded when the
    block commits or its thread gives up for good. This persistence is what
    makes {!Policy.Timestamp} starvation-free and {!Policy.Karma}
    work-conserving.

    The core drives the manager through four hooks ([on_begin],
    [on_conflict], [on_abort], [on_commit]) and acts on the returned
    {!decision}; the manager never touches the heap, the scheduler, or the
    trace stream itself. *)

type t

type decision =
  | Wait of int
      (** Back off for this many cycles, then retry the access. *)
  | Wound of { victim : int; delay : int }
      (** Mark the owning transaction [victim] (a txid) as killed, then
          back off [delay] cycles and retry. *)
  | Abort_self  (** Abort the asking transaction immediately. *)

type conflict = {
  txid : int;  (** asking transaction *)
  tid : int;  (** its scheduler thread *)
  attempt : int;  (** consecutive failures for this access so far *)
  writer : bool;  (** open-for-write vs. open-for-read *)
  work : int;  (** current read+write-set footprint of the asker *)
  owner : int option;
      (** owning txid, or [None] when the record is held anonymously
          (a non-transactional barrier or a quiescing txn) *)
  now : int;  (** asking thread's cost clock *)
}

val create : ?seed:int -> max_retries:int -> cost:Stm_runtime.Cost.t -> Policy.t -> t
(** [max_retries] is the per-access attempt budget after which
    self-abort is chosen (except for the oldest transaction under
    {!Policy.Timestamp}, which never gives up). [seed] fixes the
    randomized-backoff streams. *)

val policy : t -> Policy.t
val name : t -> string

val on_begin : t -> tid:int -> txid:int -> now:int -> unit
(** Called at transaction begin. If the thread's most recent block
    aborted with [restart:true], the new incarnation inherits that
    block's slot (birth, karma, rng); otherwise a fresh slot is
    created with birth [now]. *)

val on_conflict : t -> conflict -> decision

val on_abort : t -> txid:int -> restart:bool -> wounded:bool -> work:int -> unit
(** [restart] is true when the enclosing atomic block will be retried
    (the slot survives); false when it is torn down for good (an escaping
    exception or a starved runner) and the slot is discarded. [wounded]
    records that this incarnation was killed by another transaction —
    its next restart is deferred so the wounder wins the race for the
    contested record. Lost [work] is banked as karma either way. *)

val on_commit : t -> txid:int -> unit

val tid_of : t -> txid:int -> int
(** The scheduler thread running [txid]'s atomic block, while the block
    is live (between its [on_begin] and its [on_commit] / final
    [on_abort]); -1 otherwise. The core uses it to stamp abort events with the
    aggressor's thread for the {!Stm_diag} causality graph. *)

val restart_delay : t -> tid:int -> attempt:int -> int
(** Backoff charged between a conflict-driven abort and the block's next
    incarnation, on the same schedule the policy uses in-transaction.
    After a wound-caused abort the delay includes a step-aside deferral
    sized past the wounder's longest poll interval, so the victim cannot
    re-acquire the contested record first and thrash. *)

val backoff_delay : Stm_runtime.Cost.t -> attempt:int -> int
(** Deterministic truncated-exponential schedule:
    [min (base * 2^attempt) cap] (exponent clamped at 16). *)

val jittered_delay : Stm_runtime.Cost.t -> tid:int -> attempt:int -> int
(** {!backoff_delay} salted with a per-thread jitter so symmetric
    contenders do not re-collide in lockstep. *)

val string_of_decision : decision -> string
(** ["wait"], ["wound"], or ["abort-self"] — used in trace events. *)
