(** Contention manager: per-transaction priority state and the decision
    procedure applied at every ownership conflict.

    The manager is independent of the STM core. It models a transaction as
    an {e atomic block} that may run through several incarnations (txids).
    The block's contention state — its birth timestamp, banked karma, and
    its backoff generator — lives in a {!slot} that the block's attempt
    loop owns: the loop gets the slot from {!on_begin} at the block's
    first incarnation, hands it to every later one, and drops it when the
    block commits or gives up for good. This persistence is what makes
    {!Policy.Timestamp} starvation-free and {!Policy.Karma}
    work-conserving.

    The core drives the manager through three hooks ([on_begin],
    [decide], [on_abort]) plus {!restart_delay}, and acts on the
    returned {!decision}; the manager never touches the heap, the
    scheduler, or the trace stream itself. *)

type t

type slot
(** One atomic block's contention state: its thread, the txid of its
    first and of its current incarnation, birth, banked karma, the
    current incarnation's footprint, a pending wound deferral and the
    block's backoff generator. *)

val no_slot : slot
(** Stands for a block that has not begun (pass it to {!on_begin} at the
    first incarnation) and for an anonymous or unknown owner (pass it to
    {!decide}). Never mutated. *)

type decision =
  | Wait  (** Back off for {!delay} cycles, then retry the access. *)
  | Wound
      (** Mark the owning transaction {!victim} (a txid) as killed, then
          back off {!delay} cycles and retry. *)
  | Abort_self  (** Abort the asking transaction immediately. *)

val create : ?seed:int -> max_retries:int -> cost:Stm_runtime.Cost.t -> Policy.t -> t
(** [max_retries] is the per-access attempt budget after which
    self-abort is chosen (except for the oldest transaction under
    {!Policy.Timestamp}, which never gives up). [seed] fixes the
    randomized-backoff streams. *)

val name : t -> string

val on_begin : t -> slot -> tid:int -> txid:int -> now:int -> slot
(** Called at every incarnation's begin. Given {!no_slot} (the block's
    first incarnation) it returns a fresh slot born at [now], seeding the
    slot's generator with one draw from the manager's stream. Given the
    block's slot it starts incarnation [txid] in it and returns it: birth,
    karma and generator are kept. *)

val decide :
  t ->
  slot ->
  owner:slot ->
  owner_txid:int ->
  txid:int ->
  tid:int ->
  attempt:int ->
  work:int ->
  decision
(** The decision procedure applied at every ownership conflict. The
    asker's slot; the owner's slot ({!no_slot} for an anonymous or
    unknown owner); the owning txid, or -1 when the record is held
    anonymously (a non-transactional barrier or a quiescing txn) - txids
    are positive; the asking transaction's txid and scheduler thread;
    [attempt], the consecutive failures for this access so far; and
    [work], the asker's current read+write-set footprint, which is
    recorded in its slot. The decision's backoff and victim stay in the
    manager, read with {!delay} and {!victim} before the asker next
    yields, so a decision allocates nothing. *)

val delay : t -> int
(** The backoff of the last {!decide}: the cycles to wait after [Wait]
    or [Wound], 0 after [Abort_self]. *)

val victim : t -> int
(** The txid the last {!decide} wounded; -1 unless it was [Wound]. *)

val on_abort : slot -> wounded:bool -> work:int -> unit
(** An incarnation of the slot's block aborted. Lost [work] is banked as
    karma. [wounded] records that it was killed by another transaction —
    the block's next {!restart_delay} then includes a step-aside
    deferral so the wounder wins the race for the contested record. *)

val restart_delay : t -> slot -> attempt:int -> int
(** Backoff charged between a conflict-driven abort and the block's next
    incarnation, on the same schedule the policy uses in-transaction.
    After a wound-caused abort the delay includes a step-aside deferral
    sized past the wounder's longest poll interval, so the victim cannot
    re-acquire the contested record first and thrash. *)

val tid_of : slot -> int
(** The scheduler thread running the slot's block; -1 for {!no_slot}.
    The core uses it to stamp abort events with the aggressor's thread
    for the {!Stm_diag} causality graph. *)

val birth : slot -> int
(** Cost clock at the block's first incarnation. *)

val karma : slot -> int
(** Work banked from the block's aborted incarnations. *)

val backoff_delay : Stm_runtime.Cost.t -> attempt:int -> int
(** Deterministic truncated-exponential schedule:
    [min (base * 2^attempt) cap] (exponent clamped at 16). *)

val jittered_delay : Stm_runtime.Cost.t -> tid:int -> attempt:int -> int
(** {!backoff_delay} salted with a per-thread jitter so symmetric
    contenders do not re-collide in lockstep. *)

val string_of_decision : decision -> string
(** ["wait"], ["wound"], or ["abort-self"] — used in trace events. *)
