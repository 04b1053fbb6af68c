(** Event tracing hooks for the STM.

    Structured STM events — transaction lifecycle, conflicts,
    publications, quiescence waits, the completed accesses and
    serialization points a history is built from, and at [Debug] level
    per-access barrier, backoff, validation and contention-manager
    events — go to an ordered {b set of subscribers}, each with its own
    minimum level. {!with_sinks} adds subscribers for the extent of a
    call and restores the previous set on return and on exception, so
    consumers compose instead of overwriting each other: a metrics
    collector at [Info], a history collector at [History] and a recorder
    at [Debug] see exactly what each would see alone.

    {b Guard before building the event.} Every emitter in the library is
    written [if Trace.enabled_at lvl then Trace.emit (Ev ...)], with
    [lvl] the event's {!event_level} ({!enabled} for [Info] events), or
    with the same test made inline over {!eff}: the event is built only
    when some subscriber takes its level. The bus caches the minimum
    level over its subscribers, so the guard is one load and one
    compare: an
    access with no subscriber - or with only [Info] subscribers, for the
    [Debug] and [History] events - allocates nothing; the test suite
    checks that a barrier or transactional access allocates less than
    one word in both cases.

    The DPOR explorer's shared-access reports do not go through this
    bus: {!Stm_runtime.Footprint} is its fast channel, below this
    library and with the explorer as its one owner.

    The [stm_run --trace] CLI subscribes a printer; [--trace-out],
    [--profile-barriers] and [--metrics-out] subscribe the {!Stm_obs}
    recorder, per-site profiler and metrics; the fuzz history collector
    and the store oracle subscribe at [History]; tests subscribe
    collecting functions. *)

(** Event verbosity, from most to least verbose. [Debug] events are
    per-access diagnostics (barrier executions, backoffs, validations,
    contention-manager decisions); [History] events are what a history
    oracle reads per access ({!Access}, {!Txn_serialized}); [Info]
    events fire per transaction or per structural STM action. A
    subscriber at a level receives that level and every less verbose
    one: [Debug] sees everything, [History] sees [History] and [Info]. *)
type level = Debug | History | Info

(** Which access path a {!Barrier} event describes. [Op_read] /
    [Op_read_ordering] / [Op_write] are the non-transactional isolation
    barriers; [Op_txn_read] / [Op_txn_write] are transactional accesses. *)
type barrier_op = Op_read | Op_read_ordering | Op_write | Op_txn_read | Op_txn_write

(** [Path_fired]: the barrier sequence executed. [Path_private]: the DEA
    private-object fast path hit. [Path_elided]: the access ran with no
    barrier (compiler-removed site). *)
type barrier_path = Path_fired | Path_private | Path_elided

(** Why a transaction aborted. *)
type abort_cause =
  | Cause_conflict  (** conflict retry budget exhausted *)
  | Cause_validation  (** read-set validation failed *)
  | Cause_stale_lock
      (** lazy commit-time acquisition found the buffered granule's
          version moved since it was read (the read that seeded the
          write buffer is stale) *)
  | Cause_wounded  (** killed by an older transaction (wound-wait) *)
  | Cause_retry  (** user-initiated [retry] *)
  | Cause_snapshot
      (** an mvcc read needed a version older than the granule's retained
          chain (snapshot too old — the version-chain bound of
          {!Stm_mvcc.Mvcc.create} evicted it) *)
  | Cause_exn  (** an exception escaped the atomic block *)

type event =
  | Txn_begin of { txid : int; tid : int }
  | Txn_commit of { txid : int; tid : int; reads : int; writes : int; latency : int }
      (** [latency] is cost-clock cycles from begin to commit. *)
  | Txn_abort of {
      txid : int;
      tid : int;
      wounded : bool;
      cause : abort_cause;
      latency : int;
      by : int;
          (** aggressor txid: the wounding transaction, or the owner of
              the record whose conflict/validation killed this
              transaction; [-1] when unknown (e.g. user retry) *)
      by_tid : int;  (** aggressor's simulated thread, [-1] unknown *)
      oid : int;
          (** the contended granule the abort is attributed to: the
              object of the last losing conflict, the failing read-set
              entry, or the stale lazily-buffered record; [-1] unknown *)
    }
      (** The [by]/[by_tid]/[oid] attribution fields feed the
          {!Stm_diag} abort-causality graph and contention heatmap. *)
  | Txn_wound of { victim : int; by : int }
  | Conflict of { tid : int; oid : int; cls : string; writer : bool; site : int }
      (** [site] is the source access site ({!Site.current}), [-1] when
          unknown. *)
  | Publish of { oid : int; cls : string }
  | Quiesce_wait of { txid : int }
  | Barrier of { tid : int; site : int; op : barrier_op; path : barrier_path }
  | Backoff of { tid : int; attempt : int; delay : int }
  | Validation of { txid : int; tid : int; ok : bool }
  | Cm_decision of {
      tid : int;
      txid : int;
      policy : string;
      decision : string;  (** ["wait"], ["wound"], or ["abort-self"] *)
      owner : int;  (** owning txid at decision time, [-1] when unknown *)
      delay : int;  (** backoff cycles chosen (0 for abort-self) *)
    }  (** one contention-manager decision (Debug level) *)
  | Access of {
      tid : int;
      txid : int;  (** enclosing transaction id, [-1] for non-transactional *)
      oid : int;
      fld : int;
      value : Stm_runtime.Heap.value;
          (** the value loaded / stored, at the point the access completed *)
      write : bool;
    }
      (** One completed memory access with its location and value
          ([History] level). Transactional accesses carry the transaction id so that
          per-transaction read/write sets can be reconstructed from the
          event stream; non-transactional accesses ([txid = -1]) are
          emitted at their linearization point — after the heap update and
          before any preemption point — so the global event order is the
          memory-visibility order. The serializability oracle
          ({!Stm_check.History}) is built entirely on these events. *)
  | Txn_serialized of { txid : int; tid : int }
      (** The transaction passed its commit-time validation and can no
          longer abort: this is the serialization point ([History]
          level).
          Under lazy versioning it precedes the write-back window, so the
          order of these events — not of {!Txn_commit}, which fires after
          write-back — is the order in which transactions logically
          committed. *)

val event_level : event -> level
(** Intrinsic level of an event kind: [Barrier], [Backoff],
    [Validation] and [Cm_decision] are [Debug]; [Access] and
    [Txn_serialized] are [History]; the rest are [Info]. *)

val with_sinks : (level * (event -> unit)) list -> (unit -> 'a) -> 'a
(** [with_sinks subs body] runs [body] with [subs] appended to the
    current subscriber set, then restores the previous set — on return
    and on exception alike. Each subscriber receives the events at its
    own level and every less verbose one; with only [Info] subscribers
    no per-access event is even built. *)

val set_sink : ?level:level -> (event -> unit) option -> unit
(** Replace the whole subscriber set with one subscriber at [level]
    (default [Debug]), or with none. Unscoped: kept only for
    [bench/e2e/stm_e2e.ml]; everything else uses {!with_sinks}. *)

val emit : event -> unit
(** Deliver the event to each subscriber that accepts its
    {!event_level}, in subscription order. The event is already built
    when [emit] sees it, so the call site guards its construction: it
    tests {!enabled_at} of the event's level ({!enabled} for [Info])
    first and builds the event only when that holds. *)

val enabled : unit -> bool
(** Whether any subscriber is installed. *)

val enabled_at : level -> bool
(** Whether some subscriber accepts events of this level. *)

val eff : int ref
(** The level word: the lowest rank any subscriber takes, where [Debug]
    is 0, [History] 1 and [Info] 2, and 3 when there is no subscriber.
    So [enabled_at Debug] is [!eff = 0], [enabled_at History] is
    [!eff <= 1], and [enabled ()] (as [enabled_at Info]) is [!eff < 3].
    The modules on the per-access path make these tests inline over
    this word instead of calling {!enabled_at}, as they charge cycles
    over [Stm_runtime.Sched.reg]. Read it, never write it: the
    subscriber functions above keep it. *)

val string_of_cause : abort_cause -> string
val string_of_op : barrier_op -> string
val string_of_path : barrier_path -> string

val pp_event : Format.formatter -> event -> unit
(** Render one event (used by the CLI's printing subscriber). *)
