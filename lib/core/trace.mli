(** Event tracing hooks for the STM.

    A single optional sink receives structured STM events: transaction
    lifecycle, conflicts, publications, quiescence waits, and — at
    [Debug] level — per-access barrier, backoff, and validation events.

    {b Guard before building the payload.} Every emitter in the library
    is written [if Trace.enabled_at lvl then Trace.emit ~level:lvl (lazy
    ...)] ({!enabled} for [Info] events). The [lazy] alone is not enough
    on a hot path: an unforced [lazy] still allocates its thunk and the
    closure over the payload's fields, about seven words per event.
    Behind the guard, an access with no
    sink installed - or with a sink at [Info], for the [Debug] events -
    costs one load and one branch and allocates nothing; the test suite
    checks that a barrier or transactional access allocates less than one
    word with tracing off.

    The [stm_run --trace] CLI installs a printing sink; [--trace-out] and
    [--profile-barriers] install the {!Stm_obs} recorder and per-site
    profiler; tests install collecting sinks. *)

(** Event verbosity. [Debug] events fire on every memory access (barrier
    executions, backoffs, validations); [Info] events fire per
    transaction or per structural STM action. *)
type level = Debug | Info

val level_ge : level -> level -> bool
(** [level_ge a b] is true when an event of level [a] passes a sink
    filtering at minimum level [b] ([Info] passes everything, [Debug]
    passes only a [Debug] sink). *)

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
          chain (snapshot too old — the [mvcc_max_versions] bound evicted
          it) *)
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
      (** One completed memory access with its location and value (Debug
          level). Transactional accesses carry the transaction id so that
          per-transaction read/write sets can be reconstructed from the
          event stream; non-transactional accesses ([txid = -1]) are
          emitted at their linearization point — after the heap update and
          before any preemption point — so the global event order is the
          memory-visibility order. The serializability oracle
          ({!Stm_check.History}) is built entirely on these events. *)
  | Txn_serialized of { txid : int; tid : int }
      (** The transaction passed its commit-time validation and can no
          longer abort: this is the serialization point (Debug level).
          Under lazy versioning it precedes the write-back window, so the
          order of these events — not of {!Txn_commit}, which fires after
          write-back — is the order in which transactions logically
          committed. *)

val event_level : event -> level
(** Intrinsic level of an event kind (per-access events are [Debug]). *)

val set_sink : ?level:level -> (event -> unit) option -> unit
(** Install (or remove) the global sink. [level] (default [Debug]) is the
    minimum level delivered: a sink installed at [Info] suppresses the
    per-access events without being uninstalled — and without their lazy
    payloads ever being forced. *)

val emit : ?level:level -> event Lazy.t -> unit
(** Deliver the event to the sink if one is installed and accepts
    [level] (default [Info]). Emitters must pass the same level
    {!event_level} assigns to the payload, and guard the call with
    {!enabled_at} so that the payload is not even allocated when the
    event would be filtered out. *)

val enabled : unit -> bool

val enabled_at : level -> bool
(** Whether a sink is installed that accepts events of this level. *)

val string_of_cause : abort_cause -> string
val string_of_op : barrier_op -> string
val string_of_path : barrier_path -> string

val pp_event : Format.formatter -> event -> unit
(** Render one event (used by the CLI's printing sink). *)
