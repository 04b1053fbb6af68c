(** Transaction descriptors and the transactional access protocol.

    The engine implements both version-management policies the paper
    analyses:

    - {b Eager} (McRT-STM, the paper's base system): optimistic read
      versioning, strict two-phase locking for writes, in-place updates
      with an undo log. Aborts roll the undo log back in place — these
      rollback stores are exactly the "manufactured writes" behind the
      speculative lost update / dirty read anomalies of Section 2.2.
    - {b Lazy}: writes go to a private buffer at granule granularity;
      commit acquires the records, validates, then writes back after the
      serialization point — the write-back window behind the ordering
      anomalies of Section 2.3.
    - {b Mvcc}: multi-version — reads are served from per-granule version
      chains as of a begin-time snapshot and take no ownership; writes are
      buffered and installed first-committer-wins at commit under a global
      commit clock (see {!Stm_mvcc.Mvcc}). Read-only transactions
      serialize at their snapshot point and commit validation-free — they
      are abort-free (up to the version-chain bound of
      {!Stm_mvcc.Mvcc.create}, 8 versions per granule). Under
      {!Config.Serializable} an update transaction's commit additionally
      re-checks that every read granule is still current;
      under {!Config.Snapshot} it does not, admitting write skew.

    Undo-log entries and write-buffer slots cover
    {!Config.t.granule}-field granules, so setting [granule > 1]
    reproduces the coarse-grained-versioning anomalies of Section 2.4
    (granular lost updates / inconsistent reads).

    Closed nesting is implemented by flattening (subsumption); open
    nesting runs an independent transaction while the parent is paused
    (see {!Stm.atomic_open}). *)

open Stm_runtime

type ctx
(** The STM state of a run: configuration, counters, quiescence registry,
    transaction-id allocator, txid registry, snapshot tables and the
    descriptor pool. One context serves run after run: {!reset} starts a
    run, {!release} ends it, and descriptors keep their arenas and
    indexes at their grown size in between. *)

val create : unit -> ctx
(** A released context, before its first {!reset}. *)

val reset : ctx -> Config.t -> unit
(** Start a run under the configuration: the context then holds what a
    context built for it from nothing would - txid counter, global
    clock, quiescence registry, snapshot tables and txid registry empty,
    fresh {!stats}, and a contention manager whose generator starts
    from [cm_seed] - so every txid, decision and footprint of the run is
    the same. Reports no footprint. Call it on a released context. *)

val release : ctx -> unit
(** End a run: every descriptor goes back to the pool, including those
    still running when the run stopped. Each one the run used has its
    object slots, slot buffers and contention slot cleared up to the
    run's high-water mark, so the context holds nothing of the finished
    run's heap; its arenas and indexes keep their size. *)

val cfg : ctx -> Config.t
val stats : ctx -> Stats.t

val cm : ctx -> Stm_cm.Cm.t
(** The run's contention manager (built from {!Config.t.cm}); the
    {!Stm.atomic} attempt loop consults it for inter-attempt backoff. *)

val mvcc : ctx -> Stm_mvcc.Mvcc.t
(** The run's snapshot registry (only used under {!Config.Mvcc}; the
    non-transactional strong-atomicity write barrier also installs
    versions through it). *)

val gvc : ctx -> Gvc.t
(** The run's global commit clock, shared between the mvcc machinery and
    {!Config.Timestamp} validation. Advanced by mvcc update commits, by
    eager/lazy update commits under [Timestamp], and by strong
    non-transactional writes (versioned installs under mvcc, the
    {!Barriers.write} release under [Timestamp]). *)

type t
(** A transaction descriptor. *)

exception Abort_txn
(** Internal control flow: the current transaction must abort (conflict,
    failed validation, or retry budget exhausted). The [atomic] runner in
    {!Stm} catches it, calls {!abort}, backs off and re-executes. *)

exception Retry_request
(** Raised by the user-visible [retry] operation. *)

exception Open_nest_conflict
(** An open-nested transaction tried to acquire a record owned by one of
    its ancestors (unsupported, as in most open-nesting designs). *)

val none : t
(** The descriptor that never runs: {!Stm}'s "no transaction" entry, and
    what the context's txid registry answers for a txid that is not
    live. Never pass it to the functions below except as [~parent]. *)

val begin_txn : ctx -> parent:t -> slot:Stm_cm.Cm.slot -> t
(** Begin an incarnation of an atomic block and register its txid.
    [parent] is the open-nesting parent, or {!none} at top level. [slot]
    is the block's contention slot, {!Stm_cm.Cm.no_slot} at the block's
    first incarnation: the new descriptor then carries a fresh slot
    ({!slot}), born at this begin, which the caller hands to every later
    incarnation of the block. *)

val fresh_descriptor : unit -> t
(** A descriptor as {!begin_txn} builds one when the context's pool is
    empty, which happens only until the process has run as many
    transactions at once as it ever will; exposed so tests can count its
    words. *)

val slot : t -> Stm_cm.Cm.slot
(** The contention slot of the transaction's atomic block. *)

(** [set_abort_cause t c] records why the upcoming {!abort} happens (the
    abort sites inside this module set it themselves; {!Stm} sets it for
    user-level [retry] and for exceptions escaping the atomic block).
    Reported in the {!Trace.Txn_abort} event. *)
val set_abort_cause : t -> Trace.abort_cause -> unit

val txn_read : ctx -> t -> Heap.obj -> int -> Heap.value
(** Transactional load (open-for-read + read). May raise {!Abort_txn}. *)

val txn_write : ctx -> t -> Heap.obj -> int -> Heap.value -> unit
(** Transactional store (open-for-write + write). May raise {!Abort_txn}. *)

val validate : ctx -> t -> bool
(** Re-check every read-set entry against the current records. Under
    {!Config.Timestamp} (eager/lazy) this is O(1) when the global commit
    clock has not moved since the last successful full walk; otherwise
    one walk runs and, on success, advances the transaction's read
    timestamp to the observed clock. *)

val commit : ctx -> t -> unit
(** Validate, run the quiescence protocol if configured, write back (lazy)
    and release ownership. Raises {!Abort_txn} on validation failure
    {e without} cleaning up — the caller must then call {!abort}. *)

val abort : ctx -> t -> unit
(** Roll back (eager) or discard the buffer (lazy), release ownership with
    a version bump, update counters, and bank the lost work in the block's
    slot. Whether the block runs again, and with which slot, is the
    caller's decision. *)

val reads_snapshot : t -> (Heap.obj * int) list
(** Read set as (object, observed version) pairs; used by the [retry]
    wait loop. *)
