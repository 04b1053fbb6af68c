(** Non-transactional read and write isolation barriers (paper Section 3,
    Figures 9 and 10).

    These are the paper's contribution made executable: every
    non-transactional access in a strongly-atomic execution goes through
    one of these sequences. The implementations mirror the IA32 barriers
    step by step, with a scheduler yield between the individual memory
    operations so that the simulated machine can interleave a transaction
    at every point the hardware could.

    Read barrier (Figure 9a / 10a): load the record, load the data,
    optionally take the private fast path, test bit 1 for a transactional
    owner, and re-validate that the record did not change.

    Ordering-only read barrier (Section 3.3, used for lazy versioning
    under strong atomicity): a single bit test — it need not re-check the
    record because it only has to order against the most recent committed
    transaction's pending write-backs.

    Write barrier (Figure 9b / 10b): private fast path, atomic
    bit-test-and-reset to acquire Exclusive-anonymous ownership,
    publication of any referenced private object, the store, and the
    [add 9] release that bumps the version and restores Shared. *)

open Stm_runtime

val read : Config.t -> Stats.t -> Heap.obj -> int -> Heap.value
(** Full isolation read barrier. *)

val read_ordering : Config.t -> Stats.t -> Heap.obj -> int -> Heap.value
(** Ordering-only read barrier (Section 3.3). *)

val write :
  gvc:Gvc.t -> Config.t -> Stats.t -> Heap.obj -> int -> Heap.value -> unit
(** Isolation write barrier. [gvc] is the system's global commit clock:
    under [Config.Timestamp] validation the barrier bumps it and stamps
    the granule at release, so transactional readers cannot fast-pass a
    validation over the non-transactional store. *)

val read_latest : Config.t -> Stats.t -> Heap.obj -> int -> Heap.value
(** Strong-atomicity read barrier for the mvcc backend: the latest
    committed version is the current fields (mvcc write-back is
    yield-free), so this is a plain load behind the barrier accounting. *)

val write_versioned :
  Config.t -> Stats.t -> Stm_mvcc.Mvcc.t -> Heap.obj -> int -> Heap.value -> unit
(** Strong-atomicity write barrier for the mvcc backend: installs a fresh
    version at a new commit-clock tick (a one-store committed
    transaction), preserving every live snapshot's view. *)

val acquire_anon :
  ?op:Trace.barrier_op -> Config.t -> Stats.t -> Heap.obj -> int
(** Acquire Exclusive-anonymous ownership of an object's record (the
    prefix of the write barrier, exposed for the JIT's barrier
    aggregation). Returns the word that was replaced. The caller must
    call {!release_anon} with it. Takes the private fast path: if the
    object is private (DEA), returns the private word and acquires
    nothing. *)

val release_anon : Config.t -> Heap.obj -> int -> unit
(** Release ownership acquired by {!acquire_anon} ([add 9]); no-op if the
    word was the private encoding. *)
