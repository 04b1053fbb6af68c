(** Hash-partitioned in-memory key-value store on the simulated heap.

    The store is the repository's first open-workload data service: a
    fixed number of {e shards}, each a chained hash table of entry
    objects plus a one-object shard header carrying a commit sequence
    number and an entry count. Every bucket head, entry and header is an
    ordinary {!Stm_runtime.Heap} object, so the paper's whole barrier
    machinery applies unchanged: conflict detection is per-object (one
    transaction record per entry / per shard table / per header),
    exactly the granularity Section 3.1 compiles to.

    {2 Concurrency disciplines}

    The {!Stm_core.Mode.t} the store is created with fixes how operations
    synchronize:
    - [Stm p]: structural and multi-key operations ({!insert},
      {!delete}, {!rmw}, {!multi_get}, {!scan}) run inside
      {!Stm_core.Stm.atomic}; single-key {!get}, {!put} and {!add} run
      as {e non-transactional} heap accesses. At a strong or dea point
      the isolation barriers make that mixed traffic safe (on the
      multi-version backends, non-transactional accesses see and
      produce the latest committed version); at a weak or quiesce point
      it exhibits the paper's Figure 6 anomalies on real store
      operations (the workload engine measures them).
    - [Locks]: the "Synch" baseline — every operation takes the shard
      mutex(es) (in ascending shard order for multi-shard operations)
      and accesses memory through the barrier-elided
      [read_nobarrier]/[write_nobarrier] path.

    {!Stm_core.Mode.isolated} picks the modes held to exactness: the
    engine's update deviation must be zero and recorded runs must
    certify serializable.

    Mutating transactions first bump their shard's sequence number, so
    writers within one shard serialize on the header granule while
    writers in different shards proceed independently — the scaling
    axis the shard-count knob exposes. {!multi_get} and {!scan} read
    the headers of every shard they touch (a snapshot-validation read),
    so read transactions detect concurrent shard mutation through
    ordinary read-set validation.

    All operations must be called from inside a running simulation with
    an installed STM system (i.e. within [Stm.run]'s main function). *)

open Stm_runtime

type t

val create :
  ?buckets:int ->
  ?value_size:int ->
  mode:Stm_core.Mode.t ->
  shards:int ->
  keys:int ->
  value:(int -> int) ->
  cost:Cost.t ->
  unit ->
  t
(** A store preloaded with keys [0 .. keys-1], key [k] holding
    [value k]: the shard tables and headers (and, in [Locks] mode, the
    shard mutexes), then one entry per key. [buckets] is per shard
    (default 64); [value_size] (default 4) is the number of heap words
    a value occupies — writes touch all of them, models payload size.
    [cost] prices the lock operations of [Locks] mode (pass the run
    configuration's cost model).

    Each table and header is charged the configuration's allocation
    cost, as {!Stm_core.Stm.alloc_public} charges it; the entries are
    written through raw heap stores — no barriers, no cost, no trace
    events — so setup is free and the measured window sees a fully
    loaded store.

    {b The kept image.} The last store built is kept: its objects, the
    fields the preload left in them, and its oid maps. A later [create]
    with the same [shards], [buckets], [value_size], preload values and
    [Locks]-or-STM mode, whose run's oid counter stands where the kept
    build's started and that has no {!Stm_runtime.Footprint} sink
    installed, reissues those objects ({!Stm_runtime.Heap.reissue})
    instead of allocating new ones: the same oids, the same clock
    charges, the same fields, fresh transaction records and version
    chains, fresh shard mutexes. A run cannot tell it from a build. Any
    other [create] builds, and its store becomes the kept image. So a
    store is valid until the next [create] that reissues its image: a
    caller keeps no store across runs. *)

(** {1 Operations}

    Value arguments and results are the first value word; the remaining
    [value_size - 1] words are written with the same value. *)

val get : t -> int -> int option
(** Non-transactional single-key read ([Locks]: under the shard lock). *)

val put : t -> int -> int -> bool
(** Non-transactional blind update of an existing key's value words.
    Falls back to a transactional {!insert} when the key is absent;
    returns [true] if it inserted. *)

val add : t -> int -> int -> int option
(** Unsynchronized non-transactional read-modify-write: read the value,
    write value[+d] back. Atomic under [Locks] (takes the shard lock).
    In an {!Stm_core.Mode.isolated} STM mode each of the two accesses is
    isolated from transactions but the {e pair} is not atomic —
    value-preserving concurrent writers (the engine's anomaly-profile
    discipline) keep it exact, value-changing ones do not. In the other
    modes it additionally
    sees the TM's speculative state and rollbacks — the workload
    engine's lost-update witness. [None] when the key is absent. *)

val rmw : t -> int -> f:(int -> int) -> int option
(** Transactional read-modify-write: atomically bump the shard seqno,
    read the value, write [f value]. [None] when the key is absent
    (the seqno bump still commits). *)

val insert : t -> int -> int -> bool
(** Transactional find-or-insert; updates in place when the key exists.
    Returns [true] when a new entry was linked. *)

val delete : t -> int -> bool
(** Transactional unlink. [false] when the key was absent. *)

val multi_get : t -> int array -> int option array
(** One atomic block reading every key (plus the header seqno of every
    shard involved). *)

val scan : t -> int -> len:int -> int
(** One atomic block reading keys [k .. k+len-1]; returns how many were
    present. *)

(** {1 Post-run inspection (raw heap reads, no barriers)} *)

val fold : t -> init:'a -> f:('a -> int -> int -> 'a) -> 'a
(** Fold over live entries as [(key, first value word)] in a
    deterministic order (shard-ascending, bucket-ascending, chain
    order). *)

val entry_count : t -> int

val check_invariants : t -> string list
(** Structural integrity sweep: every entry hashes to the shard and
    bucket its chain belongs to, no shard holds a key twice, chains are
    acyclic, and each shard header's entry count equals the entries
    actually reachable. Returns human-readable violations ([] = ok), in
    shard, bucket and chain order, each shard's count last. The
    duplicate check marks keys in a key-indexed stamp array that every
    sweep of the store (and of a store reissued from its image) reuses:
    no table to build or clear per sweep or per shard.
    Holds in every mode — structure is only ever mutated inside
    transactions (or under the shard lock) — so a violation means the
    STM itself miscompiled an update. *)

val table : t -> int -> Heap.obj
(** Shard [s]'s bucket table: field [b] is the head of bucket [b]'s
    chain ([Vnull] when empty). An entry's field 0 is its key and field
    1 the next link. For audits and for tests that corrupt a store on
    purpose through raw {!Stm_runtime.Heap.set}. *)

val header : t -> int -> Heap.obj
(** Shard [s]'s header: field 0 the commit seqno, field 1 the entry
    count {!check_invariants} compares with the reachable entries. *)

val fld_val : int
(** Field index of an entry object's first value word, the one {!get}
    returns. *)

val key_of_oid : t -> int -> int option
(** Map an entry object id back to its key (the diag heatmap's hot
    granules become hot keys through this). Entries allocated by
    aborted insert attempts stay mapped; dead oids simply never show
    up again. *)

val shard_of_oid : t -> int -> int option
(** Map any store-owned object id (entry, shard table or header) to its
    shard — per-shard abort attribution. *)

val shard_of_key : t -> int -> int
