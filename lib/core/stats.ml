type t = {
  mutable commits : int;
  mutable aborts : int;
  mutable txn_reads : int;
  mutable txn_writes : int;
  mutable barrier_reads : int;
  mutable barrier_writes : int;
  mutable barrier_private_hits : int;
  mutable atomic_ops : int;
  mutable conflicts : int;
  mutable publishes : int;
  mutable validations : int;
  mutable fast_validations : int;
  mutable ts_extensions : int;
  mutable ro_fast_commits : int;
  mutable retries : int;
  mutable wounds : int;
  mutable backoff_cycles : int;
  mutable quiesce_waits : int;
}

let create () =
  {
    commits = 0;
    aborts = 0;
    txn_reads = 0;
    txn_writes = 0;
    barrier_reads = 0;
    barrier_writes = 0;
    barrier_private_hits = 0;
    atomic_ops = 0;
    conflicts = 0;
    publishes = 0;
    validations = 0;
    fast_validations = 0;
    ts_extensions = 0;
    ro_fast_commits = 0;
    retries = 0;
    wounds = 0;
    backoff_cycles = 0;
    quiesce_waits = 0;
  }

let reset t =
  t.commits <- 0;
  t.aborts <- 0;
  t.txn_reads <- 0;
  t.txn_writes <- 0;
  t.barrier_reads <- 0;
  t.barrier_writes <- 0;
  t.barrier_private_hits <- 0;
  t.atomic_ops <- 0;
  t.conflicts <- 0;
  t.publishes <- 0;
  t.validations <- 0;
  t.fast_validations <- 0;
  t.ts_extensions <- 0;
  t.ro_fast_commits <- 0;
  t.retries <- 0;
  t.wounds <- 0;
  t.backoff_cycles <- 0;
  t.quiesce_waits <- 0

let to_assoc t =
  [
    ("commits", t.commits);
    ("aborts", t.aborts);
    ("txn_reads", t.txn_reads);
    ("txn_writes", t.txn_writes);
    ("barrier_reads", t.barrier_reads);
    ("barrier_writes", t.barrier_writes);
    ("barrier_private_hits", t.barrier_private_hits);
    ("atomic_ops", t.atomic_ops);
    ("conflicts", t.conflicts);
    ("publishes", t.publishes);
    ("validations", t.validations);
    ("fast_validations", t.fast_validations);
    ("ts_extensions", t.ts_extensions);
    ("ro_fast_commits", t.ro_fast_commits);
    ("retries", t.retries);
    ("wounds", t.wounds);
    ("backoff_cycles", t.backoff_cycles);
    ("quiesce_waits", t.quiesce_waits);
  ]

let pp ppf t =
  Fmt.pf ppf
    "commits=%d aborts=%d txn_r=%d txn_w=%d bar_r=%d bar_w=%d priv=%d \
     atomics=%d conflicts=%d publishes=%d validations=%d retries=%d \
     wounds=%d backoff=%d quiesce=%d"
    t.commits t.aborts t.txn_reads t.txn_writes t.barrier_reads
    t.barrier_writes t.barrier_private_hits t.atomic_ops t.conflicts
    t.publishes t.validations t.retries t.wounds t.backoff_cycles
    t.quiesce_waits
