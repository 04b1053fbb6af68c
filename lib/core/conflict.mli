(** Conflict manager invoked by the isolation barriers and by
    transactional open-for-read/write when multiple threads contend for a
    transaction record (paper Section 3.2).

    Under {!Config.Backoff} the manager charges an exponentially growing
    virtual-cycle delay and yields so that the record's owner can make
    progress; the caller then retries its barrier. Under
    {!Config.Raise_error} it signals the data race instead — the paper
    notes that barriers can thereby "aid in debugging concurrent
    programs". *)

exception
  Isolation_violation of {
    cls : string;
    oid : int;
    writer : bool;  (** true if the conflicting access was a write *)
  }

val backoff :
  Config.t ->
  Stats.t ->
  attempt:int ->
  writer:bool ->
  delay:int ->
  Stm_runtime.Heap.obj ->
  unit
(** Back off [delay] cycles (or raise). [attempt] is the number of
    failures so far for this access; a transaction's [delay] is its
    contention manager's choice. The cycles charged are accumulated into
    [Stats.backoff_cycles]. *)

val handle :
  Config.t -> Stats.t -> attempt:int -> writer:bool -> Stm_runtime.Heap.obj -> unit
(** {!backoff} for a barrier: [min (base * 2^attempt) cap] cycles,
    salted deterministically with the current simulated thread id so
    that symmetric contenders never back off in lockstep (which would
    livelock). *)
