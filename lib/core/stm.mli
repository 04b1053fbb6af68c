(** Public API of the strong-atomicity STM.

    Typical use:

    {[
      let cfg = Stm_core.Config.(with_dea eager_strong) in
      let result, stats =
        Stm_core.Stm.run ~cfg (fun () ->
            let acct = Stm_core.Stm.alloc ~cls:"Account" 2 in
            Stm_core.Stm.atomic (fun () ->
                Stm_core.Stm.write acct 0 (Vint 100)))
      in
      ...
    ]}

    {!read} and {!write} are context-sensitive, exactly like compiled
    memory accesses in the paper's system: inside a transaction they run
    the transactional open-for-read / open-for-write protocol; outside
    they run the configured non-transactional path — direct access under
    weak atomicity, isolation barriers under strong atomicity. *)

open Stm_runtime

exception Not_installed
exception Retry_outside_transaction

exception Starved of { attempts : int }
(** Raised by {!atomic} when {!Config.t.max_txn_restarts} is positive and
    that many consecutive attempts of one atomic block all aborted: the
    block is starving and the caller gets a clean error instead of an
    unbounded retry loop. [attempts] is the number of failed attempts. *)

(** {1 System lifecycle} *)

val install : Config.t -> unit
(** Install a fresh STM system (configuration + statistics + quiescence
    registry). Raises [Invalid_argument] for inconsistent configurations
    (e.g. DEA without strong atomicity). *)

val uninstall : unit -> unit
val installed : unit -> bool
val config : unit -> Config.t
val stats : unit -> Stats.t
(** Live statistics of the installed system. *)

val run :
  ?policy:Sched.policy ->
  ?max_steps:int ->
  cfg:Config.t ->
  (unit -> unit) ->
  Sched.result * Stats.t
(** [run ~cfg main] resets the heap, installs the system, executes [main]
    as simulated thread 0 and returns the scheduler result together with a
    snapshot of the statistics. *)

(** {1 Allocation} *)

val alloc : cls:string -> int -> Heap.obj
(** Allocate an object with [n] fields. Private when DEA is enabled,
    public otherwise. *)

val alloc_array : int -> Heap.value -> Heap.obj

val alloc_public : cls:string -> int -> Heap.obj
(** Always public — used for objects handed to other threads out of band
    (e.g. thread objects, which the paper publishes before spawn). *)

(** {1 Memory accesses} *)

val read : Heap.obj -> int -> Heap.value
val write : Heap.obj -> int -> Heap.value -> unit

val read_nobarrier : Heap.obj -> int -> Heap.value
(** Non-transactional access with the barrier statically removed (what the
    compiler emits for sites proven safe by the NAIT analysis). Inside a
    transaction it still performs the transactional protocol. *)

val write_nobarrier : Heap.obj -> int -> Heap.value -> unit

(** {1 Transactions} *)

val atomic : (unit -> 'a) -> 'a
(** Run the function as a transaction; retries on conflict, with the
    configured contention manager ({!Config.t.cm}) choosing the
    inter-attempt backoff. Nested calls flatten (closed nesting by
    subsumption). An exception escaping the function aborts the
    transaction and is re-raised. Raises {!Starved} when a positive
    {!Config.t.max_txn_restarts} budget is exhausted.

    The block owns one contention slot ({!cm_slot}) from its first
    incarnation on: conflict restarts and {!retry} keep it, so the block
    keeps its birth, karma and backoff stream; the thread's next block,
    after a commit, an escaping exception or {!Starved}, gets a fresh
    one. *)

val atomic_open : (unit -> 'a) -> 'a
(** Open-nested transaction: runs and commits independently while the
    parent is paused, with its own contention slot; its restarts leave the
    parent's slot alone. A {!retry} inside it aborts it and propagates to
    the parent. Accessing data owned by an ancestor raises
    {!Txn.Open_nest_conflict}. Outside a transaction it is {!atomic}. *)

val cm_slot : unit -> Stm_cm.Cm.slot
(** The contention slot of the running transaction's atomic block;
    {!Stm_cm.Cm.no_slot} outside a transaction. *)

val retry : unit -> 'a
(** User-initiated retry: abort the current transaction and re-execute it
    once some location in its read set has changed. *)

val in_txn : unit -> bool

val valid : unit -> bool
(** Re-validate the current transaction's read set; [true] outside a
    transaction. A doomed transaction — one that has read inconsistent
    state and will abort — can fault (out-of-bounds index, division by
    zero, null dereference) before its next validation point; runtimes
    catch the fault, call this, and abort-and-retry when it returns
    [false], as the interpreter does. *)

val abort_and_retry : unit -> 'a
(** Raise the internal abort signal: the enclosing [atomic] rolls back and
    re-executes. Must be called inside a transaction. *)

val publish : Heap.obj -> unit
(** Explicitly publish a private object (used for thread objects before
    spawn). No-op when DEA is off or the object is already public. *)

(** {1 Value helpers} *)

val vint : int -> Heap.value
val vbool : bool -> Heap.value
val vref : Heap.obj -> Heap.value
val to_int : Heap.value -> int
(** Raises [Invalid_argument] on non-integers. *)

val to_bool : Heap.value -> bool
val to_obj : Heap.value -> Heap.obj
(** Raises [Invalid_argument] on [Vnull] or non-references. *)

val is_null : Heap.value -> bool
