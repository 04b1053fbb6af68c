(** The history collector: a History-level trace subscriber that folds
    the runtime's {!Stm_core.Trace.Access}, [Txn_begin],
    [Txn_serialized], [Txn_commit] and [Txn_abort] events into a
    {!History.history}. Both {!Exec} (fuzz programs) and the store
    audit ([Stm_store.Engine]'s record mode) subscribe it.

    One node per committed transaction, stamped at its serialization
    point, and one per non-transactional access, stamped at its
    linearization point; under a multi-version configuration a
    read-only transaction is stamped at its snapshot instead. Aborted
    attempts are dropped: a value observed from one has no committed
    writer and surfaces as a dirty read. A transaction none of whose
    accesses maps to a location leaves no node. *)

type t

val no_loc : History.loc
(** "Not a recorded location": the [loc] mapping's answer for an access
    the history leaves out. Compared with [==]. *)

val no_value : History.value
(** "Not a recorded value", likewise. *)

val create :
  cfg:Stm_core.Config.t ->
  loc:(int -> int -> History.loc) ->
  value:(Stm_runtime.Heap.value -> History.value) ->
  t
(** [loc oid fld] is the history location of a heap field and
    [value v] the history value of a heap value; each returns its
    sentinel for what the history leaves out, so the access path
    allocates no option. [cfg] is the run's configuration. Subscribe
    {!on_event} at [History] ({!Stm_core.Trace.with_sinks}). *)

val on_event : t -> Stm_core.Trace.event -> unit

val set_enabled : t -> bool -> unit
(** Collection is off until enabled, so setup traffic stays out of the
    history. Events are counted for stamps either way. *)

val name : t -> tid:int -> int -> unit
(** [name t ~tid i] records scheduler thread [tid]'s nodes under
    logical thread [i]; an unnamed thread keeps its scheduler tid. *)

val set_tag : t -> tid:int -> History.tag -> unit
(** The program step scheduler thread [tid] runs from now on; its nodes
    carry it (untagged threads' nodes carry [None]). *)

val history :
  t -> init:(History.loc * History.value) list -> final:(History.loc * History.value) list ->
  History.history
(** The nodes collected so far, in stamp order and numbered densely,
    with the given initial and final states. *)
