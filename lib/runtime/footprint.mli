(** Shared-access trace sink for the DPOR explorer.

    Every layer of the runtime that touches cross-thread-visible state
    reports the access here: heap field and transaction-record accesses
    report the object's [oid]; runtime-internal shared state (allocation
    counter, clocks, registries, locks) reports a reserved negative
    pseudo-oid. With no sink installed the report is a no-op costing one
    dereference and a branch, so uninstrumented runs are unaffected.

    The DPOR explorer ({!Stm_litmus.Explorer.explore_dpor}) installs a
    sink around each controlled run and derives segment footprints —
    and from them the happens-before relation — from these reports.
    Anything two threads use to communicate that does {e not} flow
    through this sink (e.g. plain OCaml refs mutated by more than one
    simulated thread) is invisible to the reduction and can make it
    unsound; programs meant for DPOR certification must confine shared
    state to the simulated heap and runtime primitives. *)

type kind = Spin_read | Read | Write
(** [Spin_read] is a {e futile} spin-wait observation: a blocked retry
    loop re-reading the state it waits on and finding it still blocked.
    Such a read orders the waiter after the write it observed (it joins
    happens-before) but reversing it against a future conflicting write
    only changes how many futile iterations the loop performs before the
    same exit — so the explorer does not seed backtrack points from it
    (the spin-assume reduction of await loops, cf. GenMC). The
    iteration that {e exits} the loop must report a plain [Read]. *)

val set_sink : (int -> kind -> unit) option -> unit
(** [set_sink (Some f)] routes every access to [f oid kind];
    [set_sink None] uninstalls. Not nested and not a subscriber set:
    this is the fast channel beside the [Stm_core.Trace] event bus, one
    dereference per heap access with a single owner, the explorer, which
    installs it around each schedule and clears it on every exit. *)

val read : int -> unit
(** Report a read of [oid] by the running thread. *)

val write : int -> unit
(** Report a write of [oid] by the running thread. *)

val spin_read : int -> unit
(** Report a futile spin-wait re-read of [oid] (see {!kind}). *)

val active : unit -> bool
(** Whether a sink is currently installed. *)

(** {2 Pseudo-oids}

    Reserved negative ids for runtime-internal shared state; all are
    [<= -2] so they collide neither with heap oids (positive) nor with
    [Heap.dummy] ([-1]). *)

val oid_alloc : int
(** The heap object-id counter: allocation order is shared state. *)

val oid_txid : int
(** The transaction-id counter. *)

val oid_gvc : int
(** The global version clock. *)

val oid_quiesce : int
(** Quiescence epochs, tickets and per-thread consistency points. *)

val oid_mvcc : int
(** The mvcc snapshot registry and installer ring. *)

val oid_cm : int
(** Stateful contention-manager policy state (unused under the
    stateless default policies). *)

val flag_oid : int -> int
(** [flag_oid txid]: transaction [txid]'s wound flag and registry
    slot. *)

val mutex_oid : int -> int
(** [mutex_oid id]: the lock word of simulated mutex [id]. *)
