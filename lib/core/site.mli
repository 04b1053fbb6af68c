(** Ambient per-thread source-site attribution.

    The IR interpreter tags each memory access with the access site's id
    (assigned at lowering, resolvable to [file:line]) before dispatching
    into {!Stm}. Barriers and the conflict manager read it back when
    emitting {!Trace} events, so the per-site profiler can attribute
    barrier executions and conflicts to source locations without
    threading site ids through every STM signature.

    The slot is per simulated thread: barriers yield internally, and a
    global would be clobbered by the accesses other threads perform in
    between. Sites are meaningful only while a {!Trace} sink is
    installed; callers skip the store otherwise. *)

val set : int -> unit
(** Set the current thread's site (call before dispatching an access). *)

val current : unit -> int
(** The current thread's site, [-1] if never set. *)

val reset : unit -> unit
(** Drop all threads' slots (start of a fresh run). *)
