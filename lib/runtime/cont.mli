(** The continuation slot of a simulated thread.

    {!Sched} parks a thread that yields or suspends by storing the
    continuation of its effect in the thread's slot, and resumes it from
    there. The slot holds the continuation itself, not an option, so a
    context switch allocates no box. {!none} fills the slot of a thread
    that has not parked yet. Resuming does not clear the slot: while the
    thread runs, and after it finishes, the slot keeps the continuation
    it was last resumed from, which is spent and so behaves as {!none}
    does. *)

type t = (unit, unit) Effect.Deep.continuation

val none : t
(** The empty slot. It is a continuation that has already been resumed
    once, so resuming it raises [Effect.Continuation_already_resumed]:
    an empty slot can never run a fiber, and a scheduler that resumed
    one would fail at once. A slot whose continuation was resumed once
    raises the same way, so a scheduler need not reset a slot to [none]
    after resuming it. *)
