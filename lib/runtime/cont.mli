(** The continuation slot of a simulated thread.

    {!Sched} parks a thread that yields or suspends by storing the
    continuation of its effect in the thread's slot, and resumes it from
    there. The slot holds the continuation itself, not an option, so a
    context switch allocates no box; {!none} fills a slot that holds
    nothing (a thread that is running, or has finished). *)

type t = (unit, unit) Effect.Deep.continuation

val none : t
(** The empty slot. It is a continuation that has already been resumed
    once, so resuming it raises [Effect.Continuation_already_resumed]:
    an empty slot can never run a fiber, and a scheduler that resumed
    one would fail at once. *)
