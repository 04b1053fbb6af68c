(** Deterministic cooperative scheduler simulating a shared-memory
    multiprocessor.

    Simulated threads are green threads implemented with OCaml effect
    handlers. Each thread owns a virtual cycle clock; runtime and STM
    operations charge cycles with {!tick}. Preemption can happen only at
    explicit {!yield} points, which the STM and the IR interpreter insert
    between the individual memory operations of their barrier sequences —
    exactly the granularity at which the paper's races occur.

    Scheduling policies:
    - {!Min_clock} runs, at every step, the runnable thread with the
      smallest virtual clock. This is a discrete-event simulation of [n]
      threads running on [n] processors: the makespan ({!result} field
      [makespan]) is the parallel execution time.
    - {!Random} picks a runnable thread from a seeded stream: the fuzzer's
      interleaving diversity.
    - {!Controlled} hands every scheduling decision to a callback; the
      systematic litmus explorer uses it to enumerate interleavings. *)

type tid = int
(** Simulated thread id. The main thread is [0]. *)

type policy =
  | Random of int  (** seed *)
  | Min_clock
  | Controlled of (tid -> tid list -> tid)
      (** [choose current runnables] picks the next thread to run;
          [runnables] is sorted and non-empty, [current] is the thread that
          just yielded (it may or may not be in [runnables]). The list
          may be shared across calls: while the ready set is unchanged
          (no spawn, suspend, wake, join or finish in between) [choose]
          receives the same physical list, so a call that keeps the
          thread running allocates nothing; being immutable, a list a
          callback keeps stays a correct snapshot. An exception
          raised by [choose], or the [Invalid_argument] for a pick outside
          [runnables], escapes {!run}, also when the pick is taken at a
          {!yield}. *)

type status = Completed | Deadlock of tid list | Fuel_exhausted

type result = {
  status : status;
  makespan : int;  (** max virtual clock over all threads at the end *)
  exns : (tid * exn) list;  (** exceptions that escaped thread bodies *)
  switches : int;  (** number of scheduling decisions taken *)
}

exception Not_in_simulation
(** Raised by thread-context operations when no simulation is running. *)

val run : ?max_steps:int -> ?policy:policy -> (unit -> unit) -> result
(** [run main] executes [main] as thread 0 and schedules until every
    spawned thread has finished, deadlock, or [max_steps] scheduling
    decisions have been taken (default [10_000_000]). Runs cannot nest. *)

(** {1 Operations available inside a running simulation} *)

val spawn : ?name:string -> (unit -> unit) -> tid
(** Create a new runnable thread. Does not yield. *)

val join : tid -> unit
(** Block until the given thread finishes. The joiner's clock is advanced
    to at least the finisher's clock. *)

val yield : unit -> unit
(** Preemption point. Under {!Min_clock} the scheduler switches only if
    another runnable thread has a strictly smaller clock.

    A yield that resumes the same thread still counts as a scheduling
    decision: it adds one to [switches] and uses one step of [max_steps]
    fuel, under every policy. Such a yield returns directly, without
    suspending the thread; the pick, the step count and every clock are
    the same as if it had gone through the scheduler. {!Controlled} and
    {!Random} take the pick at the yield itself (with the yielding thread
    among the runnables, fuel permitting): the [choose] callback receives
    the same arguments in the same order, and the [Random] stream is
    drawn the same way. *)

val self : unit -> tid

val tick : int -> unit
(** Charge cycles to the current thread's virtual clock. *)

val pause : int -> unit
(** Charge [n] cycles and cede the processor for their duration — the
    primitive backoff delays are built on. Equivalent to
    [tick n; yield ()] under the clock-driven policies, where {!Min_clock}
    honors the delay by construction; under {!Random} (whose picker
    ignores clocks) the delay is spread over proportionally many yields so
    that a longer backoff really does grant the other threads more
    scheduling opportunities. *)

val rebase : unit -> unit
(** Reset every live thread's virtual clock to zero. Benchmarks call this
    after their serial setup phase so that the makespan measures steady
    state, mirroring the paper's methodology (JVM98 third-run timing, JBB
    post-ramp-up measurement). *)

val time : unit -> int
(** Current thread's virtual clock. *)

val suspend : unit -> unit
(** Block the current thread until some other thread calls {!wake}. *)

val wake : tid -> unit
(** Make a suspended thread runnable; its clock is advanced to at least
    the waker's clock (the wake-up is causally ordered after the waker's
    current instant). No-op if the thread is not suspended. *)

val thread_count : unit -> int
(** Number of threads created so far in this run (including finished). *)

val runnable_count : unit -> int
(** Number of currently runnable threads (excluding the running one);
    O(1) — maintained incrementally, not by scanning the thread table. *)

val steps : unit -> int
(** Scheduling decisions taken so far in this run; [0] outside a
    simulation. Tracing sinks record it as a global logical timestamp
    alongside the per-thread cost clocks. *)

val running : unit -> bool
(** [true] iff called from inside a simulation. *)

(** {1 The running-thread register} *)

type register = { mutable clock : int; mutable tid : tid }

val reg : register
(** The running thread's virtual clock and tid, kept in one place so
    that a hot path can charge cycles and find its thread without a
    call: [Sched.(reg.clock <- reg.clock + n)] is {!tick} without the
    check, and [reg.tid] is {!self}, or [-1] outside a simulation.

    During a run the register describes the current thread: the
    scheduler loads it at every switch-in and stores the clock back into
    the thread at every switch-out (a switching {!yield}, {!suspend}, or
    the end of the body by return or exception). {!tick}, {!time},
    {!self}, {!pause}, {!spawn}, {!join}, {!wake} and {!rebase} read and
    write it for the running thread. Every way out of {!run}, an
    exception included, leaves [tid] at [-1].

    Only add to [clock], and only while [tid >= 0] (an add outside a run
    is harmless but lost: the next run loads its own). Never write
    [tid]. *)
