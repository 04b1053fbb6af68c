(** Per-thread progress accounting for fairness and starvation analysis.

    Fed from transaction commit/abort events; queried by the stress
    harness (starvation verdicts) and the metrics exporter (Jain index,
    per-thread counters). *)

type t

val create : unit -> t
val on_commit : t -> tid:int -> unit

val on_abort : t -> tid:int -> wasted:int -> unit
(** [wasted] is the cycle latency of the aborted attempt — work thrown
    away. Negative values are clamped to 0. *)

val commits : t -> tid:int -> int
val aborts : t -> tid:int -> int
val max_consec_aborts_of : t -> tid:int -> int
val wasted_cycles : t -> tid:int -> int

val max_consec_aborts : t -> int
(** Worst consecutive-abort streak across all threads. *)

val total_commits : t -> int

val jain : t -> float
(** Jain's fairness index over per-thread commit counts:
    [(sum x)^2 / (n * sum x^2)]. [1.0] is perfectly fair, [1/n] means a
    single thread got everything; [1.0] by convention when no thread has
    committed. *)

val starved : t -> threshold:int -> int list
(** Threads whose worst streak reached [threshold] consecutive aborts,
    or that aborted at least once without ever committing. Sorted. *)

val copy : t -> t

val sub : t -> t -> t
(** [sub later earlier]: per-thread activity between two snapshots.
    Commit/abort/wasted counts subtract; consecutive-abort maxima cannot
    be recomputed for a window, so the later snapshot's values are kept
    (an upper bound). *)

val to_assoc : t -> (int * (string * int) list) list
(** Per-thread counters in a JSON-friendly shape, sorted by thread id. *)
