(** Regeneration harness for every table and figure in the paper's
    evaluation (Section 7) plus the Figure 6 matrix and Figure 13 counts.

    Absolute cycle counts come from the simulated cost model, so they do
    not match the paper's wall-clock numbers; the shapes — who wins, by
    roughly what factor, where the curves sit — are the reproduction
    target and are checked by [shape_*] in the test suite and recorded in
    EXPERIMENTS.md. *)

(** {1 Figures 15-17: strong-atomicity overhead on JVM98 kernels} *)

type overhead_row = {
  bench : string;
  weak_cycles : int;  (** weak-atomicity baseline makespan *)
  levels : (string * float) list;
      (** optimization level -> overhead factor (strong / weak; 1.0 = no
          overhead). Levels: NoOpts, +BarrierElim, +BarrierAggr, +DEA,
          +NAIT. *)
}

val fig15 : ?scale:float -> unit -> overhead_row list
(** Both read and write isolation barriers. [scale] shrinks workload
    iteration counts for quick runs. *)

val fig16 : ?scale:float -> unit -> overhead_row list
(** Read barriers only. *)

val fig17 : ?scale:float -> unit -> overhead_row list
(** Write barriers only. *)

val pp_overhead : Format.formatter -> overhead_row list -> unit

(** {1 Figure 13: static barrier-removal counts} *)

val fig13 : unit -> Stm_analysis.Barrier_stats.row list
(** NAIT vs TL on the seven JVM98 kernels (aggregated) and on Tsp, OO7 and
    JBB. *)

(** {1 Figures 18-20: scalability of the transactional benchmarks} *)

type series = {
  label : string;
  points : (int * int) list;  (** (threads, makespan in cycles) *)
  aborts : (int * int) list;  (** (threads, transaction aborts) *)
}

type scaling = {
  bench : string;
  series : series list;
  outputs_consistent : bool;
      (** all configurations printed the same checksums *)
}

val fig18 : ?threads:int list -> ?scale:float -> unit -> scaling  (** Tsp *)

val fig19 : ?threads:int list -> ?scale:float -> unit -> scaling  (** OO7 *)

val fig20 : ?threads:int list -> ?scale:float -> unit -> scaling  (** JBB *)

val pp_scaling : Format.formatter -> scaling -> unit

(** {1 Figure 6} *)

val fig6 :
  ?preemption_bound:int ->
  ?max_runs:int ->
  ?cm:Stm_cm.Policy.t ->
  unit ->
  Stm_litmus.Matrix.cell list

val pp_fig6 : Format.formatter -> Stm_litmus.Matrix.cell list -> unit
