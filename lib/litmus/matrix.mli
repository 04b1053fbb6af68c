(** Regeneration of Figure 6: the weak-atomicity behaviour matrix.

    For every (anomaly row, execution mode) cell, the systematic explorer
    decides whether the anomalous outcome is reachable. "yes" cells are
    decided by exhibiting a witness schedule; "no" cells by exhausting the
    preemption-bounded schedule space without finding one. *)

type cell = {
  program : Programs.t;
  mode : Modes.t;
  expected : bool;  (** the paper's Figure 6 value *)
  observed : bool;
  runs : int;
  truncated : bool;
  outcomes : (string * int) list;
      (** the outcomes the exploration saw, with their schedule counts
          (see {!Explorer.exploration}) *)
}

val expected_fig6 : (string * bool list) list
(** [(program name, per-mode expectation)] in {!Modes.all_fig6} column
    order: eager-weak, lazy-weak, locks, strong-eager, strong-lazy. *)

val run_cell :
  ?preemption_bound:int ->
  ?max_runs:int ->
  ?granule_override:int ->
  ?cm:Stm_cm.Policy.t ->
  ?exhaustive:bool ->
  Programs.t ->
  Modes.t ->
  cell
(** [cm] overrides the contention-management policy of the mode's
    configuration; the expectation is unchanged, because contention
    management must not affect which anomalies are expressible. The
    search stops at the first anomalous outcome unless [exhaustive]
    (default [false]), which walks the whole bounded schedule space (or
    the [max_runs] budget) so that [outcomes] is the full outcome set;
    the verdict is the same either way. *)

val run_cell_pct : ?runs:int -> Programs.t -> Modes.t -> cell
(** Decide a cell by probabilistic sampling ({!Explorer.explore_pct})
    instead of the bounded DFS: an independent check of the "yes" cells.
    A sampled "no" is never a certificate — a quiet cell may just have
    been missed, so only an anomaly on an expected-"no" cell is
    conclusive. Defaults: [runs = 2000], and {!Explorer.explore_pct}'s
    [depth = 3] and [seed = 1]. *)

val fig6 :
  ?preemption_bound:int -> ?max_runs:int -> ?cm:Stm_cm.Policy.t -> unit ->
  cell list
(** All 45 cells (9 anomaly rows x 5 modes). *)

val extras_rows :
  ?preemption_bound:int -> ?max_runs:int -> ?cm:Stm_cm.Policy.t -> unit ->
  cell list
(** Two rows beyond Figure 6: the Section 2.1 write-then-read variant and
    the Section 4 transaction-vs-transaction dirty-read check (expected
    all-"no": transactional isolation holds even under weak atomicity). *)

val privatization_row :
  ?preemption_bound:int -> ?max_runs:int -> ?cm:Stm_cm.Policy.t -> unit ->
  cell list
(** Figure 1 under the five Figure 6 modes plus the two quiescence modes
    (Section 3.4): quiescence must fix this program even under weak
    atomicity. *)

val all_match : cell list -> bool
val pp_table : Format.formatter -> cell list -> unit

(** {2 DPOR certification}

    Every cell re-derived by two independent engines: the enumerative
    preemption-bounded DFS and the race-reduced DPOR walk, at the same
    bound. Agreement plus a complete DPOR walk upgrades a sampled "no"
    into a certified one; disagreement (a {e verdict flip}) or a DPOR
    walk less complete than the finished baseline fails certification
    (the BPOR cross-check, see {!Explorer.explore_dpor}). *)

type certified = {
  enum : cell;  (** the enumerative baseline's verdict for the cell *)
  dpor : cell;  (** the DPOR engine's verdict, same preemption bound *)
  complete : bool;
      (** the DPOR walk exhausted its race-reduced schedule space *)
  races : int;  (** racing segment pairs found across the DPOR walk *)
}

val certify_cell :
  ?preemption_bound:int ->
  ?max_runs:int ->
  Programs.t ->
  Modes.t ->
  certified
(** Run both engines on one cell. Defaults: [preemption_bound = 2],
    [max_runs = 40_000]. *)

val cell_certified : certified -> bool
(** No verdict flip, and the "no" verdict (if that is the verdict) rests
    on a complete DPOR walk whenever the enumerative walk itself
    finished. A "yes" is witness-based and needs no completeness. *)

val full_matrix : ?bound:int -> unit -> (Programs.t * Modes.t * int) list
(** Every (program, mode) cell covered by the matrix suites — the
    Figure 6 grid, the extra rows, privatization (with the quiescence
    columns), the SI rows, every program under the multi-version
    columns, and the Figure 6 rows under the timestamp-validation
    columns — each paired with the preemption bound its expected witness
    needs: [bound] (default 2) everywhere except the multi-version
    columns, which get [max bound 3] (the snapshot-isolation
    privatization race takes three preemptions). *)

val pp_certified : Format.formatter -> certified -> unit
(** One line per cell: both engines' verdicts and run counts, DPOR
    completeness and race count, and a trailing [FLIP] marker when
    {!cell_certified} fails. *)
