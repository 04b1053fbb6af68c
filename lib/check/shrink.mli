(** Greedy counterexample minimization.

    Repeatedly tries one-step simplifications — drop a thread, drop a
    step, drop an op from an atomic block, demote an atomic singleton to
    a plain access, simplify a write expression, lower an index — and
    restarts from the first candidate [keep] accepts. Terminates at a
    fixpoint: a program where no single simplification still satisfies
    [keep]. *)

val candidates : ?demote_atomic:bool -> Prog.t -> Prog.t Seq.t
(** All one-step simplifications of the program, most aggressive first
    (thread removal down to index lowering). [demote_atomic] (default
    [true]) enables the atomic-singleton → plain-access pass; disable it
    when shrinking programs from a grammar with no plain accesses so the
    minimized counterexample stays in the same program class. *)

val minimize :
  ?demote_atomic:bool -> keep:(Prog.t -> bool) -> Prog.t -> Prog.t
(** [minimize ~keep p] greedily shrinks [p] while [keep] holds. [keep p]
    itself is assumed true and is not re-checked. At most 10,000 [keep]
    evaluations are made in total. *)
