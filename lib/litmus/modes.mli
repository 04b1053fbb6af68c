(** Execution modes for litmus programs — the columns of Figure 6 plus the
    Section 3.4 quiescence variants and the multi-version and
    timestamp-validation columns. *)

open Stm_core

type t = Mode.t =
  | Locks  (** critical sections via a single mutual-exclusion lock *)
  | Stm of Point.t  (** atomic blocks as transactions at this point *)

val all_fig6 : t list
(** The five Figure 6 columns: eager-weak, lazy-weak, locks, strong-eager,
    strong-lazy. *)

val all_mvcc : t list
(** The four multi-version columns, in expectation-table order:
    weak-mvcc, weak-mvcc-si, strong-mvcc, strong-mvcc-si. *)

val all_timestamp : t list
(** The four timestamp-validation columns: weak-eager-ts, weak-lazy-ts,
    strong-eager-ts, strong-lazy-ts. Their expectations are exactly the
    corresponding base columns' — the validation scheme must never
    change a litmus verdict. *)

val name : t -> string
(** {!Mode.name}; the end-to-end benchmark labels its litmus cells with it. *)

val config : ?granule:int -> t -> Config.t
(** STM configuration for the mode (litmus programs validate on every
    access, use the free cost model, and back off on conflicts): the
    mode's {!Mode.config} with those three fields set. *)

(** Per-instance harness handed to a litmus program body. *)
type harness = {
  atomic : (unit -> unit) -> unit;
      (** [atomic body]: transaction, or critical section in lock mode *)
  force_abort : unit -> unit;
      (** the "/*abort*/" markers of Figure 3: aborts the enclosing
          transaction the first time it executes in this instance; no-op
          in lock mode and on re-execution *)
}

val harness : t -> Config.t -> harness
(** Build a fresh harness (fresh lock, fresh abort marker). Call once per
    program instance. *)
