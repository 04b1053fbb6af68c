(** Abort-causality graph.

    Nodes are simulated threads; an edge [victim <- aggressor]
    aggregates every attributed {!Stm_core.Trace.Txn_abort} of a
    transaction on the victim thread, carrying the contended granules,
    the abort causes, and the CM decision that was in force on the
    victim when it died. Per-txid abort records additionally support
    kill-chain reconstruction (A aborted by B, B itself aborted by C,
    ...) — the cascades that turn one hot granule into a run-wide
    livelock — and per-thread wasted-work attribution, which the report
    layer cross-checks against {!Stm_cm.Fairness}. *)

type t

(** Aggregated victim <- aggressor edge. [aggr_tid = -1] groups aborts
    whose aggressor thread is unknown (e.g. the owner already
    committed). *)
type edge = {
  victim_tid : int;
  aggr_tid : int;
  mutable count : int;
  mutable wasted : int;  (** victim cycles thrown away across these aborts *)
  mutable oids : (int * int) list;  (** granule -> count *)
  mutable causes : (Stm_core.Trace.abort_cause * int) list;
  mutable decisions : (string * int) list;
      (** last CM decision traced for the victim before each abort
          (requires a Debug-level feed; empty on Info-only traces) *)
}

(** One abort occurrence on a kill chain. *)
type abort_rec = {
  a_txid : int;
  a_tid : int;
  a_by : int;
  a_by_tid : int;
  a_oid : int;
  a_cause : Stm_core.Trace.abort_cause;
  a_wasted : int;
  a_order : int;  (** arrival index of the abort event *)
}

(** Per-thread victim/aggressor accounting. *)
type tstat = {
  mutable commits : int;
  mutable aborts : int;
  mutable self_wasted : int;  (** cycles this thread lost to its own aborts *)
  mutable caused : int;  (** aborts this thread inflicted on others *)
  mutable caused_wasted : int;  (** cycles it cost other threads *)
}

val create : unit -> t

val handle : t -> Stm_core.Trace.event -> unit
(** Feed one event. [Txn_abort] builds the graph; [Txn_commit] feeds the
    per-thread stats; [Cm_decision] (Debug level) is remembered per txid
    so the decision in force can be attached to a subsequent abort. *)

val edges : t -> edge list
(** Most frequent first. *)

val total_attributed : t -> int

val chains : t -> abort_rec list list
(** Maximal kill chains of at least two aborts (one victim <- aggressor
    hop where both died), longest first, each listed from the final
    victim backwards to the root aggressor. *)

val thread_stats : t -> (int * tstat) list
(** Sorted by thread id. *)

val wasted_of : t -> tid:int -> int
val total_wasted : t -> int

val most_starved : t -> (int * tstat) option
(** The thread with the worst abort/commit imbalance: most aborts,
    ties broken toward fewer commits, then more wasted cycles. [None]
    when no thread has aborted or committed. *)

val top_aggressor : t -> (int * tstat) option
(** The thread that inflicted the most aborts, if any. *)

val to_json : t -> Stm_obs.Json.t
(** Edges, per-thread stats and the five longest {!chains}. *)

val pp : Format.formatter -> t -> unit
(** Edges and the three longest {!chains}. *)
