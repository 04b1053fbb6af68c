(** Per-site barrier profiler.

    Consumes {!Stm_core.Trace.Barrier} and {!Stm_core.Trace.Conflict}
    events (which the core emits adjacent to its {!Stm_core.Stats}
    increments) and accumulates, per access site, per thread, and in
    total: barriers fired (split read / write / txn-read / txn-write),
    DEA private-path hits, barrier-elided accesses, and conflicts.
    Site [-1] collects accesses made directly through the {!Stm_core.Stm}
    API with no IR site attached. *)

open Stm_core

type counters = {
  mutable reads : int;
  mutable writes : int;
  mutable txn_reads : int;
  mutable txn_writes : int;
  mutable private_hits : int;
  mutable elided : int;
  mutable conflicts : int;
}

type t

val create : unit -> t

val handle : t -> Trace.event -> unit
(** The subscriber function; subscribe it at [Debug] (see
    {!Trace.with_sinks}) — the profiler needs the per-access events. *)

val sites : t -> (int * counters) list
(** Most active site first. *)

val threads : t -> (int * counters) list
(** Per-thread rollup, by thread id. *)

val total : t -> counters

val check_against_stats : t -> Stats.t -> (string * int * int) list
(** Column sums vs the run's global counters; mismatching
    [(column, profiled, global)] triples, [[]] when the profile accounts
    for every counted barrier action. *)

val pp :
  ?resolve:(int -> string option) ->
  ?limit:int ->
  Format.formatter ->
  t ->
  unit
(** Table with a TOTAL row. [resolve] maps site ids to labels
    (e.g. ["file.jt:12"] via {!Stm_ir.Ir.site_loc}). *)
