(** Serializability audit of recorded store traffic.

    A History-level trace collector (the {!Stm_check.Exec} idiom) rebuilds
    a {!Stm_check.History.history} from the store's value-word accesses:
    one node per committed transaction, stamped at its
    [Txn_serialized] point, and one node per non-transactional value
    access, stamped at its linearization point. Locations are store keys
    ([History.Cell key]); structural traffic (chain links, shard
    headers) is projected out — the audit judges the {e data} the store
    serves. Because the engine's record mode writes a globally-unique
    token per put/rmw attempt, the reads-from relation is exact and
    {!Stm_check.History.check_graph} is decisive: a weak-atomicity run
    whose mixed traffic raced shows up as a dirty read, a conflict-graph
    cycle or a final-state mismatch; a strong-atomicity run comes back
    serializable. *)

open Stm_core

type t

val create : lookup:(int -> int option) -> unit -> t
(** [lookup oid] maps a heap object id to the store key whose entry it
    is ([None] for non-entry objects). Subscribe {!on_event} at
    [History] ({!Stm_core.Trace.with_sinks}) for the duration of the
    measured window. *)

val on_event : t -> Trace.event -> unit

val set_enabled : t -> bool -> unit
(** Collection is off until enabled — setup traffic stays out of the
    history. *)

val set_init : t -> (int * int) list -> unit
(** Initial [key, token] population (the preload). *)

val set_final : t -> (int * int) list -> unit
(** Final [key, token] store contents (a raw post-run fold). *)

val check : t -> Stm_check.History.verdict
(** {!Stm_check.History.check_graph} over the recorded history (nodes
    sorted by serialization stamp, with the recorded init/final state):
    conflict-graph acyclicity, dirty reads, final-state agreement. *)
