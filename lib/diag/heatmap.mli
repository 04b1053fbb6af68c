(** Per-granule contention heatmap.

    Charges every {!Stm_core.Trace.Conflict} episode and every
    attributed {!Stm_core.Trace.Txn_abort} ([oid >= 0]) to the contended
    granule in O(1): a granule's counters are one record in a
    {!Stm_runtime.Int_index} keyed by oid, allocated at its first
    charge. Ranking, site mapping, and rendering happen only at report
    time. *)

type t

val create : unit -> t

val handle : t -> Stm_core.Trace.event -> unit
(** Feed one event. Only [Conflict], and [Txn_abort] with a known
    granule, are charged; everything else is ignored. *)

(** One granule's accumulated contention, extracted at report time. *)
type cell = {
  oid : int;
  read_conflicts : int;
  write_conflicts : int;
  aborts : int;  (** aborts attributed to this granule *)
  wounds : int;  (** of which wound kills *)
  wasted : int;  (** abort latency (cycles) thrown away on this granule *)
  sites : (int * int) list;
      (** conflicting access sites with their episode counts, hottest
          first; site [-1] is an API-level access with no source site *)
}

val heat : cell -> int
(** Ranking score: conflict episodes plus attributed aborts. *)

val cells : t -> cell list
(** All granules, hottest first (ties by oid). *)

val top : t -> k:int -> cell list

val total_conflicts : t -> int
val distinct_granules : t -> int

val site_label : (int -> string option) -> int -> string
(** Render a site id through [resolve]: ["(api)"] for [-1], the
    resolved source location when known, ["site N"] otherwise. *)

val to_json :
  ?resolve:(int -> string option) -> ?k:int -> t -> Stm_obs.Json.t

val pp :
  ?resolve:(int -> string option) -> ?k:int -> Format.formatter -> t -> unit
