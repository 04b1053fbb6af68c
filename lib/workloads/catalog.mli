(** One place that knows every benchmark workload.

    The per-family modules ({!Tsp}, {!Oo7}, {!Jbb}, {!Jvm98}) each export
    their own descriptors; this catalog groups them by family so the CLI
    ([stm_bench list]) and the docs can enumerate them without
    hard-coding the list in several places. The [store] family — the
    hash-partitioned KV store driven by the YCSB-style engine — lives in
    [lib/store] and is listed by profile name there; this catalog covers
    the Jt-program workloads. *)

type family = {
  fam_name : string;  (** e.g. ["tsp"], ["jvm98"] *)
  fam_descr : string;
  members : Workload.t list;
}

val families : family list
(** tsp, oo7, jbb, jvm98 — in figure order. *)
