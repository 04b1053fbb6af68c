(** Seven non-transactional Jt kernels mirroring the memory-access
    character of the SPEC JVM98 benchmarks used in Figures 15-17. Each
    prints a deterministic checksum. See the implementation header for
    the per-kernel design rationale (which optimization each kernel is
    sensitive to). *)

val compress : Workload.t

val all : Workload.t list
(** In the paper's figure order. *)
