(** Power-of-two histogram for cycle latencies: fixed 48 buckets, bucket
    [i] holds samples in [(2^(i-2), 2^(i-1)]], allocation-free [add]. *)

type t

val create : unit -> t
val add : t -> int -> unit

val count : t -> int
val sum : t -> int
val min_value : t -> int
val max_value : t -> int

val quantile : t -> float -> int
(** Approximate quantile: inclusive upper bound of the bucket holding the
    q-th sample, clamped into [[min_value t, max_value t]]. An empty
    histogram reads [0]; [q >= 1.0] reads exactly [max_value t] (even
    when the maximum exceeds the top bucket's nominal bound). *)

val copy : t -> t

val sub : t -> t -> t
(** [sub later earlier]: histogram of the samples recorded between the
    two snapshots (bucket-wise difference). *)

val to_json : t -> Json.t
