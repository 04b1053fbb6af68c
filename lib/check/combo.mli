(** One point in the configuration space the fuzz sweep covers: a
    {!Stm_core.Point} (backend x atomicity flavor) under a
    contention-management policy. *)

type t = { point : Stm_core.Point.t; cm : Stm_cm.Policy.t }

val name : t -> string
(** Backend, a hyphen, atomicity, then ["/"] and the policy:
    ["eager-weak/suicide"], ["mvcc-si-weak/suicide"],
    ["eager-ts-quiesce/timestamp"]. *)

val to_config : ?cm_seed:int -> t -> Stm_core.Config.t

val all : t list
(** The full sweep grid: {eager,lazy} x {weak,strong,dea,quiesce} x all
    contention-management policies (40 combos), plus the mvcc block:
    {serializable,snapshot} x {weak,strong,dea} x suicide (6 combos —
    mvcc transactions never contend for ownership, so the CM axis is
    degenerate there). *)

val timestamp_grid : t list
(** The timestamp-validation certification grid: {eager,lazy} x
    {weak,strong,dea,quiesce} x {suicide,wound-wait,timestamp} (24
    combos), every one expected serializable. Disjoint from {!all} so
    the default sweep artifacts are byte-identical to the seed. *)

val to_json : t -> Stm_obs.Json.t
(** The point's axes and the policy: ["versioning"], ["atomicity"],
    ["cm"], then ["isolation"] and ["validation"] only away from their
    defaults. *)

val of_json : Stm_obs.Json.t -> t option
(** The inverse of {!to_json}; an absent ["isolation"] or ["validation"]
    is the default, and a combination no point has (mvcc under
    quiescence, snapshot isolation without mvcc, timestamp validation
    under mvcc) is [None]. *)
