(** One point in the configuration space the fuzz sweep covers:
    versioning x isolation level x atomicity flavor x
    contention-management policy. *)

type atomicity =
  | Weak
  | Strong
  | Strong_dea  (** strong atomicity + dynamic escape analysis *)
  | Quiesce  (** weak barriers + commit-time quiescence *)

type t = {
  versioning : Stm_core.Config.versioning;
  isolation : Stm_core.Config.isolation;
      (** [Snapshot] is only meaningful with [Mvcc]; the single-version
          backends are always serializable *)
  validation : Stm_core.Config.validation;
      (** [Timestamp] is only meaningful with the single-version
          backends; mvcc ignores it *)
  atomicity : atomicity;
  cm : Stm_cm.Policy.t;
}

val backend_string : t -> string
(** The backend part of {!name}: ["eager"], ["lazy"], ["mvcc"],
    ["mvcc-si"] (snapshot isolation), with ["-ts"] appended under
    timestamp validation. *)

val name : t -> string
(** E.g. ["eager-weak/suicide"], ["mvcc-si-weak/suicide"],
    ["eager-ts-weak/suicide"] (timestamp validation). *)

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

val all_versionings : Stm_core.Config.versioning list
val atomicity_to_string : atomicity -> string
val versioning_to_string : Stm_core.Config.versioning -> string
val versioning_of_string : string -> Stm_core.Config.versioning option
val to_json : t -> Stm_obs.Json.t
val of_json : Stm_obs.Json.t -> t option
