(** What a program runs under: the paper's lock-based "Synch" baseline,
    or its atomic blocks as transactions at a {!Point}. The Figure 6
    columns, the Figure 18-20 series and the KV store's disciplines are
    all values of this type, and {!name} is their only spelling. *)

type t =
  | Locks  (** atomic blocks as critical sections under mutual exclusion *)
  | Stm of Point.t  (** atomic blocks as transactions at this point *)

val all : t list
(** [Locks], then every {!Point.all} point (23 modes). *)

val name : t -> string
(** ["locks"], or the point's {!Point.name}. *)

val of_name : string -> t option

val config : t -> Config.t
(** The point's {!Point.config}; [Locks] runs the weak-eager one (its
    critical sections take no barriers, so the atomicity is moot). *)

val isolated : t -> bool
(** Whether non-transactional accesses are isolated from atomic blocks:
    under [Locks], or at a point whose {!config} sets [strong]. Mixed
    traffic is exact in these modes and may show the Figure 6 anomalies
    in the others. *)
