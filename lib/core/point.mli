(** A point of the configuration space: a versioning backend under an
    atomicity flavor. The paper's Figure 6 spans {eager, lazy} x {weak,
    strong}; this tree adds timestamp validation, the multi-version
    backend at two isolation levels, DEA and quiescence. Every point
    means something: an axis exists only on the backends it applies to,
    and quiescence only on the single-version ones. The names here are
    the only spelling of the space; {!config} is the only way from a
    point to a {!Config.t}. *)

type backend =
  | Eager of Config.validation  (** ["eager"], ["eager-ts"] *)
  | Lazy of Config.validation  (** ["lazy"], ["lazy-ts"] *)
  | Mvcc of Config.isolation  (** ["mvcc"], ["mvcc-si"] *)

type atomicity =
  | Weak  (** ["weak"] *)
  | Strong  (** ["strong"]: isolation barriers on non-transactional accesses *)
  | Dea  (** ["dea"]: strong atomicity + dynamic escape analysis *)
  | Quiesce
      (** ["quiesce"]: weak barriers + commit-time quiescence; an
          eager/lazy commit protocol, so no mvcc point has it *)

type t = private { backend : backend; atomicity : atomicity }

val make : backend -> atomicity -> t option
(** [None] for an mvcc backend under [Quiesce]. *)

val v : backend -> atomicity -> t
(** {!make}, raising [Invalid_argument] where it returns [None]. *)

val backends : backend list
(** The six backends: eager, lazy, mvcc, mvcc-si, eager-ts, lazy-ts. *)

val all : t list
(** Every point, backend-major in {!backends} order, atomicities in
    declaration order (22 points). *)

val backend_of :
  Config.versioning -> Config.isolation -> Config.validation -> backend option
(** The backend with these three axes; [None] where one of them is
    meaningless: snapshot isolation on a single-version backend, or
    timestamp validation under mvcc. *)

val versioning : backend -> Config.versioning

val isolation : backend -> Config.isolation
(** [Serializable] on the single-version backends. *)

val validation : backend -> Config.validation
(** [Incremental] under mvcc. *)

val backend_name : backend -> string
val atomicity_name : atomicity -> string
val atomicity_of_name : string -> atomicity option

val name : t -> string
(** Atomicity, a hyphen, then backend: ["weak-mvcc-si"],
    ["strong-eager-ts"], ["quiesce-lazy"]. *)

val of_name : string -> t option

val config : t -> Config.t
(** {!Config.base} with the point's axes: versioning, isolation,
    validation, and the strong/dea/quiescence flags. *)
