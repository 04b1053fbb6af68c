(** Minimal JSON values and emitter (no external dependency). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string

val of_assoc : (string * int) list -> t
(** Integer-counter association lists (e.g. {!Stm_core.Stats.to_assoc})
    as one JSON object. *)

val of_string : string -> (t, string) result
(** Parse one JSON document (the counterexample replay path reads the
    repro files the fuzzer emits). Objects preserve member order;
    duplicate keys are kept as-is (lookups see the first). *)

(** {1 Accessors for parsed documents} *)

val member : string -> t -> t option
(** [member k (Obj ...)] is the value bound to the first occurrence of
    [k]; [None] for missing keys and non-objects. *)

val to_int_opt : t -> int option
val to_str_opt : t -> string option
val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option
