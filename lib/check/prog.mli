(** Fuzz-program representation.

    A program runs over a tiny abstract heap: [ncells] integer cells,
    [nslots] root slots each initially pointing at a one-field "box"
    object. Each thread is a straight-line list of steps; the only
    control flow is the implicit guard on box operations (skip when the
    root slot no longer holds a reference).

    Every write stores a value tagged with a token unique to its static
    occurrence, making the reads-from relation of any execution directly
    observable. *)

type expr =
  | Tok  (** write the occurrence token alone *)
  | Tok_acc  (** token plus a 12-bit hash of the thread's accumulator *)

type op =
  | Read of int  (** fold cells[i] into the thread accumulator *)
  | Write of int * expr  (** cells[i] <- tagged value *)
  | Box_read of int  (** deref roots[s]; fold the box field into acc *)
  | Box_write of int  (** deref roots[s]; store a tagged value in the box *)

type step =
  | Atomic of op list  (** one transaction *)
  | Plain of op  (** one non-transactional access *)
  | Publish of int
      (** allocate a box, initialize it non-transactionally, install it
          in roots[s] inside a transaction (paper section 5.1) *)
  | Privatize of int
      (** transactionally detach the box behind roots[s]; then access it
          non-transactionally (paper figure 1 / section 5.2) *)

type t = { ncells : int; nslots : int; threads : step list list }

val nthreads : t -> int

(** {1 Token scheme} *)

val max_steps : int
(** Upper bound on steps per thread the token encoding supports. *)

val max_ops : int
(** Upper bound on ops per atomic block the token encoding supports. *)

val token_scale : int
(** Written values are [token * token_scale + payload], [payload <
    token_scale]. *)

val op_token : thread:int -> step:int -> op:int -> int
val pub_token : thread:int -> step:int -> int
(** Token of the non-transactional initializing store of a publish. *)

val priv_token : thread:int -> step:int -> int
(** Token of the post-privatization non-transactional box store. *)

val tomb_token : thread:int -> step:int -> int
(** Token of the tombstone a privatize step leaves in the root slot. *)

val init_box_token : slot:int -> int
(** Token of a slot box's initial field value. *)

val combine : int -> int -> int
(** Accumulator fold: [combine acc v] mixes a loaded value into the
    12-bit accumulator. *)

val value_of : expr -> token:int -> acc:int -> int

(** {1 Printing and (de)serialization} *)

val to_string : t -> string
val to_json : t -> Stm_obs.Json.t
val of_json : Stm_obs.Json.t -> t option
