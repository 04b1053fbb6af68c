(** Whole-program pointer analysis with transactional contexts
    (paper Section 5.1).

    An Andersen-style, flow-insensitive, field-sensitive analysis with an
    on-the-fly call graph. Context-sensitivity is exactly the paper's
    novel two-element form: every method is analyzed in at most two
    contexts — {e in transaction} and {e not in transaction}. All calls
    inherit the caller's context, except calls lexically inside an
    [atomic] block, which always analyze the callee in-transaction. Heap
    specialization pairs every allocation site with the allocating
    context, so the same [new] yields distinct abstract objects inside and
    outside transactions.

    The result also carries the two derived facts the barrier analyses
    need: per-object {e accessed-in-transaction} bits (with the paper's
    class-initializer discount) for NAIT, and a {e thread-shared} bit
    (reachable from statics or from a thread object) for the TL
    comparison analysis. *)

type ctx = Txn | Nontxn

module ISet : Set.S with type elt = int

type aid = int
(** Abstract object id. *)

type site_info = {
  site : int;  (** the access site id from the instruction's note *)
  meth : Stm_ir.Ir.meth;
  kind : [ `Read | `Write ];
  array : bool;
  clinit_own : bool;
      (** static access to the enclosing class's own statics inside its
          [clinit] method (exempt per Java class-init semantics) *)
}

type t

val analyze : Stm_ir.Ir.program -> t

(** {1 Abstract objects} *)

val aid_is_statics : t -> aid -> bool
val n_objects : t -> int

(** {1 Per-site facts} *)

val site_reachable : t -> ctx -> int -> bool
(** Is the access site reachable with the given {e effective} context
    (method context joined with lexical atomic nesting)? *)

val site_objs : t -> ctx -> int -> ISet.t
(** Receiver objects that may flow to the site in the given effective
    context. *)

val iter_sites : t -> (site_info -> unit) -> unit
(** Visit every memory-access site of the program once. *)

(** {1 Derived facts} *)

val read_in_txn : t -> aid -> bool
val written_in_txn : t -> aid -> bool
val thread_shared : t -> aid -> bool
(** Reachable from a static field or a thread object (TL's notion of
    escape). *)

val reachable_methods : t -> (string * ctx) list
(** Analyzed (method key, context) pairs, for diagnostics. *)
