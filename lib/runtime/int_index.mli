(** An open-addressed table from [int] keys to values.

    The per-transaction tables of the STM (a descriptor's read,
    ownership, undo and write-buffer sets, the wound registry, the
    contention manager's slots, the live-snapshot counts) are looked up
    on every transactional access, begin and commit. A polymorphic
    [Hashtbl] pays a C hash, a polymorphic compare, a cons per insert and
    a [Some] per [find_opt] there; this table pays none of them:

    - linear probing over power-of-two arrays, allocated by the first
      insert and doubled when more than half full;
    - a slot is live iff its stamp equals the table's generation, so
      {!clear} is one increment and keeps the capacity;
    - {!remove} shifts the rest of the cluster back instead of leaving a
      tombstone;
    - a miss returns the table's [absent] value, which callers compare
      with [==], instead of an option;
    - keys are placed by Fibonacci hashing on the product's top bits,
      which depend on every bit of the key: packed keys such as
      [oid lsl 26 lor base] spread as well as dense ones.

    Nothing iterates a table in an order that matters: {!fold} visits
    slots in array order, which depends on the insertion history. *)

type 'a t

val create : 'a -> 'a t
(** [create absent] is an empty table that allocates nothing until its
    first insert. [absent] is what lookups return on a miss; it should be
    a value no binding uses, compared with [==]. *)

val length : 'a t -> int
(** Number of live bindings. *)

val find : 'a t -> int -> 'a
(** The value bound to the key, or [absent]. *)

val mem : 'a t -> int -> bool

val add : unit t -> int -> bool
(** [add t k] adds [k] to a set and tells whether it was missing: a
    find-or-insert in one probe sequence. A table filled only by [add]
    allocates no value array. *)

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, overwriting any previous binding. *)

val remove : 'a t -> int -> unit
(** Drop the key's binding, if any. *)

val clear : 'a t -> unit
(** Drop every binding in O(1); the arrays are kept for reuse. *)

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Fold over the live bindings in slot order. Only for
    order-independent reductions. *)

val home : 'a t -> int -> int
(** The slot a key's probe starts at under the table's current capacity.
    Meaningful once something has been inserted; exposed for tests. *)
