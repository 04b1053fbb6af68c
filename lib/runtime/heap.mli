(** Simulated shared heap.

    Objects carry a one-word transaction record ([txrec]) exactly as in the
    paper (Section 3.1): the STM library interprets its bits; the heap only
    stores it. Fields are a flat array of {!value}s; arrays are objects
    whose fields are the elements. Static fields of a class live in a
    per-class "statics" object so that they have a transaction record and
    participate in the same barrier protocols as instance fields. *)

type value =
  | Vunit
  | Vnull
  | Vbool of bool
  | Vint of int
  | Vfloat of float
  | Vstr of string
  | Vref of obj

and obj = private {
  oid : int;  (** unique id, deterministic per run *)
  cls : string;  (** class name, or ["<array>"] / ["<statics:C>"] *)
  kind : [ `Obj | `Arr | `Statics ];
  txrec : int Atomic.t;  (** transaction record word (see {!Stm_core.Txrec}) *)
  fields : value array;
  mutable vts : int;
      (** mvcc backend: commit timestamp of the current [fields]
          (0 = initial state). Single-version backends leave it at 0. *)
  mutable past : version list;
      (** mvcc backend: superseded versions, newest first. *)
}

and version = private { vfrom : int; vvals : value array }
(** One superseded whole-object version: the fields that were current
    from commit timestamp [vfrom] until the next-newer version's. *)

val reset : unit -> unit
(** Reset the object-id counter (call at the start of each simulated run
    for deterministic ids). *)

val alloc : ?txrec:int -> cls:string -> int -> obj
(** [alloc ~cls n] creates an object with [n] fields initialised to
    {!Vnull}-appropriate defaults ([Vnull]). [txrec] defaults to the
    shared-state encoding with version 0 (an all-public heap); the STM
    passes the private encoding when dynamic escape analysis is on. *)

val alloc_array : ?txrec:int -> int -> value -> obj
(** [alloc_array n init] creates an array of [n] elements [init]. *)

val alloc_statics : ?txrec:int -> cls:string -> int -> obj
(** Statics holder for class [cls]; always public. *)

val dummy : obj
(** Sentinel object (oid [-1], no fields) for pre-sizing growable arrays
    of objects; never a real heap object, never synchronized on. *)

val get : obj -> int -> value
(** Raw field load — no barrier, no cost — reported to {!Footprint} as
    a read of the object. The STM builds barriers on top. The modules
    on the per-access path do the same report and load inline (see
    {!Footprint.sink}). *)

val set : obj -> int -> value -> unit
(** Raw field store, reported as a write of the object. *)

val nfields : obj -> int

(** {2 Transaction-record accesses}

    The barrier layer and the STM read and write the [txrec] atomic
    directly, with an inline {!Footprint} report: the word is reported
    against the object's own oid, since it orders with the fields it
    guards and so both live in one conflict granule. A compare-and-set
    reports a write whether or not it succeeds (a failed acquire still
    raced with the holder). *)

val txrec_peek : obj -> int
(** Raw [txrec] load with no footprint report. For conflict-retry
    loops that classify the observation themselves: a blocked retry
    reports {!Stm_runtime.Footprint.spin_read}, any other iteration a
    plain read (see {!Stm_runtime.Footprint.kind}). *)

(** {2 Version chains (mvcc backend)}

    The heap only stores the chain; the commit clock, snapshot registry
    and GC policy live in {!Stm_mvcc.Mvcc}. *)

val version_ts : obj -> int
(** Commit timestamp of the current fields. *)

val version_ts_peek : obj -> int
(** Raw [version_ts] with no footprint report, for retry loops that
    classify the observation themselves (see {!txrec_peek}). *)

val set_version_ts : obj -> int -> unit

val chain_length : obj -> int
(** [1 +] the number of retained past versions. *)

val push_version : obj -> unit
(** Retire the current fields (a copy) into the chain at the current
    [version_ts]; the caller then updates [fields] in place and stamps
    the new timestamp with {!set_version_ts}. *)

val read_at : obj -> int -> ts:int -> value option
(** [read_at o fld ~ts] is the value of [o.(fld)] as of snapshot [ts]:
    the newest version installed at or before [ts]. [None] when the
    chain was pruned past [ts] (snapshot too old). *)

val prune_past : obj -> oldest:int -> max_versions:int -> int
(** Drop past versions no snapshot [>= oldest] can reach, and bound the
    whole chain to [max_versions] entries regardless (dropping reachable
    versions then surfaces as {!read_at} misses). Returns the number of
    versions dropped. *)

val shared_txrec0 : int
(** The transaction-record word for a public object with version 0:
    [0b011]. Kept here so the heap does not depend on the STM library. *)

val private_txrec : int
(** The all-ones private encoding: [-1]. *)

val value_equal : value -> value -> bool
(** Structural on scalars, physical on references. *)

val pp_value : Format.formatter -> value -> unit
val show_value : value -> string
