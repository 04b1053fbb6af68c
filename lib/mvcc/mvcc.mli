(** Multi-version concurrency control: commit clock, snapshot registry,
    version-chain GC.

    One instance per STM context. Granules (heap objects) carry their own
    bounded version chains (see {!Stm_runtime.Heap}); this module draws
    commit timestamps from the system-wide {!Stm_runtime.Gvc} clock,
    tracks which snapshots are still read by live transactions, and
    prunes chain entries nothing can reach.

    The concurrency protocol built on top (in [Stm_core.Txn]) is
    first-committer-wins: update transactions install their buffered
    writes at a fresh clock tick iff no newer version of any written
    object appeared since their snapshot; read-only transactions commit
    validation-free — their serialization point is their snapshot point,
    which is what makes them abort-free. *)

open Stm_runtime

type t

type stats = {
  mutable installs : int;  (** versions installed (commits + strong nontxn writes) *)
  mutable pruned : int;  (** past versions dropped by GC *)
  mutable snapshot_reads : int;  (** reads served from a past version *)
  mutable too_old : int;  (** reads that missed a pruned version *)
  mutable ro_commits : int;  (** read-only commits (validation-free) *)
}

val create : ?gvc:Gvc.t -> ?max_versions:int -> unit -> t
(** [?gvc] shares an existing global commit clock (the txn layer passes
    the system-wide one); a private clock is created when omitted. *)

val reset : t -> unit
(** Back to what {!create} gave, for a context reused by the next run:
    no live snapshot, an empty attribution ring (its arrays kept) and
    zero {!stats}. The clock is left to its owner. *)

val now : t -> int

val gvc : t -> Gvc.t
(** The commit clock this instance draws timestamps from. *)

val max_versions : t -> int
val stats : t -> stats

val advance : t -> int
(** Issue the next commit timestamp. *)

val begin_snapshot : t -> int
(** Register a snapshot at the current clock; pair with
    {!end_snapshot}. *)

val end_snapshot : t -> int -> unit

val oldest_active : t -> int
(** The oldest registered snapshot, or the clock when none is live. *)

val read : t -> Heap.obj -> int -> snap:int -> Heap.value option
(** The value of the field as of snapshot [snap], from the version chain
    of an object stamped newer than [snap]; [None] when the needed version
    was pruned (snapshot too old — the caller aborts). A transaction reads
    a current field directly and comes here only otherwise, so its common
    read builds no option. *)

val fcw_ok : Heap.obj -> snap:int -> bool
(** First-committer-wins: true iff no version newer than [snap] has been
    installed on the object. *)

val install : ?txid:int -> ?tid:int -> t -> Heap.obj -> ts:int -> unit
(** Retire the object's current fields into its chain and stamp the new
    timestamp; the caller then overwrites the fields in place. Must run
    without a scheduler yield, before the first store touching the
    object. Prunes the chain against the oldest live snapshot and the
    [max_versions] bound. [?txid]/[?tid] name the installing commit for
    abort attribution (see {!installer_of}); they default to [-1]
    (non-transactional / unknown). *)

val installer_of : t -> ts:int -> (int * int) option
(** [(txid, tid)] of the commit that installed the version stamped [ts],
    or [None] when the attribution ring has since reused the slot. *)

val note_ro_commit : t -> unit

val stats_to_assoc : t -> (string * int) list
