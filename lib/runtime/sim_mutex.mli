(** Simulated mutual-exclusion lock for the lock-based ("Synch")
    baselines.

    Acquiring a held lock blocks the simulated thread; when the holder
    releases, the longest-waiting thread is woken and its virtual clock is
    advanced to the release instant — contended critical sections therefore
    serialize in virtual time, which is what makes coarse-grained locking
    fail to scale in the OO7 reproduction (Figure 19). *)

type t

val create : ?name:string -> Cost.t -> t

val reset_ids : unit -> unit
(** Reset the deterministic mutex-id counter. The litmus explorer calls
    this before each run's setup, whatever its engine, so that a given
    mutex reports the same {!Footprint.mutex_oid} in every replay. *)

val lock : t -> unit
(** Blocks until the lock is available. Reentrant acquisition by the
    holding thread increments a hold count. *)

val unlock : t -> unit
(** Releases one hold. Raises [Invalid_argument] if the caller does not
    hold the lock. *)

val with_lock : t -> (unit -> 'a) -> 'a

val held : t -> bool
(** True if any thread currently holds the lock. *)
