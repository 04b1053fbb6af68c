(** Global commit clock (TL2/TinySTM-style global version clock).

    A single monotone counter shared by every backend of one simulated
    system. The multi-version backend draws its commit timestamps from
    it, and under [Config.Timestamp] validation the single-version
    backends bump it at every commit that publishes shared state. The
    invariant all consumers rely on: the clock is unchanged between two
    observations iff no transaction (or strong non-transactional write)
    committed shared state in between.

    On the cooperative scheduler all operations are yield-free, so a
    bump is atomic with whatever release it accompanies. *)

type t

val create : unit -> t
(** A fresh clock at 0. *)

val now : t -> int
(** Current value. *)

val advance : t -> int
(** Bump the clock and return the new value (first commit gets 1). *)

val reset : t -> unit
(** Back to 0, for a context reused by the next run. *)
