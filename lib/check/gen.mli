(** Seeded random generator of fuzz programs.

    [(gcfg, seed)] determines the program exactly (all randomness flows
    through {!Stm_runtime.Det_rng}), which is what makes counterexamples
    replayable from their seeds alone. *)

type profile =
  | Txn_only  (** transactions only — serializable under every config *)
  | Mixed
      (** transactions racing plain non-transactional accesses to the
          same cells — clean only under strong atomicity *)
  | Handoff
      (** transactions plus publish/privatize handoffs; the only
          non-transactional traffic is to objects the thread just
          privatized (or has not yet published) — clean under strong
          atomicity and under commit-time quiescence *)

val profile_to_string : profile -> string

type gcfg = {
  profile : profile;
  min_threads : int;
  max_threads : int;
  max_steps : int;  (** per-thread step count upper bound *)
  max_ops : int;  (** per-transaction op count upper bound *)
  ncells : int;
  nslots : int;
}

val default : profile -> gcfg

val generate : gcfg -> seed:int -> Prog.t
(** Deterministic in [(gcfg, seed)]. *)
