(** Contention-management policy catalog.

    A policy decides what a transaction does when open-for-read or
    open-for-write finds the record owned by another transaction: wait
    (and for how long), abort itself, or wound the owner. The decision
    procedure itself lives in {!Cm}; this module is the closed
    enumeration the configuration layer and the CLIs select from. *)

type t =
  | Suicide
      (** Back off with deterministic per-thread jitter and, after the
          retry budget, abort self — the McRT default the paper uses. *)
  | Wound_wait
      (** An older transaction (smaller txid) wounds a younger owner;
          a younger transaction backs off behind an older owner.
          Deadlock-free: waits only ever go from younger to older. *)
  | Exp_backoff
      (** Randomized exponential backoff ({!Stm_runtime.Det_rng} on the
          cost clock), abort self after the retry budget. *)
  | Karma
      (** Work-based priority: a transaction's priority is the size of
          its read/write footprint, and work lost to an abort is banked
          into the next attempt. The richer transaction wounds a poorer
          owner; ties fall back to age. *)
  | Timestamp
      (** Greedy age-based policy: the birth timestamp is assigned at
          the first attempt of an atomic block and survives restarts,
          so every transaction eventually becomes the oldest — and the
          oldest never loses a conflict. Starvation-free. *)

val all : t list
val to_string : t -> string

val of_string : string -> t option
(** Accepts the {!to_string} names plus common aliases
    ([wound_wait], [backoff]... and [greedy] for {!Timestamp}). *)

val order_sensitive : t -> bool
(** Does the policy's behavior depend on the relative order in which
    transactions begin or reach the contention manager? [false] only
    for {!Suicide}, whose decisions read nothing but the asker's own
    retry budget. The DPOR explorer uses this to skip the txid-counter
    and policy-state pseudo-granules ({!Stm_runtime.Footprint.oid_txid},
    [oid_cm]) when they cannot influence behavior — without the gate,
    every transaction begin conflicts with every other and the
    reduction collapses to plain enumeration. *)

val pp : Format.formatter -> t -> unit
