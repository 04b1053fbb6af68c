(** Deterministic key-distribution samplers for the store workload
    engine.

    Both distributions draw exclusively from a {!Stm_runtime.Det_rng}
    stream, so a sampler's draw sequence is a pure function of its seed:
    equal seeds give equal key sequences across runs and across hosts.

    [Zipfian theta] is the YCSB-style bounded Zipfian over [keys] ranks
    (Gray et al.'s rejection-free inversion method): rank 0 is the
    hottest key, rank frequencies fall off as [1/(r+1)^theta]. Because
    consecutive ranks would otherwise hash to consecutive hash-table
    positions, {!next} returns the rank pushed through a stateless
    integer scrambler, spreading the hot set across the whole key space
    (and therefore across store shards); {!next_rank} returns the raw
    rank for statistical tests. *)

type dist = Uniform | Zipfian of float  (** skew exponent, in (0, 1) *)

val dist_to_string : dist -> string

type space
(** A key space: the number of keys and the distribution over them,
    with the Zipfian normalization constants already computed. Those
    constants (a zeta sum over every key) are the costly part of setting
    up a sampler, so samplers over the same keys share one space. *)

val space : keys:int -> dist:dist -> space
(** [space ~keys ~dist] prepares a key space over [keys] keys
    (positive).
    @raise Invalid_argument on a bad [keys] or Zipfian [theta]. *)

type t

val sampler : space -> Stm_runtime.Det_rng.t -> t
(** [sampler s rng] draws from [s]. The sampler owns [rng] from this
    point on; its draws are those of [create] on the same keys,
    distribution and seed. *)

val create : keys:int -> dist:dist -> Stm_runtime.Det_rng.t -> t
(** [create ~keys ~dist rng] is [sampler (space ~keys ~dist) rng]. *)

val next_rank : t -> int
(** Next draw as a popularity rank in [[0, keys)]: rank 0 most popular
    under [Zipfian], all ranks equally likely under [Uniform]. *)

val next : t -> int
(** Next draw as a key in [[0, keys)]: {!next_rank} composed with
    {!scramble} (under [Uniform] the scramble is skipped — the draw is
    already uniform). *)

val scramble : keys:int -> int -> int
(** The stateless rank-to-key scrambler (a splitmix-style finalizer
    reduced mod [keys]). Deterministic; not a bijection on [[0, keys)],
    which is fine for load spreading. *)
