open Stm_runtime

type dist = Uniform | Zipfian of float

let dist_to_string = function
  | Uniform -> "uniform"
  | Zipfian _ -> "zipfian"

(* Zeta partial sum: sum_{i=1..n} 1/i^theta. Computed once per key
   space; key spaces here are at most a few hundred thousand, so a
   direct sum is fine and keeps the constant bit-for-bit reproducible. *)
let zeta n theta =
  let acc = ref 0.0 in
  for i = 1 to n do
    acc := !acc +. (1.0 /. (float_of_int i ** theta))
  done;
  !acc

type kind =
  | K_uniform
  | K_zipf of {
      theta : float;
      alpha : float;  (** 1/(1-theta) *)
      zetan : float;
      eta : float;
      half_pow : float;  (** 1 + 0.5^theta *)
    }

type space = { s_keys : int; s_kind : kind }
type t = { keys : int; kind : kind; rng : Det_rng.t }

(* splitmix-style avalanche, constants truncated to OCaml's 63-bit
   [int]; only used for load spreading, not as a bijection *)
let mix k =
  let k = (k + 0x27d4eb2f165667c5) land max_int in
  let k = k lxor (k lsr 29) in
  let k = k * 0x165667b19e3779f9 land max_int in
  let k = k lxor (k lsr 32) in
  let k = k * 0x27d4eb2f165667c5 land max_int in
  k lxor (k lsr 31)

let scramble ~keys r = mix r mod keys

let compute ~keys ~dist =
  if keys <= 0 then invalid_arg "Keydist.space: keys must be positive";
  let kind =
    match dist with
    | Uniform -> K_uniform
    | Zipfian theta ->
        if theta <= 0.0 || theta >= 1.0 then
          invalid_arg "Keydist.space: zipfian theta must be in (0, 1)";
        let zetan = zeta keys theta in
        let zeta2 = zeta 2 theta in
        let sub = 1.0 -. theta in
        K_zipf
          {
            theta;
            alpha = 1.0 /. sub;
            zetan;
            eta =
              (1.0 -. ((2.0 /. float_of_int keys) ** sub))
              /. (1.0 -. (zeta2 /. zetan));
            half_pow = 1.0 +. (0.5 ** theta);
          }
  in
  { s_keys = keys; s_kind = kind }

(* The last space built. The store engine asks for the same one at every
   run, and the zeta sum behind a Zipfian space costs a pass over every
   key; a space is immutable, so handing the same one out again draws
   the same keys. No space has 0 keys, so the initial entry never hits. *)
let last = ref { s_keys = 0; s_kind = K_uniform }

let space ~keys ~dist =
  let l = !last in
  let hit =
    l.s_keys = keys
    &&
    match (dist, l.s_kind) with
    | Uniform, K_uniform -> true
    | Zipfian theta, K_zipf z -> Float.equal theta z.theta
    | (Uniform | Zipfian _), _ -> false
  in
  if hit then l
  else begin
    let s = compute ~keys ~dist in
    last := s;
    s
  end

let sampler s rng = { keys = s.s_keys; kind = s.s_kind; rng }
let create ~keys ~dist rng = sampler (space ~keys ~dist) rng

(* Gray et al. "Quickly generating billion-record synthetic databases",
   as popularized by YCSB's ZipfianGenerator. *)
let next_rank t =
  match t.kind with
  | K_uniform -> Det_rng.int t.rng t.keys
  | K_zipf z ->
      let u = Det_rng.float t.rng 1.0 in
      let uz = u *. z.zetan in
      if uz < 1.0 then 0
      else if uz < z.half_pow then 1
      else
        let r =
          int_of_float
            (float_of_int t.keys *. (((z.eta *. u) -. z.eta +. 1.0) ** z.alpha))
        in
        if r >= t.keys then t.keys - 1 else if r < 0 then 0 else r

let next t =
  match t.kind with
  | K_uniform -> next_rank t
  | K_zipf _ -> scramble ~keys:t.keys (next_rank t)
