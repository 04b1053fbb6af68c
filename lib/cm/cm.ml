open Stm_runtime

(* The contention manager proper: per-block priority state plus the
   decision procedure each policy applies at a conflict. The manager is
   deliberately independent of the STM core - it sees a transaction only
   as its block's slot plus the (tid, txid, clock) and work counters the
   core feeds it - so the core can depend on it without a cycle, and
   policies can be unit-tested without a heap or a scheduler. *)

type decision =
  | Wait  (* back off [last_delay] cycles, then retry the access *)
  | Wound
      (* kill the owning transaction [last_victim], then back off and
         retry *)
  | Abort_self

(* One atomic block's contention state. The block's attempt loop gets
   its slot from [on_begin] at the first incarnation and hands the same
   slot to every later one, so age and banked work persist across
   restarts - the property that makes Timestamp starvation-free and
   Karma work-conserving. *)
type slot = {
  s_tid : int;
  mutable s_txid : int;  (* current incarnation *)
  s_first_txid : int;  (* stable across restarts; age tie-break *)
  s_birth : int;  (* cost clock at the first incarnation *)
  mutable s_karma : int;  (* work banked from aborted incarnations *)
  mutable s_work : int;  (* footprint of the current incarnation *)
  mutable s_wounded : bool;  (* last incarnation died of a wound *)
  s_rng : Det_rng.t;
}

type t = {
  policy : Policy.t;
  max_retries : int;
  cost : Cost.t;
  rng : Det_rng.t;  (* seeds per-slot generators deterministically *)
  mutable last_delay : int;  (* the last decision's backoff *)
  mutable last_victim : int;  (* the last Wound decision's victim, else -1 *)
}

(* Never handed to a live block: it stands for a block not begun yet and
   for an anonymous or unknown owner. *)
let no_slot =
  {
    s_tid = -1;
    s_txid = -1;
    s_first_txid = -1;
    s_birth = 0;
    s_karma = 0;
    s_work = 0;
    s_wounded = false;
    s_rng = Det_rng.create 0;
  }

let create ?(seed = 0) ~max_retries ~cost policy =
  {
    policy;
    max_retries;
    cost;
    rng = Det_rng.create seed;
    last_delay = 0;
    last_victim = -1;
  }

let name t = Policy.to_string t.policy
let tid_of slot = slot.s_tid
let birth slot = slot.s_birth
let karma slot = slot.s_karma
let delay t = t.last_delay
let victim t = t.last_victim

(* ------------------------------------------------------------------ *)
(* Backoff schedules                                                   *)
(* ------------------------------------------------------------------ *)

let backoff_delay (cost : Cost.t) ~attempt =
  let shift = Int.min attempt 16 in
  Int.min (cost.backoff_base * (1 lsl shift)) (Int.max cost.backoff_base cost.backoff_cap)

(* Deterministic per-thread jitter: symmetric contenders that back off by
   identical delays re-collide in lockstep forever (the classic livelock
   randomized backoff prevents); salting the delay with the thread id
   breaks the symmetry while keeping runs reproducible. *)
let jittered_delay cost ~tid ~attempt =
  let d = backoff_delay cost ~attempt in
  d + (d * (tid land 7) / 8) + tid

(* Randomized exponential backoff: uniform in [1, 2^attempt * base],
   capped. Reproducible because the slot's generator is seeded from the
   manager seed and the thread id. *)
let randomized_delay t (slot : slot) ~attempt =
  let bound = Int.max 1 (backoff_delay t.cost ~attempt) in
  1 + Det_rng.int slot.s_rng bound

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let on_begin t slot ~tid ~txid ~now =
  if slot == no_slot then
    {
      s_tid = tid;
      s_txid = txid;
      s_first_txid = txid;
      s_birth = now;
      s_karma = 0;
      s_work = 0;
      s_wounded = false;
      s_rng = Det_rng.create (((tid + 1) * 0x9E3779B9) lxor Det_rng.next t.rng);
    }
  else begin
    (* a restart of the same atomic block: keep age, karma, rng *)
    slot.s_txid <- txid;
    slot.s_work <- 0;
    slot
  end

let on_abort slot ~wounded ~work =
  slot.s_karma <- slot.s_karma + Int.max work slot.s_work;
  slot.s_wounded <- wounded

(* ------------------------------------------------------------------ *)
(* The decision procedure                                              *)
(* ------------------------------------------------------------------ *)

let priority slot = slot.s_karma + slot.s_work

(* Lexicographic age: earlier birth wins, first-incarnation txid breaks
   ties (all clocks are 0 under Cost.free, so the tie-break matters). *)
let older a b =
  a.s_birth < b.s_birth || (a.s_birth = b.s_birth && a.s_first_txid < b.s_first_txid)

(* The decision's delay and victim stay in the manager, not in the
   result: a [Wait of int] would box every spin iteration's answer. The
   caller reads them before its next yield, so no other thread's
   decision can come in between. *)
let wait t delay =
  t.last_delay <- delay;
  t.last_victim <- -1;
  Wait

let wound t ~victim delay =
  t.last_delay <- delay;
  t.last_victim <- victim;
  Wound

let abort_self t =
  t.last_delay <- 0;
  t.last_victim <- -1;
  Abort_self

let decide t self ~owner:owner_slot ~owner_txid ~txid ~tid ~attempt ~work =
  self.s_work <- Int.max self.s_work work;
  let both_known = owner_slot != no_slot in
  let budget_exhausted = attempt >= t.max_retries in
  let jitter = jittered_delay t.cost ~tid ~attempt in
  match t.policy with
  | Policy.Suicide -> if budget_exhausted then abort_self t else wait t jitter
  | Policy.Wound_wait ->
      if budget_exhausted then abort_self t
      else if owner_txid >= 0 && txid < owner_txid then
        wound t ~victim:owner_txid jitter
      else wait t jitter
  | Policy.Exp_backoff ->
      if budget_exhausted then abort_self t
      else wait t (randomized_delay t self ~attempt)
  | Policy.Karma ->
      let s = self and o = owner_slot in
      if budget_exhausted then abort_self t
      else if
        both_known
        && (priority s > priority o
           || (priority s = priority o && s.s_first_txid < o.s_first_txid))
      then wound t ~victim:o.s_txid jitter
      else wait t jitter
  | Policy.Timestamp ->
      if both_known && older self owner_slot then
        (* the oldest transaction never loses - and never gives up,
           even past the retry budget, because its victim may need a
           few more pauses to notice the wound *)
        wound t ~victim:owner_slot.s_txid jitter
      else if both_known then
        (* younger waits for older without burning retry budget: waits
           only ever point from younger to older (a younger owner would
           be wounded instead), so the wait graph follows a total age
           order and cannot cycle. Aborting here would restart-churn
           the young side into exactly the starvation streaks the
           policy exists to prevent. *)
        wait t jitter
      else if budget_exhausted then
        (* anonymous or unknown owner: no age to order against, so fall
           back to bounded retries like everyone else *)
        abort_self t
      else wait t jitter

(* Delay charged between a conflict-driven abort and the block's next
   incarnation. Same schedule the policy uses inside the transaction,
   so Exp_backoff randomizes here too.

   A wound victim gets an extra step-aside deferral: its wounder is
   polling the contested record at jittered-backoff intervals, and if the
   victim restarts inside one of those intervals it re-acquires the
   record first and just gets wounded again - a wound/retry thrash in
   which the winner of every conflict makes no progress. The deferral is
   sized past the largest poll interval so the wounder wins the race. *)
let step_aside t ~tid ~attempt =
  (4 * Int.max t.cost.Cost.backoff_base t.cost.backoff_cap)
  + jittered_delay t.cost ~tid ~attempt

let restart_delay t slot ~attempt =
  let tid = slot.s_tid in
  if slot.s_wounded then begin
    slot.s_wounded <- false;
    step_aside t ~tid ~attempt
  end
  else
    match t.policy with
    | Policy.Exp_backoff -> randomized_delay t slot ~attempt
    | Policy.Suicide | Policy.Wound_wait | Policy.Karma | Policy.Timestamp ->
        jittered_delay t.cost ~tid ~attempt

let string_of_decision = function
  | Wait -> "wait"
  | Wound -> "wound"
  | Abort_self -> "abort-self"
