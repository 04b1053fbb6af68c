open Stm_runtime

(* The contention manager proper: per-block priority state plus the
   decision procedure each policy applies at a conflict. The manager is
   deliberately independent of the STM core - it sees a transaction only
   as its block's slot plus the (tid, txid, clock) and work counters the
   core feeds it - so the core can depend on it without a cycle, and
   policies can be unit-tested without a heap or a scheduler. *)

type decision =
  | Wait of int  (* back off this many cycles, then retry the access *)
  | Wound of { victim : int; delay : int }
      (* kill the owning transaction, then back off and retry *)
  | Abort_self

type conflict = {
  txid : int;
  tid : int;
  attempt : int;  (* failures so far for this access *)
  writer : bool;
  work : int;  (* read/write-set footprint of the asking transaction *)
  owner : int option;  (* owning txid; None for anonymous (non-txn) owners *)
  now : int;  (* asking thread's cost clock *)
}

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
  { policy; max_retries; cost; rng = Det_rng.create seed }

let policy t = t.policy
let name t = Policy.to_string t.policy
let tid_of slot = slot.s_tid
let birth slot = slot.s_birth
let karma slot = slot.s_karma

(* ------------------------------------------------------------------ *)
(* Backoff schedules                                                   *)
(* ------------------------------------------------------------------ *)

let backoff_delay (cost : Cost.t) ~attempt =
  let shift = min attempt 16 in
  min (cost.backoff_base * (1 lsl shift)) (max cost.backoff_base cost.backoff_cap)

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
  let bound = max 1 (backoff_delay t.cost ~attempt) in
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
  slot.s_karma <- slot.s_karma + max work slot.s_work;
  slot.s_wounded <- wounded

(* ------------------------------------------------------------------ *)
(* The decision procedure                                              *)
(* ------------------------------------------------------------------ *)

let priority slot = slot.s_karma + slot.s_work

(* Lexicographic age: earlier birth wins, first-incarnation txid breaks
   ties (all clocks are 0 under Cost.free, so the tie-break matters). *)
let older a b =
  a.s_birth < b.s_birth || (a.s_birth = b.s_birth && a.s_first_txid < b.s_first_txid)

let on_conflict t self ~owner:owner_slot (c : conflict) =
  self.s_work <- max self.s_work c.work;
  let both_known = owner_slot != no_slot in
  let budget_exhausted = c.attempt >= t.max_retries in
  let jitter () = jittered_delay t.cost ~tid:c.tid ~attempt:c.attempt in
  match t.policy with
  | Policy.Suicide ->
      if budget_exhausted then Abort_self else Wait (jitter ())
  | Policy.Wound_wait ->
      if budget_exhausted then Abort_self
      else (
        match c.owner with
        | Some o when c.txid < o -> Wound { victim = o; delay = jitter () }
        | Some _ | None -> Wait (jitter ()))
  | Policy.Exp_backoff ->
      if budget_exhausted then Abort_self
      else Wait (randomized_delay t self ~attempt:c.attempt)
  | Policy.Karma ->
      let s = self and o = owner_slot in
      if budget_exhausted then Abort_self
      else if
        both_known
        && (priority s > priority o
           || (priority s = priority o && s.s_first_txid < o.s_first_txid))
      then Wound { victim = o.s_txid; delay = jitter () }
      else Wait (jitter ())
  | Policy.Timestamp ->
      if both_known && older self owner_slot then
        (* the oldest transaction never loses - and never gives up,
           even past the retry budget, because its victim may need a
           few more pauses to notice the wound *)
        Wound { victim = owner_slot.s_txid; delay = jitter () }
      else if both_known then
        (* younger waits for older without burning retry budget: waits
           only ever point from younger to older (a younger owner would
           be wounded instead), so the wait graph follows a total age
           order and cannot cycle. Aborting here would restart-churn
           the young side into exactly the starvation streaks the
           policy exists to prevent. *)
        Wait (jitter ())
      else if budget_exhausted then
        (* anonymous or unknown owner: no age to order against, so fall
           back to bounded retries like everyone else *)
        Abort_self
      else Wait (jitter ())

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
  (4 * max t.cost.Cost.backoff_base t.cost.backoff_cap)
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
  | Wait _ -> "wait"
  | Wound _ -> "wound"
  | Abort_self -> "abort-self"
