(* The contention-management subsystem: policy decision procedures (pure
   unit tests against Stm_cm.Cm), fairness accounting, the retry-budget /
   starvation contract of Stm.atomic, and the livelock stress scenarios'
   designed outcomes (timestamp starvation-free, suicide not). *)

open Stm_core
open Stm_runtime
module Cm = Stm_cm.Cm
module Policy = Stm_cm.Policy
module Fairness = Stm_cm.Fairness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Policy naming                                                       *)
(* ------------------------------------------------------------------ *)

let policy_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check (option (of_pp Policy.pp)))
        (Policy.to_string p) (Some p)
        (Policy.of_string (Policy.to_string p)))
    Policy.all

let policy_aliases () =
  let some p = Some p in
  Alcotest.(check (option (of_pp Policy.pp)))
    "wound_wait" (some Policy.Wound_wait)
    (Policy.of_string "wound_wait");
  Alcotest.(check (option (of_pp Policy.pp)))
    "greedy" (some Policy.Timestamp)
    (Policy.of_string "greedy");
  Alcotest.(check (option (of_pp Policy.pp)))
    "bogus" None (Policy.of_string "bogus")

(* ------------------------------------------------------------------ *)
(* Decision procedures (no scheduler, no heap)                         *)
(* ------------------------------------------------------------------ *)

let retries = 4

let manager ?(seed = 0) policy = Cm.create ~seed ~max_retries:retries ~cost:Cost.default policy

(* Two contenders on one manager: txid 1 (thread 1, born at 0) and
   txid 2 (thread 2, born at [birth2]), each the first incarnation of its
   block. *)
let two_txns ?(birth2 = 10) m =
  let s1 = Cm.on_begin m Cm.no_slot ~tid:1 ~txid:1 ~now:0 in
  let s2 = Cm.on_begin m Cm.no_slot ~tid:2 ~txid:2 ~now:birth2 in
  (s1, s2)

(* One conflict as the core reports it; [owner] is the owning txid, or
   [None] for an anonymous owner. *)
type conflict = { txid : int; tid : int; attempt : int; work : int; owner : int option }

let conflict ?(attempt = 0) ?(work = 1) ~txid ~tid ~owner () =
  { txid; tid; attempt; work; owner }

(* A decision with the delay and victim [Cm.decide] leaves in the
   manager, as one value the assertions can compare. *)
type decision = Wait of int | Wound of { victim : int; delay : int } | Abort_self

let pp_decision ppf = function
  | Wait d -> Fmt.pf ppf "wait %d" d
  | Wound { victim; delay } -> Fmt.pf ppf "wound %d after %d" victim delay
  | Abort_self -> Fmt.string ppf "abort-self"

let decide m s ~owner c =
  match
    Cm.decide m s ~owner
      ~owner_txid:(Option.value ~default:(-1) c.owner)
      ~txid:c.txid ~tid:c.tid ~attempt:c.attempt ~work:c.work
  with
  | Cm.Wait -> Wait (Cm.delay m)
  | Cm.Wound -> Wound { victim = Cm.victim m; delay = Cm.delay m }
  | Cm.Abort_self ->
      check_int "no delay after abort-self" 0 (Cm.delay m);
      Abort_self

let is_wait = function Wait _ -> true | _ -> false
let is_abort_self = function Abort_self -> true | _ -> false

let wound_victim = function
  | Wound { victim; _ } -> Some victim
  | _ -> None

let suicide_waits_then_aborts () =
  let m = manager Policy.Suicide in
  let s1, s2 = two_txns m in
  check_bool "waits below budget" true
    (is_wait (decide m s1 ~owner:s2 (conflict ~txid:1 ~tid:1 ~owner:(Some 2) ())));
  check_bool "never wounds, aborts itself at budget" true
    (is_abort_self
       (decide m s1 ~owner:s2
          (conflict ~attempt:retries ~txid:1 ~tid:1 ~owner:(Some 2) ())))

let wound_wait_by_txid () =
  let m = manager Policy.Wound_wait in
  let s1, s2 = two_txns m in
  Alcotest.(check (option int))
    "older txid wounds" (Some 2)
    (wound_victim
       (decide m s1 ~owner:s2 (conflict ~txid:1 ~tid:1 ~owner:(Some 2) ())));
  check_bool "younger txid waits" true
    (is_wait (decide m s2 ~owner:s1 (conflict ~txid:2 ~tid:2 ~owner:(Some 1) ())));
  check_bool "budget still bounds the younger side" true
    (is_abort_self
       (decide m s2 ~owner:s1
          (conflict ~attempt:retries ~txid:2 ~tid:2 ~owner:(Some 1) ())))

let timestamp_oldest_never_loses () =
  let m = manager Policy.Timestamp in
  let s1, s2 = two_txns m in
  Alcotest.(check (option int))
    "oldest wounds even past the budget" (Some 2)
    (wound_victim
       (decide m s1 ~owner:s2
          (conflict ~attempt:(retries + 3) ~txid:1 ~tid:1 ~owner:(Some 2) ())));
  check_bool "younger waits without burning budget" true
    (is_wait
       (decide m s2 ~owner:s1
          (conflict ~attempt:(retries + 3) ~txid:2 ~tid:2 ~owner:(Some 1) ())));
  check_bool "anonymous owner falls back to bounded retries" true
    (is_abort_self
       (decide m s2 ~owner:Cm.no_slot
          (conflict ~attempt:retries ~txid:2 ~tid:2 ~owner:None ())))

let timestamp_age_survives_restart () =
  let m = manager Policy.Timestamp in
  let s1, s2 = two_txns m in
  (* txn 1 aborts and its block restarts as txid 3 in the same slot: it
     keeps its birth, so it still outranks txn 2 even though 3 > 2 *)
  Cm.on_abort s1 ~wounded:false ~work:5;
  let s3 = Cm.on_begin m s1 ~tid:1 ~txid:3 ~now:90 in
  check_bool "the restart keeps the slot" true (s3 == s1);
  check_int "and its birth" 0 (Cm.birth s3);
  Alcotest.(check (option int))
    "restarted incarnation keeps its age" (Some 2)
    (wound_victim
       (decide m s3 ~owner:s2 (conflict ~txid:3 ~tid:1 ~owner:(Some 2) ())))

let timestamp_age_dropped_on_giveup () =
  let m = manager Policy.Timestamp in
  let s1, s2 = two_txns m in
  (* txn 1's block is torn down for good; its thread's next block starts
     from no slot, is younger than txn 2 and must wait, not wound *)
  Cm.on_abort s1 ~wounded:false ~work:5;
  let s3 = Cm.on_begin m Cm.no_slot ~tid:1 ~txid:3 ~now:90 in
  check_int "a fresh slot is born now" 90 (Cm.birth s3);
  check_bool "fresh block after give-up is younger" true
    (is_wait (decide m s3 ~owner:s2 (conflict ~txid:3 ~tid:1 ~owner:(Some 2) ())))

let karma_banks_lost_work () =
  let m = manager Policy.Karma in
  let s1, s2 = two_txns m in
  (* equal priority: txn 2 (larger first-txid) loses the tie-break and
     waits. [work] counts toward priority, so keep both sides at zero. *)
  check_bool "no karma yet: waits" true
    (is_wait
       (decide m s2 ~owner:s1
          (conflict ~work:0 ~txid:2 ~tid:2 ~owner:(Some 1) ())));
  (* two aborted incarnations bank karma for the block *)
  Cm.on_abort s2 ~wounded:false ~work:10;
  let s4 = Cm.on_begin m s2 ~tid:2 ~txid:4 ~now:60 in
  Cm.on_abort s4 ~wounded:false ~work:10;
  let s5 = Cm.on_begin m s4 ~tid:2 ~txid:5 ~now:70 in
  check_int "karma banked across incarnations" 20 (Cm.karma s5);
  Alcotest.(check (option int))
    "banked karma now outranks the owner" (Some 1)
    (wound_victim
       (decide m s5 ~owner:s1
          (conflict ~work:0 ~txid:5 ~tid:2 ~owner:(Some 1) ())))

let exp_backoff_seeded () =
  let delays seed =
    let m = manager ~seed Policy.Exp_backoff in
    let s = Cm.on_begin m Cm.no_slot ~tid:1 ~txid:1 ~now:0 in
    List.init retries (fun attempt ->
        match
          decide m s ~owner:Cm.no_slot
            (conflict ~attempt ~txid:1 ~tid:1 ~owner:None ())
        with
        | Wait d -> d
        | _ -> Alcotest.fail "expected Wait")
  in
  Alcotest.(check (list int)) "same seed, same delays" (delays 7) (delays 7);
  check_bool "delays are positive" true (List.for_all (fun d -> d > 0) (delays 7));
  check_bool "different seeds diverge" true (delays 7 <> delays 8)

(* The decision procedure as it stood when it returned a boxed decision
   from a conflict record, over a model of the slot: the reference
   [Cm.decide] is checked against. The model slot mirrors what
   [Cm.on_begin] and [Cm.on_abort] keep, the manager's seeding of each
   block's generator included. *)
module Reference = struct
  type slot = {
    s_tid : int;
    mutable s_txid : int;
    s_first_txid : int;
    s_birth : int;
    mutable s_karma : int;
    mutable s_work : int;
    s_rng : Det_rng.t;
  }

  type t = { policy : Policy.t; max_retries : int; cost : Cost.t; rng : Det_rng.t }

  let create ~seed ~max_retries ~cost policy =
    { policy; max_retries; cost; rng = Det_rng.create seed }

  let no_slot =
    {
      s_tid = -1;
      s_txid = -1;
      s_first_txid = -1;
      s_birth = 0;
      s_karma = 0;
      s_work = 0;
      s_rng = Det_rng.create 0;
    }

  let on_begin t slot ~tid ~txid ~now =
    if slot == no_slot then
      {
        s_tid = tid;
        s_txid = txid;
        s_first_txid = txid;
        s_birth = now;
        s_karma = 0;
        s_work = 0;
        s_rng = Det_rng.create (((tid + 1) * 0x9E3779B9) lxor Det_rng.next t.rng);
      }
    else begin
      slot.s_txid <- txid;
      slot.s_work <- 0;
      slot
    end

  let on_abort slot ~work = slot.s_karma <- slot.s_karma + max work slot.s_work

  let randomized_delay t slot ~attempt =
    let bound = max 1 (Cm.backoff_delay t.cost ~attempt) in
    1 + Det_rng.int slot.s_rng bound

  let priority slot = slot.s_karma + slot.s_work

  let older a b =
    a.s_birth < b.s_birth || (a.s_birth = b.s_birth && a.s_first_txid < b.s_first_txid)

  let on_conflict t self ~owner:owner_slot (c : conflict) =
    self.s_work <- max self.s_work c.work;
    let both_known = owner_slot != no_slot in
    let budget_exhausted = c.attempt >= t.max_retries in
    let jitter () = Cm.jittered_delay t.cost ~tid:c.tid ~attempt:c.attempt in
    match t.policy with
    | Policy.Suicide -> if budget_exhausted then Abort_self else Wait (jitter ())
    | Policy.Wound_wait -> (
        if budget_exhausted then Abort_self
        else
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
          Wound { victim = owner_slot.s_txid; delay = jitter () }
        else if both_known then Wait (jitter ())
        else if budget_exhausted then Abort_self
        else Wait (jitter ())
end

(* A random contention history on two blocks, replayed through [Cm] and
   through [Reference]: each block's births, its restarts (fresh
   incarnations that bank the lost work as karma), then conflicts with
   random attempts and work, where the owner is the other block, a known
   txid with no slot, or anonymous. *)
type scenario = {
  policy : Policy.t;
  seed : int;
  max_retries : int;
  backoff : int * int;  (* base, cap *)
  blocks : (int * int * int) list;  (* tid, first txid, birth *)
  restarts : (int * int) list;  (* block, lost work *)
  conflicts : (int * int * int * int * int) list;
      (* asker block, owner kind (0 other block, 1 unknown, 2 anonymous),
         asking txid, attempt, work *)
}

let gen_scenario =
  let open QCheck.Gen in
  let* policy = oneofl Policy.all in
  let* seed = int_bound 1000 in
  let* max_retries = int_bound 6 in
  let* base = int_range 1 64 in
  let* cap = int_bound 5000 in
  let* blocks =
    list_repeat 2 (triple (int_bound 7) (int_range 1 9) (int_bound 3))
  in
  let* restarts = list_size (int_bound 4) (pair (int_bound 1) (int_bound 12)) in
  let+ conflicts =
    list_size (int_range 1 12)
      (let* who = int_bound 1 in
       let* kind = int_bound 2 in
       let* txid = int_range 1 12 in
       let* attempt = int_bound 20 in
       let+ work = int_bound 8 in
       (who, kind, txid, attempt, work))
  in
  { policy; seed; max_retries; backoff = (base, cap); blocks; restarts; conflicts }

let print_scenario sc =
  Fmt.str "%s seed %d retries %d backoff (%d, %d) blocks %a restarts %a conflicts %a"
    (Policy.to_string sc.policy) sc.seed sc.max_retries (fst sc.backoff) (snd sc.backoff)
    Fmt.(Dump.list (fun ppf (a, b, c) -> pf ppf "(%d, %d, %d)" a b c))
    sc.blocks
    Fmt.(Dump.list (Dump.pair int int))
    sc.restarts
    Fmt.(Dump.list (fun ppf (a, b, c, d, e) -> pf ppf "(%d, %d, %d, %d, %d)" a b c d e))
    sc.conflicts

let decide_matches_reference sc =
  let base, cap = sc.backoff in
  let cost = { Cost.default with Cost.backoff_base = base; backoff_cap = cap } in
  let m = Cm.create ~seed:sc.seed ~max_retries:sc.max_retries ~cost sc.policy in
  let r = Reference.create ~seed:sc.seed ~max_retries:sc.max_retries ~cost sc.policy in
  let begun =
    List.map
      (fun (tid, txid, birth) ->
        ( tid,
          ref (Cm.on_begin m Cm.no_slot ~tid ~txid ~now:birth),
          ref (Reference.on_begin r Reference.no_slot ~tid ~txid ~now:birth) ))
      sc.blocks
    |> Array.of_list
  in
  (* a restart's txid is above every txid a scenario draws *)
  List.iteri
    (fun i (b, work) ->
      let tid, s, rs = begun.(b) in
      Cm.on_abort !s ~wounded:false ~work;
      Reference.on_abort !rs ~work;
      s := Cm.on_begin m !s ~tid ~txid:(100 + i) ~now:0;
      rs := Reference.on_begin r !rs ~tid ~txid:(100 + i) ~now:0)
    sc.restarts;
  List.for_all
    (fun (who, kind, txid, attempt, work) ->
      let tid, s, rs = begun.(who) in
      let _, o, ro = begun.(1 - who) in
      let owner, ref_owner, owner_txid =
        match kind with
        | 0 -> (!o, !ro, Some !ro.Reference.s_txid)
        | 1 -> (Cm.no_slot, Reference.no_slot, Some 50)
        | _ -> (Cm.no_slot, Reference.no_slot, None)
      in
      let c = { txid; tid; attempt; work; owner = owner_txid } in
      let got = decide m !s ~owner c in
      let want = Reference.on_conflict r !rs ~owner:ref_owner c in
      if got <> want then
        QCheck.Test.fail_reportf "decide %a, reference %a" pp_decision got pp_decision
          want;
      true)
    sc.conflicts

let decide_qcheck =
  QCheck.Test.make ~count:500 ~name:"decide matches the boxed-decision reference"
    (QCheck.make ~print:print_scenario gen_scenario)
    decide_matches_reference

let backoff_schedule () =
  let cost = { Cost.default with Cost.backoff_base = 10; backoff_cap = 100 } in
  check_int "attempt 0" 10 (Cm.backoff_delay cost ~attempt:0);
  check_int "attempt 2" 40 (Cm.backoff_delay cost ~attempt:2);
  check_int "capped" 100 (Cm.backoff_delay cost ~attempt:20);
  check_bool "jitter separates threads" true
    (Cm.jittered_delay cost ~tid:1 ~attempt:3
    <> Cm.jittered_delay cost ~tid:2 ~attempt:3)

(* ------------------------------------------------------------------ *)
(* The block's slot through Stm.atomic / atomic_open                   *)
(* ------------------------------------------------------------------ *)

(* Run [body] as a simulated program and hand back what it recorded. *)
let simulate ?(cfg = Config.eager_weak) body =
  let out = ref None in
  let result, _ = Stm.run ~cfg (fun () -> out := Some (body ())) in
  check_bool "run completed" true (result.Sched.status = Sched.Completed);
  check_int "no escaped exception" 0 (List.length result.Sched.exns);
  Option.get !out

(* Every incarnation of one block: its slot, birth and karma. Attempt 0
   writes three fields (three accesses of work) and leaves through
   [leave]; attempt 1 commits. *)
let incarnations leave =
  simulate (fun () ->
      let o = Stm.alloc_public ~cls:"C" 3 in
      let seen = ref [] in
      Stm.atomic (fun () ->
          let s = Stm.cm_slot () in
          seen := (s, Cm.birth s, Cm.karma s) :: !seen;
          if List.length !seen = 1 then begin
            for f = 0 to 2 do
              Stm.write o f (Stm.vint 1)
            done;
            leave ()
          end);
      List.rev !seen)

let check_same_block what = function
  | [ (s0, b0, k0); (s1, b1, k1) ] ->
      check_bool (what ^ ": same slot, so same rng") true (s1 == s0);
      check_int (what ^ ": birth kept") b0 b1;
      check_int (what ^ ": lost work banked") (k0 + 3) k1
  | l -> Alcotest.failf "%s: %d incarnations, expected 2" what (List.length l)

let conflict_restart_keeps_slot () =
  check_same_block "conflict restart" (incarnations Stm.abort_and_retry)

(* A retried block keeps its slot too. Under timestamp and karma
   [retry()] can livelock (five philosophers waiting for forks); a fix
   that gives a retried block a new slot flips this test on purpose. *)
let retry_keeps_slot () = check_same_block "retry" (incarnations Stm.retry)

(* The first slot of the block that fails, and the slot of the thread's
   next block. *)
let slot_after ?cfg failing =
  simulate ?cfg (fun () ->
      let first = ref Cm.no_slot in
      (try failing (fun () -> if !first == Cm.no_slot then first := Stm.cm_slot ())
       with Failure _ | Stm.Starved _ -> ());
      let next = Stm.atomic Stm.cm_slot in
      (!first, next))

let check_fresh what (first, next) =
  check_bool (what ^ ": the failed block had a slot") true (first != Cm.no_slot);
  check_bool (what ^ ": next block has its own slot") true (next != first);
  check_bool (what ^ ": born later") true (Cm.birth next > Cm.birth first);
  check_int (what ^ ": no karma carried over") 0 (Cm.karma next)

let fresh_slot_after_exception () =
  check_fresh "caught exception"
    (slot_after (fun note ->
         Stm.atomic (fun () ->
             note ();
             failwith "boom")))

let fresh_slot_after_starved () =
  let cfg = { Config.eager_weak with Config.max_txn_retries = 3; max_txn_restarts = 2 } in
  check_fresh "Starved"
    (slot_after ~cfg (fun note ->
         let o = Stm.alloc_public ~cls:"C" 1 in
         ignore (Barriers.acquire_anon (Stm.config ()) (Stm.stats ()) o : int);
         Stm.atomic (fun () ->
             note ();
             Stm.write o 0 (Stm.vint 1))))

(* The child restarts once; the parent runs once and its slot neither
   changes nor banks the child's lost work. *)
let open_child_has_own_slot () =
  let parent, before, after, children =
    simulate (fun () ->
        let o = Stm.alloc_public ~cls:"C" 1 in
        Stm.atomic (fun () ->
            let p = Stm.cm_slot () in
            let before = (Cm.birth p, Cm.karma p) in
            let children = ref [] in
            Stm.atomic_open (fun () ->
                children := Stm.cm_slot () :: !children;
                Stm.write o 0 (Stm.vint 1);
                if List.length !children = 1 then Stm.abort_and_retry ());
            check_bool "parent's slot is back" true (Stm.cm_slot () == p);
            (p, before, (Cm.birth p, Cm.karma p), !children)))
  in
  match children with
  | [ c1; c0 ] ->
      check_bool "child has its own slot" true (c0 != parent);
      check_bool "child's restart keeps the child's slot" true (c1 == c0);
      check_int "child banked its lost work" 1 (Cm.karma c0);
      Alcotest.(check (pair int int)) "parent's birth and karma untouched" before after
  | l -> Alcotest.failf "%d child incarnations, expected 2" (List.length l)

(* A retry inside an open-nested child aborts the child and retries the
   top-level parent, which keeps its slot; the child's next run, in the
   parent's next incarnation, gets a fresh one. *)
let open_child_retry_propagates () =
  let parents, children =
    simulate (fun () ->
        let parents = ref [] and children = ref [] in
        Stm.atomic (fun () ->
            parents := Stm.cm_slot () :: !parents;
            Stm.atomic_open (fun () ->
                children := Stm.cm_slot () :: !children;
                if List.length !children = 1 then Stm.retry ()));
        (!parents, !children))
  in
  match (parents, children) with
  | [ p1; p0 ], [ c1; c0 ] ->
      check_bool "parent retried in its own slot" true (p1 == p0);
      check_bool "child's next run has a fresh slot" true (c1 != c0)
  | _ ->
      Alcotest.failf "%d parent and %d child incarnations, expected 2 and 2"
        (List.length parents) (List.length children)

(* ------------------------------------------------------------------ *)
(* Fairness accounting                                                 *)
(* ------------------------------------------------------------------ *)

let jain_index () =
  let f = Fairness.create () in
  Alcotest.(check (float 1e-9)) "empty is fair" 1.0 (Fairness.jain f);
  Fairness.on_commit f ~tid:1;
  Fairness.on_commit f ~tid:2;
  Fairness.on_commit f ~tid:3;
  Alcotest.(check (float 1e-9)) "uniform is fair" 1.0 (Fairness.jain f);
  let g = Fairness.create () in
  Fairness.on_commit g ~tid:1;
  Fairness.on_abort g ~tid:2 ~wasted:5;
  Fairness.on_abort g ~tid:3 ~wasted:5;
  Alcotest.(check (float 1e-9))
    "one of three threads gets everything" (1. /. 3.) (Fairness.jain g)

let abort_streaks () =
  let f = Fairness.create () in
  Fairness.on_abort f ~tid:1 ~wasted:10;
  Fairness.on_abort f ~tid:1 ~wasted:10;
  Fairness.on_commit f ~tid:1;
  Fairness.on_abort f ~tid:1 ~wasted:10;
  check_int "streak resets on commit" 2 (Fairness.max_consec_aborts_of f ~tid:1);
  check_int "totals keep counting" 3 (Fairness.aborts f ~tid:1);
  check_int "wasted accumulates" 30 (Fairness.wasted_cycles f ~tid:1)

let starved_rules () =
  let f = Fairness.create () in
  (* tid 1: long streak but eventually commits - starved by threshold *)
  for _ = 1 to 5 do
    Fairness.on_abort f ~tid:1 ~wasted:1
  done;
  Fairness.on_commit f ~tid:1;
  (* tid 2: a single abort and no commit ever - starved by zero progress *)
  Fairness.on_abort f ~tid:2 ~wasted:1;
  (* tid 3: healthy *)
  Fairness.on_commit f ~tid:3;
  Alcotest.(check (list int))
    "threshold and zero-commit rules" [ 1; 2 ]
    (Fairness.starved f ~threshold:5);
  Alcotest.(check (list int))
    "higher threshold keeps only the zero-commit thread" [ 2 ]
    (Fairness.starved f ~threshold:6)

let fairness_window () =
  let f = Fairness.create () in
  Fairness.on_commit f ~tid:1;
  Fairness.on_abort f ~tid:1 ~wasted:7;
  let early = Fairness.copy f in
  Fairness.on_commit f ~tid:1;
  Fairness.on_commit f ~tid:2;
  let w = Fairness.sub f early in
  check_int "window commits" 1 (Fairness.commits w ~tid:1);
  check_int "window aborts" 0 (Fairness.aborts w ~tid:1);
  check_int "new thread appears in window" 1 (Fairness.commits w ~tid:2)

(* ------------------------------------------------------------------ *)
(* Retry budget / Stm.Starved, under every policy                      *)
(* ------------------------------------------------------------------ *)

(* A record held by an anonymous (non-transactional) owner can never be
   wounded, so every policy - including timestamp - must fall back to the
   bounded retry budget and give the runner a clean [Starved] instead of
   spinning forever. *)
let starved_after_budget policy () =
  let cfg =
    {
      Config.eager_weak with
      Config.cm = policy;
      cost = Cost.free;
      max_txn_retries = 3;
      max_txn_restarts = 2;
    }
  in
  let outcome = ref None in
  let result, _ =
    Stm.run ~cfg (fun () ->
        let obj = Stm.alloc_public ~cls:"T" 1 in
        Stm.write obj 0 (Stm.vint 0);
        let word = Barriers.acquire_anon (Stm.config ()) (Stm.stats ()) obj in
        (try Stm.atomic (fun () -> Stm.write obj 0 (Stm.vint 1))
         with Stm.Starved { attempts } -> outcome := Some attempts);
        Barriers.release_anon (Stm.config ()) obj word)
  in
  check_bool "run completed" true (result.Sched.status = Sched.Completed);
  Alcotest.(check (list (pair int Alcotest.reject)))
    "no escaped exceptions" []
    (List.map (fun (t, e) -> (t, e)) result.Sched.exns);
  Alcotest.(check (option int))
    "Starved after max_txn_restarts attempts" (Some 2) !outcome

let starved_cases =
  List.map
    (fun p ->
      Alcotest.test_case
        ("Starved under " ^ Policy.to_string p)
        `Quick (starved_after_budget p))
    Policy.all

(* ------------------------------------------------------------------ *)
(* Stress scenarios: the designed contrast                             *)
(* ------------------------------------------------------------------ *)

module Stress = Stm_harness.Stress

let timestamp_starvation_free scenario () =
  let r = Stress.run ~seed:0 ~cm:Policy.Timestamp scenario in
  check_bool "completed within fuel" true r.Stress.completed;
  Alcotest.(check (list int)) "no starved thread" [] r.Stress.starved

let suicide_starves_on_ring () =
  let r = Stress.run ~seed:0 ~cm:Policy.Suicide Stress.Inversion_chain in
  check_bool "still makes eventual progress" true r.Stress.completed;
  check_bool "but some thread starves" true (r.Stress.starved <> []);
  check_bool "with a pathological abort streak" true
    (Fairness.max_consec_aborts (Stm_obs.Metrics.fairness r.Stress.metrics)
    >= Stress.starvation_threshold)

let every_policy_completes scenario () =
  List.iter
    (fun p ->
      let r = Stress.run ~seed:0 ~cm:p scenario in
      check_bool (Policy.to_string p ^ " completes") true r.Stress.completed)
    Policy.all

let stress_deterministic () =
  let r1 = Stress.run ~seed:0 ~cm:Policy.Timestamp Stress.Long_vs_short in
  let r2 = Stress.run ~seed:0 ~cm:Policy.Timestamp Stress.Long_vs_short in
  check_int "same makespan" r1.Stress.makespan r2.Stress.makespan;
  check_int "same aborts" r1.Stress.stats.Stats.aborts r2.Stress.stats.Stats.aborts;
  let r3 = Stress.run ~seed:1 ~cm:Policy.Timestamp Stress.Long_vs_short in
  check_bool "different seed, different schedule" true
    (r3.Stress.makespan <> r1.Stress.makespan
    || r3.Stress.stats.Stats.aborts <> r1.Stress.stats.Stats.aborts)

let case name f = Alcotest.test_case name `Quick f

let suite =
  [
    ( "cm:policy",
      [
        case "to_string/of_string roundtrip" policy_roundtrip;
        case "aliases" policy_aliases;
        case "backoff schedule" backoff_schedule;
      ] );
    ( "cm:decisions",
      [
        case "suicide waits then aborts itself" suicide_waits_then_aborts;
        case "wound-wait wounds by txid order" wound_wait_by_txid;
        case "timestamp: oldest never loses" timestamp_oldest_never_loses;
        case "timestamp: age survives restart" timestamp_age_survives_restart;
        case "timestamp: age dropped on give-up" timestamp_age_dropped_on_giveup;
        case "karma banks lost work" karma_banks_lost_work;
        case "exp-backoff is seeded and reproducible" exp_backoff_seeded;
        QCheck_alcotest.to_alcotest decide_qcheck;
      ] );
    ( "cm:block-slot",
      [
        case "a conflict restart keeps birth, karma and rng" conflict_restart_keeps_slot;
        case "retry() keeps birth, karma and rng" retry_keeps_slot;
        case "a caught exception's next block is fresh" fresh_slot_after_exception;
        case "a caught Starved's next block is fresh" fresh_slot_after_starved;
        case "an open-nested child has its own slot" open_child_has_own_slot;
        case "retry in an open-nested child retries the parent" open_child_retry_propagates;
      ] );
    ( "cm:fairness",
      [
        case "jain index" jain_index;
        case "consecutive-abort streaks" abort_streaks;
        case "starvation rules" starved_rules;
        case "snapshot windows" fairness_window;
      ] );
    ("cm:starved", starved_cases);
    ( "cm:stress",
      [
        case "timestamp starvation-free: long-vs-short"
          (timestamp_starvation_free Stress.Long_vs_short);
        case "timestamp starvation-free: livelock-pair"
          (timestamp_starvation_free Stress.Livelock_pair);
        case "timestamp starvation-free: inversion-chain"
          (timestamp_starvation_free Stress.Inversion_chain);
        case "suicide starves on the ring" suicide_starves_on_ring;
        case "every policy completes the livelock pair"
          (every_policy_completes Stress.Livelock_pair);
        case "stress runs are deterministic per seed" stress_deterministic;
      ] );
  ]
