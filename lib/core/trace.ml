type level = Debug | History | Info

type barrier_op = Op_read | Op_read_ordering | Op_write | Op_txn_read | Op_txn_write
type barrier_path = Path_fired | Path_private | Path_elided

type abort_cause =
  | Cause_conflict
  | Cause_validation
  | Cause_stale_lock
  | Cause_wounded
  | Cause_retry
  | Cause_snapshot
  | Cause_exn

type event =
  | Txn_begin of { txid : int; tid : int }
  | Txn_commit of { txid : int; tid : int; reads : int; writes : int; latency : int }
  | Txn_abort of {
      txid : int;
      tid : int;
      wounded : bool;
      cause : abort_cause;
      latency : int;
      by : int;
      by_tid : int;
      oid : int;
    }
  | Txn_wound of { victim : int; by : int }
  | Conflict of { tid : int; oid : int; cls : string; writer : bool; site : int }
  | Publish of { oid : int; cls : string }
  | Quiesce_wait of { txid : int }
  | Barrier of { tid : int; site : int; op : barrier_op; path : barrier_path }
  | Backoff of { tid : int; attempt : int; delay : int }
  | Validation of { txid : int; tid : int; ok : bool }
  | Cm_decision of {
      tid : int;
      txid : int;
      policy : string;
      decision : string;
      owner : int;
      delay : int;
    }
  | Access of {
      tid : int;
      txid : int;
      oid : int;
      fld : int;
      value : Stm_runtime.Heap.value;
      write : bool;
    }
  | Txn_serialized of { txid : int; tid : int }

(* Intrinsic verbosity of each event kind: per-access diagnostics are
   [Debug]; the completed accesses and serialization points a history is
   built from are [History]; transaction-lifecycle and structural events
   are [Info]. *)
let event_level = function
  | Barrier _ | Backoff _ | Validation _ | Cm_decision _ -> Debug
  | Access _ | Txn_serialized _ -> History
  | Txn_begin _ | Txn_commit _ | Txn_abort _ | Txn_wound _ | Conflict _
  | Publish _ | Quiesce_wait _ ->
      Info

(* The subscriber set, in subscription order. Levels compare as ranks,
   [Debug] 0, [History] 1 and [Info] 2: a subscriber of rank [k] takes
   the events of rank [k] and above. [eff] caches the minimum rank over the set
   ([closed] when it is empty), so a level test is one load and one
   compare; the access paths make it inline (see the interface). *)
type sub = { rank : int; deliver : event -> unit }

let rank = function Debug -> 0 | History -> 1 | Info -> 2
let closed = 3
let subs : sub list ref = ref []
let eff = ref closed

let install set =
  subs := set;
  eff := List.fold_left (fun m s -> Int.min m s.rank) closed set

let with_sinks sinks body =
  let outer = !subs in
  install
    (outer @ List.map (fun (level, deliver) -> { rank = rank level; deliver }) sinks);
  Fun.protect ~finally:(fun () -> install outer) body

let set_sink ?(level = Debug) = function
  | None -> install []
  | Some deliver -> install [ { rank = rank level; deliver } ]

let rec deliver r ev = function
  | [] -> ()
  | s :: rest ->
      if r >= s.rank then s.deliver ev;
      deliver r ev rest

(* Call sites build the event only behind [enabled_at], so a filtered
   level costs one compare and no allocation; the check here only keeps
   an unguarded emit from walking the set. *)
let emit ev =
  let r = rank (event_level ev) in
  if r >= !eff then deliver r ev !subs

let enabled () = !eff < closed
let enabled_at level = rank level >= !eff

let string_of_cause = function
  | Cause_conflict -> "conflict"
  | Cause_validation -> "validation"
  | Cause_stale_lock -> "stale-lock"
  | Cause_wounded -> "wounded"
  | Cause_retry -> "retry"
  | Cause_snapshot -> "snapshot-too-old"
  | Cause_exn -> "exception"

let string_of_op = function
  | Op_read -> "read"
  | Op_read_ordering -> "read-ordering"
  | Op_write -> "write"
  | Op_txn_read -> "txn-read"
  | Op_txn_write -> "txn-write"

let string_of_path = function
  | Path_fired -> "fired"
  | Path_private -> "private"
  | Path_elided -> "elided"

let pp_event ppf = function
  | Txn_begin { txid; tid } -> Fmt.pf ppf "txn %d begin (thread %d)" txid tid
  | Txn_commit { txid; tid; reads; writes; latency } ->
      Fmt.pf ppf "txn %d commit (thread %d, %d reads, %d writes, %d cycles)"
        txid tid reads writes latency
  | Txn_abort { txid; tid; wounded; cause; latency; by; oid; _ } ->
      Fmt.pf ppf "txn %d abort (thread %d, %s%s%a%a, %d cycles)" txid tid
        (string_of_cause cause)
        (if wounded then ", wounded" else "")
        (fun ppf b -> if b >= 0 then Fmt.pf ppf ", by txn %d" b)
        by
        (fun ppf o -> if o >= 0 then Fmt.pf ppf ", on @%d" o)
        oid latency
  | Txn_wound { victim; by } -> Fmt.pf ppf "txn %d wounded by txn %d" victim by
  | Conflict { tid; oid; cls; writer; site } ->
      Fmt.pf ppf "thread %d %s-conflict on %s@%d%a" tid
        (if writer then "write" else "read")
        cls oid
        (fun ppf s -> if s >= 0 then Fmt.pf ppf " (site %d)" s)
        site
  | Publish { oid; cls } -> Fmt.pf ppf "published %s@%d" cls oid
  | Quiesce_wait { txid } -> Fmt.pf ppf "txn %d quiescing" txid
  | Barrier { tid; site; op; path } ->
      Fmt.pf ppf "thread %d %s barrier %s%a" tid (string_of_op op)
        (string_of_path path)
        (fun ppf s -> if s >= 0 then Fmt.pf ppf " (site %d)" s)
        site
  | Backoff { tid; attempt; delay } ->
      Fmt.pf ppf "thread %d backoff (attempt %d, %d cycles)" tid attempt delay
  | Validation { txid; tid; ok } ->
      Fmt.pf ppf "txn %d validation %s (thread %d)" txid
        (if ok then "ok" else "failed")
        tid
  | Cm_decision { tid; txid; policy; decision; owner; delay } ->
      Fmt.pf ppf "txn %d cm %s: %s%a (thread %d, %d cycles)" txid policy
        decision
        (fun ppf o -> if o >= 0 then Fmt.pf ppf " vs txn %d" o)
        owner tid delay
  | Access { tid; txid; oid; fld; value; write } ->
      Fmt.pf ppf "thread %d%a %s @%d.%d = %a" tid
        (fun ppf t -> if t >= 0 then Fmt.pf ppf " txn %d" t)
        txid
        (if write then "store" else "load")
        oid fld Stm_runtime.Heap.pp_value value
  | Txn_serialized { txid; tid } ->
      Fmt.pf ppf "txn %d serialized (thread %d)" txid tid
