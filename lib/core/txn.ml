open Stm_runtime
module Mvcc = Stm_mvcc.Mvcc

(* [Sched.tick] without the call or the in-simulation check: everything
   here runs inside a simulation (see [Sched.reg]). *)
let[@inline] tick n = Sched.(reg.clock <- reg.clock + n)

exception Abort_txn
exception Retry_request
exception Open_nest_conflict

(* Footprint report for a blocked record observation in a conflict-retry
   loop. The first one is a plain read — its reversal against the
   owner's acquire is how the explorer discovers the no-contention
   branch — but finding the record {e still} blocked on a later attempt
   is a futile spin-wait re-read: reversing it against the eventual
   release only changes how many times the waiter re-checks before the
   same exit, so it is reported as {!Stm_runtime.Footprint.Spin_read}.
   Iterations that leave the loop always report a plain read. *)
let observe_blocked ~attempt oid =
  if attempt > 0 then Footprint.spin_read oid else Footprint.read oid

(* A transaction descriptor. Descriptors and their indexes/logs are pooled
   per context and recycled across attempts (clear-don't-reallocate): an
   abort/retry storm reuses the same indexes and grow-only arenas. Every
   set is an {!Int_index}: a set of keys, or a map from a key to its
   arena slot (-1 on a miss); indexes and arenas are both sized on first
   use.

   The read set is dedup-on-insert: [rset] keys distinct objects by
   oid, [read_objs]/[read_vers] keep the distinct entries in insertion
   order (first-observed version wins), and [reads_obs] counts every
   open-for-read observation - including re-reads - exactly as the old
   cons-list length did, so the validation cost charge on the virtual
   clock is unchanged while [validate] walks only distinct entries. *)
type t = {
  mutable txid : int;
  mutable parent : t option;
  rset : unit Int_index.t;  (* oids in the read set *)
  mutable read_objs : Heap.obj array;  (* insertion order *)
  mutable read_vers : int array;  (* first-observed versions *)
  mutable nreads : int;  (* distinct entries *)
  mutable reads_obs : int;  (* monotone observation count, incl. re-reads *)
  (* ownership (eager open-for-write / lazy commit-time acquire) *)
  owned : int Int_index.t;  (* oid -> arena slot *)
  mutable owned_obj : Heap.obj array;
  mutable owned_prior : int array;  (* prior record versions *)
  mutable nowned : int;
  (* undo log (eager versioning); grow-only arena, buffers reused *)
  undo_saved : unit Int_index.t;  (* packed (oid, granule) saved *)
  mutable undo_obj : Heap.obj array;
  mutable undo_base : int array;
  mutable undo_buf : Heap.value array array;  (* slot buffers, len >= live *)
  mutable undo_len : int array;  (* live prefix of each buffer *)
  mutable nundo : int;
  (* write buffer (lazy versioning); same arena discipline *)
  wbuf : int Int_index.t;  (* packed (oid, granule) -> arena slot *)
  mutable wbuf_obj : Heap.obj array;
  mutable wbuf_base : int array;
  mutable wbuf_prior : int array;  (* version at copy; -1 = private obj *)
  mutable wbuf_buf : Heap.value array array;
  mutable wbuf_len : int array;
  mutable nwbuf : int;
  mutable naccesses : int;
  mutable part : Quiesce.participant option;
  mutable slot : Stm_cm.Cm.slot;  (* the atomic block's contention state *)
  mutable killed : bool;  (* set by a wounding (older) transaction *)
  (* who wounded us, recorded by the aggressor at wound time so the
     victim's abort event can name it (diag causality graph) *)
  mutable killed_by : int;  (* wounding txid, -1 unknown *)
  mutable killed_by_tid : int;  (* wounding thread, -1 unknown *)
  mutable snap : int;  (* mvcc snapshot timestamp; -1 outside mvcc *)
  (* timestamp validation (Config.Timestamp, eager/lazy only): the read
     timestamp this transaction's reads are proven consistent at, and the
     global-clock value observed by the last successful full walk. The
     fast path in [validate] compares the clock against [lva]; a read of
     a granule stamped newer than [rv] attempts extension. *)
  mutable rv : int;
  mutable lva : int;
  mutable cts : int;  (* commit ts being installed by release_all; -1 = none *)
  mutable begin_ts : int;  (* cost clock at begin, for latency attribution *)
  mutable abort_cause : Trace.abort_cause;
  (* last losing contention point, for abort attribution: the granule and
     (when a live transaction holds it) the owning txid/tid. Plain field
     writes on conflict paths only - the access fast paths never touch
     them, so the cost model and hot-path timings are unchanged. *)
  mutable last_oid : int;
  mutable last_aggr : int;
  mutable last_aggr_tid : int;
}

(* The STM state of a run. {!Stm} keeps one for the whole process and
   hands it from run to run: [reset] restores what a freshly built
   context holds, and [release] drops the finished run. Descriptors
   outlive runs, so their arenas and indexes stay at their grown size. *)
type ctx = {
  mutable cfg : Config.t;
  mutable stats : Stats.t;  (* fresh per run: callers keep it after one *)
  q : Quiesce.t;
  mutable cm : Stm_cm.Cm.t;
  gvc : Gvc.t;  (* the global commit clock, shared with [mv] *)
  mv : Mvcc.t;  (* snapshot registry (mvcc versioning) *)
  mutable next_id : int;
  registry : t Int_index.t;
      (* live transaction ids -> descriptor: wounds, owner slots, and
         aggressor attribution all read it *)
  mutable pool : t array;  (* idle descriptors, live prefix [npool] *)
  mutable npool : int;
  mutable all : t array;  (* every descriptor this context made, prefix [nall] *)
  mutable nall : int;
  mutable hwm : int;
      (* the longest arena prefix a descriptor recycled since the last
         [release] used: no arena slot past it was written *)
}

let cfg ctx = ctx.cfg
let stats ctx = ctx.stats
let cm ctx = ctx.cm
let mvcc ctx = ctx.mv
let gvc ctx = ctx.gvc

(* Timestamp validation is an eager/lazy scheme; the mvcc backend's
   snapshot protocol already draws from the same clock and ignores it. *)
let timestamped ctx =
  match ctx.cfg.Config.versioning with
  | Config.Mvcc -> false
  | Config.Eager | Config.Lazy -> ctx.cfg.Config.validation = Config.Timestamp

(* ------------------------------------------------------------------ *)
(* Descriptor pool and arenas                                          *)
(* ------------------------------------------------------------------ *)

let fresh_descriptor () =
  {
    txid = 0;
    parent = None;
    (* Indexes and arenas start empty and get their first slots on first
       use: a read-only descriptor, and every eager descriptor's write
       buffer, never pays for the write side. *)
    rset = Int_index.create ();
    read_objs = [||];
    read_vers = [||];
    nreads = 0;
    reads_obs = 0;
    owned = Int_index.create (-1);
    owned_obj = [||];
    owned_prior = [||];
    nowned = 0;
    undo_saved = Int_index.create ();
    undo_obj = [||];
    undo_base = [||];
    undo_buf = [||];
    undo_len = [||];
    nundo = 0;
    wbuf = Int_index.create (-1);
    wbuf_obj = [||];
    wbuf_base = [||];
    wbuf_prior = [||];
    wbuf_buf = [||];
    wbuf_len = [||];
    nwbuf = 0;
    naccesses = 0;
    part = None;
    slot = Stm_cm.Cm.no_slot;
    killed = false;
    killed_by = -1;
    killed_by_tid = -1;
    snap = -1;
    rv = 0;
    lva = 0;
    cts = -1;
    begin_ts = 0;
    abort_cause = Trace.Cause_exn;
    last_oid = -1;
    last_aggr = -1;
    last_aggr_tid = -1;
  }

(* The one descriptor that never runs: the registry's miss value and
   {!Stm}'s "no transaction" entry. Never mutated. *)
let none = fresh_descriptor ()

let make_cm (cfg : Config.t) =
  Stm_cm.Cm.create ~seed:cfg.Config.cm_seed
    ~max_retries:cfg.Config.max_txn_retries ~cost:cfg.Config.cost cfg.Config.cm

let create () =
  let gvc = Gvc.create () in
  {
    cfg = Config.base;
    stats = Stats.create ();
    q = Quiesce.create ();
    cm = make_cm Config.base;
    gvc;
    mv = Mvcc.create ~gvc ();
    next_id = 0;
    registry = Int_index.create none;
    pool = [||];
    npool = 0;
    all = [||];
    nall = 0;
    hwm = 0;
  }

(* Everything a run reads is restored to what [create] built: the txid
   counter, the clock, the quiescence registry and the snapshot tables,
   and a contention manager whose generator restarts from [cm_seed].
   Nothing here reports a footprint: no simulation is running. *)
let reset ctx (cfg : Config.t) =
  ctx.cfg <- cfg;
  ctx.stats <- Stats.create ();
  ctx.cm <- make_cm cfg;
  ctx.next_id <- 0;
  Gvc.reset ctx.gvc;
  Quiesce.reset ctx.q;
  Mvcc.reset ctx.mv;
  Int_index.clear ctx.registry

(* Arenas double, from 8 slots when empty. *)
let grown_length a = Int.max 8 (2 * Array.length a)

let grow_obj_array a n =
  let a' = Array.make (grown_length a) Heap.dummy in
  Array.blit a 0 a' 0 n;
  a'

let grow_int_array a n =
  let a' = Array.make (grown_length a) 0 in
  Array.blit a 0 a' 0 n;
  a'

let grow_buf_array a n =
  let a' = Array.make (grown_length a) [||] in
  Array.blit a 0 a' 0 n;
  a'

let ensure_read_capacity t =
  if t.nreads >= Array.length t.read_objs then begin
    t.read_objs <- grow_obj_array t.read_objs t.nreads;
    t.read_vers <- grow_int_array t.read_vers t.nreads
  end

let ensure_owned_capacity t =
  if t.nowned >= Array.length t.owned_obj then begin
    t.owned_obj <- grow_obj_array t.owned_obj t.nowned;
    t.owned_prior <- grow_int_array t.owned_prior t.nowned
  end

let ensure_undo_capacity t =
  if t.nundo >= Array.length t.undo_obj then begin
    t.undo_obj <- grow_obj_array t.undo_obj t.nundo;
    t.undo_base <- grow_int_array t.undo_base t.nundo;
    t.undo_buf <- grow_buf_array t.undo_buf t.nundo;
    t.undo_len <- grow_int_array t.undo_len t.nundo
  end

let ensure_wbuf_capacity t =
  if t.nwbuf >= Array.length t.wbuf_obj then begin
    t.wbuf_obj <- grow_obj_array t.wbuf_obj t.nwbuf;
    t.wbuf_base <- grow_int_array t.wbuf_base t.nwbuf;
    t.wbuf_prior <- grow_int_array t.wbuf_prior t.nwbuf;
    t.wbuf_buf <- grow_buf_array t.wbuf_buf t.nwbuf;
    t.wbuf_len <- grow_int_array t.wbuf_len t.nwbuf
  end

(* Take a slot buffer of at least [len] values, reusing the arena's
   previous allocation for that slot when it is big enough. *)
let slot_buffer bufs i len =
  if Array.length bufs.(i) >= len then bufs.(i)
  else begin
    let b = Array.make len Heap.Vnull in
    bufs.(i) <- b;
    b
  end

let clear_descriptor t =
  Int_index.clear t.rset;
  t.nreads <- 0;
  t.reads_obs <- 0;
  Int_index.clear t.owned;
  t.nowned <- 0;
  Int_index.clear t.undo_saved;
  t.nundo <- 0;
  Int_index.clear t.wbuf;
  t.nwbuf <- 0;
  t.naccesses <- 0;
  t.parent <- None;
  t.part <- None;
  t.cts <- -1

let arena_prefix t = Int.max (Int.max t.nreads t.nowned) (Int.max t.nundo t.nwbuf)

(* Return a finished descriptor to the context pool. Indexes are cleared,
   not re-created; arenas keep their capacity. Stale object references
   beyond the live prefixes stay until [release]: the run's heap lives
   until the run ends, and the next user overwrites them. The counts are
   zeroed here, not by [commit] and [abort], so that the high-water mark
   can be read from them. *)
let recycle ctx t =
  ctx.hwm <- Int.max ctx.hwm (arena_prefix t);
  clear_descriptor t;
  ctx.pool.(ctx.npool) <- t;
  ctx.npool <- ctx.npool + 1

(* [pool] is as long as [all]: it never holds more descriptors than the
   context made. A descriptor is made only when the pool is empty. *)
let take_descriptor ctx =
  if ctx.npool > 0 then begin
    ctx.npool <- ctx.npool - 1;
    ctx.pool.(ctx.npool)
  end
  else begin
    let t = fresh_descriptor () in
    if ctx.nall = Array.length ctx.all then begin
      let a = Array.make (grown_length ctx.all) none in
      Array.blit ctx.all 0 a 0 ctx.nall;
      ctx.all <- a;
      ctx.pool <- Array.make (Array.length a) none
    end;
    ctx.all.(ctx.nall) <- t;
    ctx.nall <- ctx.nall + 1;
    t
  end

(* Loops, not [Array.fill]: a mark is a few slots, fewer than a C call
   costs, and a slot already empty is not written. *)
let drop_objs (a : Heap.obj array) n =
  for i = 0 to Int.min n (Array.length a) - 1 do
    if a.(i) != Heap.dummy then a.(i) <- Heap.dummy
  done

let drop_values bufs n =
  for i = 0 to Int.min n (Array.length bufs) - 1 do
    let b : Heap.value array = bufs.(i) in
    for j = 0 to Array.length b - 1 do
      if b.(j) != Heap.Vnull then b.(j) <- Heap.Vnull
    done
  done

(* End of a run: every descriptor the context made - pooled, or still
   running when the run stopped (out of fuel, deadlocked) - goes back to
   the pool. One that began a transaction since the last release (txid
   not 0) is cleared first, with its object slots, slot buffers and
   contention slot emptied up to the high-water mark (or its own live
   counts, when it was still running), so nothing of the finished run's
   heap stays reachable from here. *)
let release ctx =
  for i = 0 to ctx.nall - 1 do
    let t = ctx.all.(i) in
    if t.txid <> 0 then begin
      let n = Int.max ctx.hwm (arena_prefix t) in
      drop_objs t.read_objs n;
      drop_objs t.owned_obj n;
      drop_objs t.undo_obj n;
      drop_objs t.wbuf_obj n;
      drop_values t.undo_buf n;
      drop_values t.wbuf_buf n;
      clear_descriptor t;
      t.slot <- Stm_cm.Cm.no_slot;
      t.txid <- 0
    end;
    if ctx.pool.(i) != t then ctx.pool.(i) <- t
  done;
  ctx.hwm <- 0;
  ctx.npool <- ctx.nall

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let begin_txn ctx ~parent ~slot =
  (* The txid counter orders transaction births. Under an
     order-insensitive policy txids are pure identifiers — swapping two
     begins renames them without changing any decision — so the counter
     is only a dependency when the policy compares txids or ages. *)
  if Stm_cm.Policy.order_sensitive ctx.cfg.cm then
    Footprint.write Footprint.oid_txid;
  ctx.next_id <- ctx.next_id + 1;
  tick ctx.cfg.cost.Cost.txn_begin;
  let part = if ctx.cfg.quiescence then Some (Quiesce.register ctx.q) else None in
  let t = take_descriptor ctx in
  t.txid <- ctx.next_id;
  t.parent <- (if parent == none then None else Some parent);
  t.part <- part;
  t.killed <- false;
  t.killed_by <- -1;
  t.killed_by_tid <- -1;
  t.snap <-
    (match ctx.cfg.versioning with
    | Config.Mvcc -> Mvcc.begin_snapshot ctx.mv
    | Config.Eager | Config.Lazy -> -1);
  (* No commit has landed since this very instant, so the empty read set
     is vacuously consistent here: an uncontended timestamp-mode
     transaction never walks at all. *)
  t.rv <- Gvc.now ctx.gvc;
  t.lva <- t.rv;
  t.cts <- -1;
  t.begin_ts <- Sched.reg.clock;
  t.abort_cause <- Trace.Cause_exn;
  t.last_oid <- -1;
  t.last_aggr <- -1;
  t.last_aggr_tid <- -1;
  Footprint.write (Footprint.flag_oid ctx.next_id);
  Int_index.replace ctx.registry ctx.next_id t;
  t.slot <-
    Stm_cm.Cm.on_begin ctx.cm slot ~tid:Sched.reg.tid ~txid:ctx.next_id
      ~now:Sched.reg.clock;
  if Trace.enabled () then
    Trace.emit
      (Trace.Txn_begin { txid = ctx.next_id; tid = Sched.reg.tid });
  t

let id t = t.txid
let slot t = t.slot
let set_abort_cause t c = t.abort_cause <- c
let latency t = Sched.reg.clock - t.begin_ts

let reads_snapshot t =
  let rec go i acc =
    if i >= t.nreads then acc
    else go (i + 1) ((t.read_objs.(i), t.read_vers.(i)) :: acc)
  in
  go 0 []

let has_writes t = t.nowned > 0 || t.nwbuf > 0 || t.nundo > 0

(* Record an open-for-read observation of [obj] at version [ver]. Every
   observation bumps the monotone counter (the virtual-time validation
   charge is proportional to observations, as it always was); only the
   first observation of an object enters the validated set, so re-reading
   a granule no longer grows it. First-observed version wins: if the
   version moved since, the retained entry is the stale one and validation
   fails exactly as it did when both entries were kept. *)
let note_read t (obj : Heap.obj) ver =
  t.reads_obs <- t.reads_obs + 1;
  if Int_index.add t.rset obj.Heap.oid then begin
    ensure_read_capacity t;
    t.read_objs.(t.nreads) <- obj;
    t.read_vers.(t.nreads) <- ver;
    t.nreads <- t.nreads + 1
  end

let granule_base (cfg : Config.t) fld = fld - (fld mod cfg.granule)

let granule_len (cfg : Config.t) obj base =
  Int.min cfg.granule (Heap.nfields obj - base)

(* Undo-log / write-buffer key: (oid, granule base) packed into one int -
   no tuple allocation per lookup. Base fits 26 bits; the largest
   simulated objects are a few thousand fields. *)
let gkey (obj : Heap.obj) base = (obj.Heap.oid lsl 26) lor base

(* Does [t] or any of its open-nesting ancestors own this record word? *)
let rec ancestor_owns t w =
  Txrec.is_exclusive w
  &&
  let o = Txrec.owner w in
  o = t.txid || (match t.parent with Some p -> ancestor_owns p w | None -> false)

(* Does the write buffer touch any public (shared) granule? Private-only
   writers commit like read-only transactions: nothing to certify. *)
let rec mvcc_public_from t i =
  i < t.nwbuf && (t.wbuf_prior.(i) >= 0 || mvcc_public_from t (i + 1))

let mvcc_has_public t = mvcc_public_from t 0

(* mvcc read currency: every granule in the read set is still at the
   version the snapshot saw, i.e. no commit has installed a newer version
   since. Only serializable update transactions need this; snapshot reads
   are internally consistent by construction. A failing entry is
   attributed to the commit that installed the newer version (the same
   aggressor edge [sv_entries_ok] reports for a live owner), as far as
   the installer ring still remembers it. *)
let rec mvcc_entries_from ctx t i =
  i >= t.nreads
  ||
  let obj = t.read_objs.(i) in
  let ok = Heap.version_ts obj <= t.snap in
  if not ok then begin
    t.last_oid <- obj.Heap.oid;
    match Mvcc.installer_of ctx.mv ~ts:(Heap.version_ts obj) with
    | Some (txid, tid) ->
        t.last_aggr <- txid;
        t.last_aggr_tid <- tid
    | None ->
        t.last_aggr <- -1;
        t.last_aggr_tid <- -1
  end;
  ok && mvcc_entries_from ctx t (i + 1)

let mvcc_entries_ok ctx t = mvcc_entries_from ctx t 0

(* The single-version read-currency walk: every granule in the read set
   is still at its first-observed version (or is owned by this very
   transaction at that prior version). Shared by commit/periodic
   validation and by timestamp extension. *)
let rec sv_entries_from ctx t i =
  i >= t.nreads
  ||
  let obj = t.read_objs.(i) in
  let ver = t.read_vers.(i) in
  let w = Heap.txrec_get obj in
  let entry_ok =
    match Txrec.tag w with
    | Txrec.Tag_shared -> Txrec.version w = ver
    | Txrec.Tag_exclusive when Txrec.owner w = t.txid ->
        let slot = Int_index.find t.owned obj.Heap.oid in
        slot >= 0 && t.owned_prior.(slot) = ver
    | Txrec.Tag_exclusive | Txrec.Tag_exclusive_anon | Txrec.Tag_private ->
        false
  in
  if not entry_ok then begin
    (* attribute the failure: the granule whose version moved, and its
       current owner when a live transaction still holds it *)
    t.last_oid <- obj.Heap.oid;
    match Txrec.tag w with
    | Txrec.Tag_exclusive when Txrec.owner w <> t.txid ->
        t.last_aggr <- Txrec.owner w;
        t.last_aggr_tid <-
          Stm_cm.Cm.tid_of (Int_index.find ctx.registry (Txrec.owner w)).slot
    | _ ->
        t.last_aggr <- -1;
        t.last_aggr_tid <- -1
  end;
  entry_ok && sv_entries_from ctx t (i + 1)

let sv_entries_ok ctx t = sv_entries_from ctx t 0

(* The walk's cycle charge, billed next to the walk it models — paths
   that skip the walk (mvcc snapshot commits, the timestamp fast path)
   no longer pay it. Observations, not distinct entries: the virtual
   charge stays proportional to what the paper's cons-list walk cost. *)
let charge_walk ctx t =
  tick (ctx.cfg.cost.Cost.txn_per_read * Int.max 1 t.reads_obs)

let validate ctx t =
  ctx.stats.Stats.validations <- ctx.stats.Stats.validations + 1;
  let ok =
    match ctx.cfg.versioning with
    | Config.Mvcc ->
        ctx.cfg.isolation = Config.Snapshot
        || (not (mvcc_has_public t))
        || begin
             charge_walk ctx t;
             mvcc_entries_ok ctx t
           end
    | Config.Eager | Config.Lazy ->
        if timestamped ctx then begin
          let clock = Gvc.now ctx.gvc in
          if clock = t.lva && not ctx.cfg.quiescence then begin
            (* nothing committed since the last full walk proved the read
               set consistent: O(1) revalidation. Not sound under
               quiescence: a committer in [Quiesce.commit_epoch_wait]
               holds its records Exclusive but bumps the clock only at
               release, so an unchanged clock cannot witness the
               in-flight acquisition - and a doomed transaction that
               fast-passes here gets marked consistent while its stale
               eager speculative state is still live across the
               privatizer's handoff. Quiescing configurations always
               walk; the walk fails conservatively on Exclusive owners. *)
            ctx.stats.Stats.fast_validations <-
              ctx.stats.Stats.fast_validations + 1;
            tick ctx.cfg.cost.Cost.txn_validate_fast;
            true
          end
          else begin
            charge_walk ctx t;
            let ok = sv_entries_ok ctx t in
            (* the walk is yield-free, so on success the read set is
               consistent at [clock] as observed above *)
            if ok then begin
              t.lva <- clock;
              t.rv <- clock
            end;
            ok
          end
        end
        else begin
          charge_walk ctx t;
          sv_entries_ok ctx t
        end
  in
  if Trace.enabled_at Trace.Debug then
    Trace.emit (Trace.Validation { txid = t.txid; tid = Sched.reg.tid; ok });
  ok

(* Timestamp extension: a read observed a granule stamped newer than
   [rv]. One full walk proves every first-observed version is still
   current; the read set is then consistent at the clock as of the walk,
   so [rv] advances instead of the transaction aborting. *)
let extend_rv ctx t =
  let clock = Gvc.now ctx.gvc in
  charge_walk ctx t;
  if sv_entries_ok ctx t then begin
    ctx.stats.Stats.ts_extensions <- ctx.stats.Stats.ts_extensions + 1;
    t.rv <- clock;
    t.lva <- clock
  end
  else begin
    t.abort_cause <- Trace.Cause_validation;
    raise Abort_txn
  end

let check_wounded t =
  Footprint.read (Footprint.flag_oid t.txid);
  if t.killed then begin
    t.abort_cause <- Trace.Cause_wounded;
    raise Abort_txn
  end

(* Apply a Wound decision: mark the victim's flag; the victim notices it
   at its next pause or validation point and aborts. Idempotent. *)
let wound ctx ~victim ~by =
  Footprint.write (Footprint.flag_oid victim);
  let d = Int_index.find ctx.registry victim in
  if d != none && not d.killed then begin
    d.killed <- true;
    d.killed_by <- by;
    d.killed_by_tid <- Sched.reg.tid;
    ctx.stats.Stats.wounds <- ctx.stats.Stats.wounds + 1;
    if Trace.enabled () then
      Trace.emit (Trace.Txn_wound { victim; by })
  end

(* Matches, not [Option.iter] over a partial application, which would
   allocate a closure per transaction even with quiescence off. *)
let mark_consistent ctx t =
  match t.part with Some p -> Quiesce.mark_consistent ctx.q p | None -> ()

let deregister ctx t =
  match t.part with Some p -> Quiesce.deregister ctx.q p | None -> ()

(* A transaction pausing on a conflict revalidates (when quiescence is on)
   so that committers waiting in [Quiesce.commit_epoch_wait] observe it as
   consistent - and so that doomed transactions abort promptly instead of
   blocking a privatizer. *)
let conflict_pause ctx t ~attempt ~writer ~delay obj =
  Conflict.backoff ctx.cfg ctx.stats ~attempt ~writer ~delay obj;
  if ctx.cfg.quiescence then
    if validate ctx t then mark_consistent ctx t
    else begin
      t.abort_cause <- Trace.Cause_validation;
      raise Abort_txn
    end

(* Resolve a conflict on [obj] through the contention manager: ask the
   configured policy what to do, trace its decision, and either abort
   self, wound the owner and pause, or just pause. Raises [Abort_txn]
   (never returns normally) on a self-abort. *)
let cm_resolve ctx t ~attempt ~writer obj =
  check_wounded t;
  (* Stateful contention-manager policies consult and mutate shared
     policy state when resolving; fold all of it into one pseudo-granule
     (conservative: more runs, never fewer behaviors). Order-insensitive
     policies (Suicide) decide from the asker's own budget alone, so for
     them the granule is skipped — reporting it would make every
     conflict resolution race with every other. *)
  if Stm_cm.Policy.order_sensitive ctx.cfg.cm then
    Footprint.write Footprint.oid_cm;
  observe_blocked ~attempt obj.Heap.oid;
  let w = Heap.txrec_peek obj in
  (* -1 for an anonymous owner, as [decide] takes it *)
  let owner = if Txrec.is_exclusive w then Txrec.owner w else -1 in
  let od = if owner >= 0 then Int_index.find ctx.registry owner else none in
  t.last_oid <- obj.Heap.oid;
  t.last_aggr <- owner;
  t.last_aggr_tid <- Stm_cm.Cm.tid_of od.slot;
  let decision =
    Stm_cm.Cm.decide ctx.cm t.slot ~owner:od.slot ~owner_txid:owner
      ~txid:t.txid ~tid:Sched.reg.tid ~attempt ~work:t.naccesses
  in
  let delay = Stm_cm.Cm.delay ctx.cm in
  if Trace.enabled_at Trace.Debug then
    Trace.emit
      (Trace.Cm_decision
         {
           tid = Sched.reg.tid;
           txid = t.txid;
           policy = Stm_cm.Cm.name ctx.cm;
           decision = Stm_cm.Cm.string_of_decision decision;
           owner;
           delay;
         });
  match decision with
  | Stm_cm.Cm.Abort_self ->
      t.abort_cause <- Trace.Cause_conflict;
      raise Abort_txn
  | Stm_cm.Cm.Wound ->
      wound ctx ~victim:(Stm_cm.Cm.victim ctx.cm) ~by:t.txid;
      conflict_pause ctx t ~attempt ~writer ~delay obj
  | Stm_cm.Cm.Wait -> conflict_pause ctx t ~attempt ~writer ~delay obj

let periodic_validate ctx t =
  check_wounded t;
  t.naccesses <- t.naccesses + 1;
  if t.naccesses mod ctx.cfg.validate_every = 0 then
    if validate ctx t then mark_consistent ctx t
    else begin
      t.abort_cause <- Trace.Cause_validation;
      raise Abort_txn
    end

(* Save the granule containing [fld] in the undo log (eager). *)
let save_undo ctx t (obj : Heap.obj) fld =
  let base = granule_base ctx.cfg fld in
  if Int_index.add t.undo_saved (gkey obj base) then begin
    let len = granule_len ctx.cfg obj base in
    ensure_undo_capacity t;
    let i = t.nundo in
    let buf = slot_buffer t.undo_buf i len in
    for j = 0 to len - 1 do
      buf.(j) <- Heap.get obj (base + j)
    done;
    t.undo_obj.(i) <- obj;
    t.undo_base.(i) <- base;
    t.undo_len.(i) <- len;
    t.nundo <- i + 1;
    tick (ctx.cfg.cost.Cost.plain_load * len)
  end

(* The per-access retry loops ([acquire_loop], [eager_read_loop]) are
   top-level functions classifying the record with [Txrec.tag]: a local
   closure over the arguments, or a decoded [Txrec.state], would be
   allocated on every access. *)
let rec acquire_loop ctx t expect (obj : Heap.obj) attempt =
  let cost = ctx.cfg.cost in
  let w = Heap.txrec_peek obj in
  tick cost.Cost.plain_load;
  match Txrec.tag w with
  | Txrec.Tag_exclusive when Txrec.owner w = t.txid ->
      Footprint.read obj.Heap.oid;
      t.owned_prior.(Int_index.find t.owned obj.Heap.oid)
  | Txrec.Tag_shared -> (
      let ver = Txrec.version w in
      Footprint.read obj.Heap.oid;
      (match expect with
      | Some e when e <> ver ->
          (* a lazily buffered record changed version before commit-time
             acquisition: the read that seeded the buffer is stale *)
          t.last_oid <- obj.Heap.oid;
          t.last_aggr <- -1;
          t.last_aggr_tid <- -1;
          t.abort_cause <- Trace.Cause_stale_lock;
          raise Abort_txn
      | Some _ | None -> ());
      ctx.stats.Stats.atomic_ops <- ctx.stats.Stats.atomic_ops + 1;
      tick cost.Cost.atomic_rmw;
      Sched.yield ();
      if Heap.txrec_cas obj w (Txrec.exclusive t.txid)
      then begin
        ensure_owned_capacity t;
        Int_index.replace t.owned obj.Heap.oid t.nowned;
        t.owned_obj.(t.nowned) <- obj;
        t.owned_prior.(t.nowned) <- ver;
        t.nowned <- t.nowned + 1;
        Sched.yield ();
        ver
      end
      else acquire_loop ctx t expect obj attempt)
  | Txrec.Tag_exclusive when ancestor_owns t w ->
      Footprint.read obj.Heap.oid;
      raise Open_nest_conflict
  | Txrec.Tag_exclusive | Txrec.Tag_exclusive_anon ->
      observe_blocked ~attempt obj.Heap.oid;
      cm_resolve ctx t ~attempt ~writer:true obj;
      acquire_loop ctx t expect obj (attempt + 1)
  | Txrec.Tag_private ->
      (* The object was private when the caller checked and is being
         published concurrently - retry the whole access. *)
      Footprint.read obj.Heap.oid;
      acquire_loop ctx t expect obj attempt

(* Acquire exclusive ownership of [obj]'s record for this transaction
   (eager open-for-write, or lazy commit-time acquire with an expected
   version). Returns the prior version. *)
let acquire ctx t ?expect obj = acquire_loop ctx t expect obj 0

(* Publication duty inside transactions (Section 4, last paragraph): in an
   eager system a write of a reference into a public object immediately
   publishes the referenced private graph, even before commit. *)
let publish_on_store ctx (v : Heap.value) =
  if ctx.cfg.dea then Dea.publish_value ctx.stats ctx.cfg.cost v

(* ------------------------------------------------------------------ *)
(* Eager versioning                                                    *)
(* ------------------------------------------------------------------ *)

let eager_write ctx t (obj : Heap.obj) fld v =
  let cost = ctx.cfg.cost in
  if ctx.cfg.dea && Dea.is_private obj then begin
    (* private object: no synchronization, but the undo log still records
       old values so that an abort rolls them back *)
    save_undo ctx t obj fld;
    Heap.set obj fld v;
    tick cost.Cost.plain_store
  end
  else begin
    ignore (acquire ctx t obj);
    save_undo ctx t obj fld;
    publish_on_store ctx v;
    Heap.set obj fld v;
    tick cost.Cost.plain_store;
    Sched.yield ()
  end

let rec eager_read_loop ctx t (obj : Heap.obj) fld attempt =
  let cost = ctx.cfg.cost in
  let w = Heap.txrec_peek obj in
  tick cost.Cost.plain_load;
  match Txrec.tag w with
  | Txrec.Tag_private ->
      Footprint.read obj.Heap.oid;
      let v = Heap.get obj fld in
      tick cost.Cost.plain_load;
      v
  | Txrec.Tag_exclusive when Txrec.owner w = t.txid ->
      Footprint.read obj.Heap.oid;
      let v = Heap.get obj fld in
      tick cost.Cost.plain_load;
      v
  | Txrec.Tag_shared ->
      let ver = Txrec.version w in
      Footprint.read obj.Heap.oid;
      note_read t obj ver;
      if timestamped ctx && Heap.version_ts obj > t.rv then
        (* stamped by a commit newer than our read timestamp: extend
           [rv] (or abort) before using the value *)
        extend_rv ctx t;
      Sched.yield ();
      let v = Heap.get obj fld in
      tick cost.Cost.plain_load;
      if timestamped ctx && Heap.txrec_get obj <> Txrec.shared ver
      then
        (* the record moved across the preemption point inside the read:
           the value may be newer than [rv] without rv-consistency —
           retake the whole read (TL2's post-read recheck). Read-only
           transactions skip commit validation, so each read must be
           individually proven consistent at [rv]. *)
        eager_read_loop ctx t obj fld attempt
      else v
  | Txrec.Tag_exclusive when ancestor_owns t w ->
      Footprint.read obj.Heap.oid;
      raise Open_nest_conflict
  | Txrec.Tag_exclusive | Txrec.Tag_exclusive_anon ->
      observe_blocked ~attempt obj.Heap.oid;
      cm_resolve ctx t ~attempt ~writer:false obj;
      eager_read_loop ctx t obj fld (attempt + 1)

let eager_read ctx t obj fld = eager_read_loop ctx t obj fld 0

(* ------------------------------------------------------------------ *)
(* Lazy versioning                                                     *)
(* ------------------------------------------------------------------ *)

(* The version a new write-buffer slot of [obj] is seeded at (-1 for a
   private object), entered in the read set. A top-level retry loop like
   [eager_read_loop], so opening a slot allocates no closure. *)
let rec lazy_observe ctx t (obj : Heap.obj) attempt =
  let w = Heap.txrec_peek obj in
  tick ctx.cfg.cost.Cost.plain_load;
  match Txrec.tag w with
  | Txrec.Tag_shared ->
      let ver = Txrec.version w in
      Footprint.read obj.Heap.oid;
      note_read t obj ver;
      if timestamped ctx && Heap.version_ts obj > t.rv then extend_rv ctx t;
      ver
  | Txrec.Tag_private ->
      Footprint.read obj.Heap.oid;
      -1
  | Txrec.Tag_exclusive when ancestor_owns t w ->
      Footprint.read obj.Heap.oid;
      raise Open_nest_conflict
  | Txrec.Tag_exclusive | Txrec.Tag_exclusive_anon ->
      observe_blocked ~attempt obj.Heap.oid;
      cm_resolve ctx t ~attempt ~writer:true obj;
      lazy_observe ctx t obj (attempt + 1)

(* Create (or find) the write-buffer slot covering [fld]; returns its
   arena index. The private copy spans the whole granule - the source of
   the Section 2.4 anomalies when granule > 1. *)
let lazy_slot ctx t (obj : Heap.obj) fld =
  let base = granule_base ctx.cfg fld in
  let key = gkey obj base in
  let i = Int_index.find t.wbuf key in
  if i >= 0 then i
  else begin
    let cost = ctx.cfg.cost in
    let len = granule_len ctx.cfg obj base in
    let prior =
      if ctx.cfg.dea && Dea.is_private obj then -1
      else lazy_observe ctx t obj 0
    in
    ensure_wbuf_capacity t;
    let i = t.nwbuf in
    let buf = slot_buffer t.wbuf_buf i len in
    for j = 0 to len - 1 do
      buf.(j) <- Heap.get obj (base + j)
    done;
    tick (cost.Cost.plain_load * len);
    t.wbuf_obj.(i) <- obj;
    t.wbuf_base.(i) <- base;
    t.wbuf_prior.(i) <- prior;
    t.wbuf_len.(i) <- len;
    Int_index.replace t.wbuf key i;
    t.nwbuf <- i + 1;
    i
  end

let lazy_write ctx t obj fld v =
  let i = lazy_slot ctx t obj fld in
  t.wbuf_buf.(i).(fld - t.wbuf_base.(i)) <- v;
  tick ctx.cfg.cost.Cost.plain_store

let lazy_read ctx t (obj : Heap.obj) fld =
  let base = granule_base ctx.cfg fld in
  let i = Int_index.find t.wbuf (gkey obj base) in
  if i >= 0 then begin
    tick ctx.cfg.cost.Cost.plain_load;
    t.wbuf_buf.(i).(fld - base)
  end
  else eager_read ctx t obj fld
(* lazy open-for-read is the same protocol as eager: version + log *)

(* ------------------------------------------------------------------ *)
(* Multi-version (mvcc)                                                *)
(* ------------------------------------------------------------------ *)

(* Read [fld] as of this transaction's snapshot, from the field itself
   when it is current (no option built); [None] from the version chain
   means the bounded chain no longer retains a version old enough:
   abort snapshot-too-old (the only way an mvcc reader aborts). *)
let mvcc_read_field ctx t (obj : Heap.obj) fld =
  if Heap.version_ts obj <= t.snap then Heap.get obj fld
  else
    match Mvcc.read ctx.mv obj fld ~snap:t.snap with
    | Some v -> v
    | None ->
        t.last_oid <- obj.Heap.oid;
        t.last_aggr <- -1;
        t.last_aggr_tid <- -1;
        t.abort_cause <- Trace.Cause_snapshot;
        raise Abort_txn

(* mvcc open-for-read takes no ownership and never waits on a writer:
   the read set records the current version stamp only so a serializable
   update transaction can check read currency at commit. *)
let mvcc_read ctx t (obj : Heap.obj) fld =
  let cost = ctx.cfg.cost in
  let base = granule_base ctx.cfg fld in
  let i = Int_index.find t.wbuf (gkey obj base) in
  if i >= 0 then begin
    tick cost.Cost.plain_load;
    t.wbuf_buf.(i).(fld - base)
  end
  else if ctx.cfg.dea && Dea.is_private obj then begin
    let v = Heap.get obj fld in
    tick cost.Cost.plain_load;
    v
  end
  else begin
    note_read t obj (Heap.version_ts obj);
    Sched.yield ();
    let v = mvcc_read_field ctx t obj fld in
    tick cost.Cost.plain_load;
    v
  end

(* Write-buffer slot seeded from the snapshot image, not the current
   fields: commit write-back must not resurrect a concurrent committer's
   updates to granule fields this transaction never stored to (under
   snapshot isolation the concurrent commit is allowed to stand when the
   granules are disjoint; when they overlap first-committer-wins aborts
   us anyway). *)
let mvcc_slot ctx t (obj : Heap.obj) fld =
  let base = granule_base ctx.cfg fld in
  let key = gkey obj base in
  let i = Int_index.find t.wbuf key in
  if i >= 0 then i
  else begin
    let cost = ctx.cfg.cost in
    let len = granule_len ctx.cfg obj base in
    let priv = ctx.cfg.dea && Dea.is_private obj in
    ensure_wbuf_capacity t;
    let i = t.nwbuf in
    let buf = slot_buffer t.wbuf_buf i len in
    for j = 0 to len - 1 do
      buf.(j) <-
        (if priv then Heap.get obj (base + j)
         else mvcc_read_field ctx t obj (base + j))
    done;
    tick (cost.Cost.plain_load * len);
    t.wbuf_obj.(i) <- obj;
    t.wbuf_base.(i) <- base;
    t.wbuf_prior.(i) <- (if priv then -1 else 0);
    t.wbuf_len.(i) <- len;
    Int_index.replace t.wbuf key i;
    t.nwbuf <- i + 1;
    i
  end

let mvcc_write ctx t obj fld v =
  let i = mvcc_slot ctx t obj fld in
  t.wbuf_buf.(i).(fld - t.wbuf_base.(i)) <- v;
  tick ctx.cfg.cost.Cost.plain_store

let mvcc_end_snapshot ctx t =
  if t.snap >= 0 then begin
    Mvcc.end_snapshot ctx.mv t.snap;
    t.snap <- -1
  end

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let emit_txn_access op =
  if Trace.enabled_at Trace.Debug then
    Trace.emit
      (Trace.Barrier
         {
           tid = Sched.reg.tid;
           site = Site.current ();
           op;
           path = Trace.Path_fired;
         })

let emit_access ~txid (obj : Heap.obj) fld value ~write =
  if Trace.enabled_at Trace.History then
    Trace.emit
      (Trace.Access
         { tid = Sched.reg.tid; txid; oid = obj.Heap.oid; fld; value; write })

let txn_read ctx t obj fld =
  ctx.stats.Stats.txn_reads <- ctx.stats.Stats.txn_reads + 1;
  emit_txn_access Trace.Op_txn_read;
  periodic_validate ctx t;
  let v =
    match ctx.cfg.versioning with
    | Config.Eager -> eager_read ctx t obj fld
    | Config.Lazy -> lazy_read ctx t obj fld
    | Config.Mvcc -> mvcc_read ctx t obj fld
  in
  emit_access ~txid:t.txid obj fld v ~write:false;
  v

let txn_write ctx t obj fld v =
  ctx.stats.Stats.txn_writes <- ctx.stats.Stats.txn_writes + 1;
  emit_txn_access Trace.Op_txn_write;
  periodic_validate ctx t;
  (match ctx.cfg.versioning with
  | Config.Eager -> eager_write ctx t obj fld v
  | Config.Lazy -> lazy_write ctx t obj fld v
  | Config.Mvcc -> mvcc_write ctx t obj fld v);
  emit_access ~txid:t.txid obj fld v ~write:true

(* Release every owned record at the bumped version. Commit and abort
   share this; under timestamp validation a committing transaction has
   set [cts] and the released granules are additionally stamped with the
   commit timestamp (an aborting one never is: rollback restored the
   committed values, so the old stamp still describes them). *)
let release_all ctx t =
  let cost = ctx.cfg.cost in
  for i = t.nowned - 1 downto 0 do
    if t.cts >= 0 then Heap.set_version_ts t.owned_obj.(i) t.cts;
    Heap.txrec_set t.owned_obj.(i) (Txrec.shared (t.owned_prior.(i) + 1));
    tick cost.Cost.txn_per_write
  done

let emit_serialized t =
  if Trace.enabled_at Trace.History then
    Trace.emit (Trace.Txn_serialized { txid = t.txid; tid = Sched.reg.tid })

let commit ctx t =
  check_wounded t;
  let cost = ctx.cfg.cost in
  tick cost.Cost.txn_commit;
  (match ctx.cfg.versioning with
  | Config.Eager ->
      if timestamped ctx && not (has_writes t) then
        (* read-only fast path: every read was individually proven
           consistent at [rv] (read-time extension + post-read recheck),
           so the transaction serializes at [rv] with no commit-time
           walk — mirroring the mvcc abort-free read path *)
        ctx.stats.Stats.ro_fast_commits <- ctx.stats.Stats.ro_fast_commits + 1
      else if not (validate ctx t) then begin
        t.abort_cause <- Trace.Cause_validation;
        raise Abort_txn
      end;
      emit_serialized t;
      if ctx.cfg.quiescence then begin
        match t.part with
        | Some p ->
            ctx.stats.Stats.quiesce_waits <- ctx.stats.Stats.quiesce_waits + 1;
            if Trace.enabled () then
              Trace.emit (Trace.Quiesce_wait { txid = t.txid });
            Quiesce.mark_consistent ctx.q p;
            Quiesce.commit_epoch_wait ctx.q p
        | None -> ()
      end;
      (* the clock bump and the releases below run without a yield, so a
         concurrent validator observes either the old clock with the old
         records or the new clock with the new ones *)
      if timestamped ctx && t.nowned > 0 then t.cts <- Gvc.advance ctx.gvc;
      release_all ctx t;
      t.cts <- -1
  | Config.Lazy ->
      (* Acquire every written record at its buffered version. The arena
         is flushed newest-slot-first: lazy STMs copy buffered values back
         "one at a time in no particular order" (Section 2.3), and the
         newest-first traversal of the log is our arbitrary order -
         deliberately not program order, so the overlapped-writes anomaly
         of Figure 4a is expressible. *)
      for i = t.nwbuf - 1 downto 0 do
        if t.wbuf_prior.(i) >= 0 then
          ignore (acquire ctx t ~expect:t.wbuf_prior.(i) t.wbuf_obj.(i))
      done;
      if timestamped ctx && not (has_writes t) then
        (* read-only fast path: serialize at [rv], no commit-time walk *)
        ctx.stats.Stats.ro_fast_commits <- ctx.stats.Stats.ro_fast_commits + 1
      else if not (validate ctx t) then begin
        t.abort_cause <- Trace.Cause_validation;
        raise Abort_txn
      end;
      (* serialization point: the transaction is now committed, but its
         updates are still pending - the Section 2.3 window opens here *)
      emit_serialized t;
      (* the clock bumps at the serialization point itself: the written
         records stay exclusively owned across the write-back window, so
         a validator that observes the new clock walks and sees either
         our ownership (entry fails — we might rewrite its granule) or
         untouched granules (entry passes) *)
      if timestamped ctx && t.nowned > 0 then t.cts <- Gvc.advance ctx.gvc;
      (* The ticket must be drawn at the serialization point itself,
         before any yield: otherwise write-back order can invert
         serialization order, and a later-serialized privatizer
         completes (and hands the object to non-transactional code)
         while an earlier transaction's flush is still pending - exactly
         the figure-1 clobber this mechanism exists to prevent. *)
      let ticket =
        if ctx.cfg.quiescence then Some (Quiesce.take_ticket ctx.q) else None
      in
      Sched.yield ();
      (match ticket with
      | Some n ->
          ctx.stats.Stats.quiesce_waits <- ctx.stats.Stats.quiesce_waits + 1;
          Quiesce.await_turn ctx.q n
      | None -> ());
      (* write back, one location at a time, yielding in between: this is
         the ordering-anomaly window of Section 2.3 *)
      for i = t.nwbuf - 1 downto 0 do
        let obj = t.wbuf_obj.(i) in
        let base = t.wbuf_base.(i) in
        let buf = t.wbuf_buf.(i) in
        for j = 0 to t.wbuf_len.(i) - 1 do
          Sched.yield ();
          publish_on_store ctx buf.(j);
          Heap.set obj (base + j) buf.(j);
          tick cost.Cost.plain_store
        done
      done;
      release_all ctx t;
      t.cts <- -1;
      (match ticket with Some n -> Quiesce.retire_ticket ctx.q n | None -> ())
  | Config.Mvcc ->
      let update = mvcc_has_public t in
      (* Commit does not happen in zero time after the last access: a
         preemption point here models the gap in which concurrent plain
         stores (weak atomicity) or other commits can land. Everything
         after it - first-committer-wins, validation, write-back - runs
         without another yield. *)
      Sched.yield ();
      if update then begin
        (* first-committer-wins: abort if any written granule gained a
           newer version since our snapshot *)
        for i = t.nwbuf - 1 downto 0 do
          if t.wbuf_prior.(i) >= 0 then begin
            let obj = t.wbuf_obj.(i) in
            if not (Mvcc.fcw_ok obj ~snap:t.snap) then begin
              t.last_oid <- obj.Heap.oid;
              t.last_aggr <- -1;
              t.last_aggr_tid <- -1;
              t.abort_cause <- Trace.Cause_conflict;
              raise Abort_txn
            end
          end
        done;
        (* serializable: reads must additionally still be current;
           snapshot isolation stops at first-committer-wins, which is
           exactly what admits write skew *)
        if not (validate ctx t) then begin
          t.abort_cause <- Trace.Cause_validation;
          raise Abort_txn
        end
      end;
      emit_serialized t;
      if not update then Mvcc.note_ro_commit ctx.mv;
      (* Install versions and write back without a single yield: on the
         cooperative scheduler the mvcc commit is atomic by construction.
         There is no write-back window (contrast the lazy branch above),
         so read-only transactions — and non-transactional readers under
         strong atomicity — only ever observe complete committed states.
         [version_ts <> ts] dedupes installs when several granule slots
         share an object: the fresh timestamp can't equal a pre-commit
         stamp, and the first install sets it. *)
      let ts = if update then Mvcc.advance ctx.mv else 0 in
      for i = t.nwbuf - 1 downto 0 do
        let obj = t.wbuf_obj.(i) in
        let base = t.wbuf_base.(i) in
        let buf = t.wbuf_buf.(i) in
        if t.wbuf_prior.(i) >= 0 && Heap.version_ts obj <> ts then
          Mvcc.install ~txid:t.txid ~tid:Sched.reg.tid ctx.mv obj ~ts;
        for j = 0 to t.wbuf_len.(i) - 1 do
          publish_on_store ctx buf.(j);
          Heap.set obj (base + j) buf.(j);
          tick cost.Cost.plain_store
        done
      done;
      mvcc_end_snapshot ctx t);
  deregister ctx t;
  Footprint.write (Footprint.flag_oid t.txid);
  Int_index.remove ctx.registry t.txid;
  if Trace.enabled () then
    Trace.emit
      (Trace.Txn_commit
         {
           txid = t.txid;
           tid = Sched.reg.tid;
           reads = t.nreads;
           writes = t.naccesses;
           latency = latency t;
         });
  ctx.stats.Stats.commits <- ctx.stats.Stats.commits + 1;
  recycle ctx t

let abort ctx t =
  let cost = ctx.cfg.cost in
  tick cost.Cost.txn_abort;
  mvcc_end_snapshot ctx t;
  (* roll back the undo log, newest entry first; each store is visible to
     unsynchronized readers - the paper's "manufactured writes" *)
  for i = t.nundo - 1 downto 0 do
    let obj = t.undo_obj.(i) in
    let base = t.undo_base.(i) in
    let buf = t.undo_buf.(i) in
    for j = 0 to t.undo_len.(i) - 1 do
      Heap.set obj (base + j) buf.(j);
      tick cost.Cost.plain_store;
      Sched.yield ()
    done
  done;
  release_all ctx t;
  deregister ctx t;
  Footprint.write (Footprint.flag_oid t.txid);
  Int_index.remove ctx.registry t.txid;
  Stm_cm.Cm.on_abort t.slot ~wounded:t.killed ~work:t.naccesses;
  let cause = if t.killed then Trace.Cause_wounded else t.abort_cause in
  (* [by]/[oid] attribution is only meaningful for contention-driven
     aborts; a user retry or an escaping exception has no aggressor, and
     any leftover conflict fields from earlier in the attempt would
     mislead the causality graph. *)
  let by, by_tid, oid =
    match cause with
    | Trace.Cause_wounded -> (t.killed_by, t.killed_by_tid, t.last_oid)
    | Trace.Cause_conflict | Trace.Cause_validation | Trace.Cause_stale_lock
    | Trace.Cause_snapshot ->
        (t.last_aggr, t.last_aggr_tid, t.last_oid)
    | Trace.Cause_retry | Trace.Cause_exn -> (-1, -1, -1)
  in
  if Trace.enabled () then
    Trace.emit
      (Trace.Txn_abort
         {
           txid = t.txid;
           tid = Sched.reg.tid;
           wounded = t.killed;
           cause;
           latency = latency t;
           by;
           by_tid;
           oid;
         });
  ctx.stats.Stats.aborts <- ctx.stats.Stats.aborts + 1;
  recycle ctx t
