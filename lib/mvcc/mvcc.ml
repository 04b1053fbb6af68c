open Stm_runtime

(* Multi-version concurrency control for the simulated heap.

   One instance holds a handle on the global commit clock (shared with
   the single-version backends under timestamp validation) and the
   registry of live snapshots. Each granule (heap object) keeps a bounded version chain
   (see {!Heap.push_version} and friends); this module decides *when*
   versions are installed and *which* retired versions are still
   reachable.

   The protocol is first-committer-wins over whole objects:

   - a transaction takes a snapshot timestamp at begin and reads every
     object as of that timestamp, abort-free;
   - writes are buffered; commit installs them at a fresh clock tick iff
     no other committer installed a newer version of a written object
     since the snapshot was taken;
   - read-only transactions commit without any validation at all - their
     serialization point is their snapshot point.

   Installation is performed by the caller (the txn layer / the strong
   write barrier) without a scheduler yield, so on the cooperative
   scheduler a commit's write-back is atomic by construction: no reader
   ever observes a half-installed commit. *)

type stats = {
  mutable installs : int;  (* versions installed (commits + nontxn writes) *)
  mutable pruned : int;  (* past versions dropped by GC *)
  mutable snapshot_reads : int;  (* reads served from a past version *)
  mutable too_old : int;  (* reads that missed a pruned version *)
  mutable ro_commits : int;  (* read-only commits (validation-free) *)
}

(* Who installed the version stamped [ts], for abort attribution: a
   direct-mapped ring keyed by the low bits of the timestamp. Entries for
   old timestamps are evicted by newer installs that alias the slot;
   lookups then return nothing, which degrades to the unattributed abort
   the layer produced before the ring existed. The ring is allocated by
   the first install, since only the mvcc backend installs versions, and
   is kept by [reset]. *)
let installer_ring = 256

type t = {
  gvc : Gvc.t;  (* the commit clock — shared with the rest of the system *)
  max_versions : int;  (* chain bound, current version included *)
  active : int Int_index.t;  (* snapshot ts -> live-transaction count, 0 = none *)
  mutable inst_ts : int array;
      (* ring slot -> timestamp, -1 = empty; [||] until the first install *)
  mutable inst_txid : int array;  (* installing txid, -1 = non-transactional *)
  mutable inst_tid : int array;  (* installing thread *)
  stats : stats;
}

let default_max_versions = 8

let create ?gvc ?(max_versions = default_max_versions) () =
  if max_versions < 1 then invalid_arg "Mvcc.create: max_versions must be >= 1";
  {
    gvc = (match gvc with Some g -> g | None -> Gvc.create ());
    max_versions;
    active = Int_index.create 0;
    inst_ts = [||];
    inst_txid = [||];
    inst_tid = [||];
    stats = { installs = 0; pruned = 0; snapshot_reads = 0; too_old = 0; ro_commits = 0 };
  }

(* What [create] gives, except the clock, which belongs to the caller, and
   the ring's arrays, which are kept with every slot empty. A ring that
   saw no install since the last reset is already empty. *)
let reset t =
  Int_index.clear t.active;
  if t.stats.installs > 0 then Array.fill t.inst_ts 0 (Array.length t.inst_ts) (-1);
  t.stats.installs <- 0;
  t.stats.pruned <- 0;
  t.stats.snapshot_reads <- 0;
  t.stats.too_old <- 0;
  t.stats.ro_commits <- 0

let now t = Gvc.now t.gvc
let gvc t = t.gvc
let max_versions t = t.max_versions
let stats t = t.stats
let advance t = Gvc.advance t.gvc

(* ------------------------------------------------------------------ *)
(* Snapshot registry                                                   *)
(* ------------------------------------------------------------------ *)

let begin_snapshot t =
  Footprint.write Footprint.oid_mvcc;
  let ts = Gvc.now t.gvc in
  Int_index.replace t.active ts (1 + Int_index.find t.active ts);
  ts

let end_snapshot t ts =
  Footprint.write Footprint.oid_mvcc;
  match Int_index.find t.active ts with
  | 0 -> ()
  | 1 -> Int_index.remove t.active ts
  | n -> Int_index.replace t.active ts (n - 1)

(* The oldest snapshot any live transaction still reads at; when no
   transaction is live, the clock itself - every retired version is then
   unreachable. Live-transaction counts are small (one per simulated
   thread), so the fold is cheap. *)
let oldest_active t =
  Footprint.read Footprint.oid_mvcc;
  Int_index.fold (fun ts _ acc -> Int.min ts acc) t.active (Gvc.now t.gvc)

(* ------------------------------------------------------------------ *)
(* Reads                                                               *)
(* ------------------------------------------------------------------ *)

(* Read [obj.(fld)] as of snapshot [snap] from its version chain, for an
   object stamped newer than [snap] (a current field is read directly).
   [None] = the version was pruned (snapshot too old); the caller turns
   that into an abort. *)
let read t (obj : Heap.obj) fld ~snap =
  match Heap.read_at obj fld ~ts:snap with
  | Some _ as v ->
      t.stats.snapshot_reads <- t.stats.snapshot_reads + 1;
      v
  | None ->
      t.stats.too_old <- t.stats.too_old + 1;
      None

(* ------------------------------------------------------------------ *)
(* Installation + GC                                                   *)
(* ------------------------------------------------------------------ *)

(* First-committer-wins check for one written object: no version newer
   than the writer's snapshot may have been installed. *)
let fcw_ok (obj : Heap.obj) ~snap = Heap.version_ts obj <= snap

(* Retire the current fields of [obj] into its chain, to be overwritten
   by the caller with the version stamped [ts], then GC the chain: drop
   whatever the oldest live snapshot can no longer reach, bounded by
   [max_versions] overall. Must be called before the first store of the
   installing commit touches [obj], and the whole install must run
   without a scheduler yield. *)
let install ?(txid = -1) ?(tid = -1) t (obj : Heap.obj) ~ts =
  Footprint.write Footprint.oid_mvcc;
  Heap.push_version obj;
  Heap.set_version_ts obj ts;
  if Array.length t.inst_ts = 0 then begin
    t.inst_ts <- Array.make installer_ring (-1);
    t.inst_txid <- Array.make installer_ring (-1);
    t.inst_tid <- Array.make installer_ring (-1)
  end;
  let slot = ts land (installer_ring - 1) in
  t.inst_ts.(slot) <- ts;
  t.inst_txid.(slot) <- txid;
  t.inst_tid.(slot) <- tid;
  t.stats.installs <- t.stats.installs + 1;
  let dropped =
    Heap.prune_past obj ~oldest:(oldest_active t) ~max_versions:t.max_versions
  in
  t.stats.pruned <- t.stats.pruned + dropped

(* (txid, tid) of the commit that installed the version stamped [ts];
   [None] once the ring slot has been reused by a later install. *)
let installer_of t ~ts =
  Footprint.read Footprint.oid_mvcc;
  let slot = ts land (installer_ring - 1) in
  if ts >= 0 && Array.length t.inst_ts > 0 && t.inst_ts.(slot) = ts then
    Some (t.inst_txid.(slot), t.inst_tid.(slot))
  else None

let note_ro_commit t = t.stats.ro_commits <- t.stats.ro_commits + 1

let stats_to_assoc t =
  [
    ("mvcc_installs", t.stats.installs);
    ("mvcc_pruned", t.stats.pruned);
    ("mvcc_snapshot_reads", t.stats.snapshot_reads);
    ("mvcc_too_old", t.stats.too_old);
    ("mvcc_ro_commits", t.stats.ro_commits);
  ]
