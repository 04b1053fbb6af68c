open Stm_runtime
module Mvcc = Stm_mvcc.Mvcc

(* [Sched.tick] without the call or the in-simulation check: everything
   here runs inside a simulation (see [Sched.reg]). *)
let[@inline] tick n = Sched.(reg.clock <- reg.clock + n)

(* [Trace.enabled_at] and [Trace.enabled] without the call: one load of
   the level word and a compare (the ranks are [Trace.eff]'s). *)
let[@inline] debug_on () = !Trace.eff = 0

(* [Heap]'s field and transaction-record accessors without the calls:
   the match on [Footprint.sink] (the DPOR explorer's access report),
   then the load or store, in [Heap]'s order. *)
let[@inline] report oid kind =
  match !Footprint.sink with None -> () | Some f -> f oid kind

let[@inline] heap_get (o : Heap.obj) i =
  report o.Heap.oid Footprint.Read;
  o.Heap.fields.(i)

let[@inline] heap_set (o : Heap.obj) i v =
  report o.Heap.oid Footprint.Write;
  o.Heap.fields.(i) <- v

let[@inline] txrec_peek (o : Heap.obj) = Atomic.get o.Heap.txrec

let[@inline] txrec_get (o : Heap.obj) =
  report o.Heap.oid Footprint.Read;
  Atomic.get o.Heap.txrec

let[@inline] txrec_set (o : Heap.obj) w =
  report o.Heap.oid Footprint.Write;
  Atomic.set o.Heap.txrec w

let[@inline] txrec_cas (o : Heap.obj) old w =
  report o.Heap.oid Footprint.Write;
  Atomic.compare_and_set o.Heap.txrec old w

(* Every emission sits next to the [Stats] increment it mirrors, so the
   per-site profiler's column sums reproduce the global counters exactly
   (checked by the test suite). *)
let emit_barrier op path =
  if debug_on () then
    Trace.emit
      (Trace.Barrier { tid = Sched.reg.tid; site = Site.current (); op; path })

(* Same convention as [Txn.observe_blocked]: the first blocked record
   observation in a retry loop is a plain read, later ones are futile
   spin-wait re-reads; iterations that leave the loop report a plain
   read. *)
let observe_blocked ~attempt oid =
  report oid (if attempt > 0 then Footprint.Spin_read else Footprint.Read)

(* The barrier retry loops are top-level functions rather than local
   closures: a closure over the barrier's arguments would be allocated on
   every access. *)
let rec read_loop (cfg : Config.t) (stats : Stats.t) (obj : Heap.obj) fld
    attempt =
  let cost = cfg.cost in
  (* mov ecx, [TxRec] — whether this iteration will block is a
     function of [w1] alone, so the observation is classified here,
     in its own segment (the branch point is two yields away) *)
  let w1 = txrec_peek obj in
  let blocked =
    (not (cfg.dea && cfg.read_privacy_check && Txrec.is_private w1))
    && (not (Txrec.readable_bit w1)
       || (cfg.detect_nontxn_races && not (Txrec.btr_acquirable w1)))
  in
  if blocked then observe_blocked ~attempt obj.Heap.oid
  else report obj.Heap.oid Footprint.Read;
  tick cost.Cost.plain_load;
  Sched.yield ();
  (* mov eax, [addr] *)
  let v = heap_get obj fld in
  tick cost.Cost.plain_load;
  Sched.yield ();
  (* cmp ecx, -1 ; jeq readDone   (optional DEA fast path) *)
  if cfg.dea && cfg.read_privacy_check && Txrec.is_private w1 then begin
    stats.Stats.barrier_private_hits <- stats.Stats.barrier_private_hits + 1;
    emit_barrier Trace.Op_read Trace.Path_private;
    v
  end
  else if not (Txrec.readable_bit w1) then begin
    (* test ecx, 2 ; jz readConflict *)
    Conflict.handle cfg stats ~attempt ~writer:false obj;
    read_loop cfg stats obj fld (attempt + 1)
  end
  else if cfg.detect_nontxn_races && not (Txrec.btr_acquirable w1) then begin
    (* footnote 2: bit 0 clear means some writer - transactional or
       not - holds the record; report the race between two
       non-transactional threads too *)
    Conflict.handle cfg stats ~attempt ~writer:false obj;
    read_loop cfg stats obj fld (attempt + 1)
  end
  else begin
    (* cmp ecx, [TxRec] ; jne readConflict *)
    let w2 = txrec_get obj in
    tick cost.Cost.plain_load;
    if w2 <> w1 then begin
      Conflict.handle cfg stats ~attempt ~writer:false obj;
      read_loop cfg stats obj fld (attempt + 1)
    end
    else v
  end

(* Figure 9a / 10a. *)
let read (cfg : Config.t) (stats : Stats.t) (obj : Heap.obj) fld =
  stats.Stats.barrier_reads <- stats.Stats.barrier_reads + 1;
  emit_barrier Trace.Op_read Trace.Path_fired;
  tick cfg.cost.Cost.barrier_entry;
  read_loop cfg stats obj fld 0

let rec read_ordering_loop (cfg : Config.t) (stats : Stats.t)
    (obj : Heap.obj) fld attempt =
  let cost = cfg.cost in
  let w = txrec_peek obj in
  tick cost.Cost.plain_load;
  if not (Txrec.readable_bit w) then begin
    observe_blocked ~attempt obj.Heap.oid;
    Conflict.handle cfg stats ~attempt ~writer:false obj;
    read_ordering_loop cfg stats obj fld (attempt + 1)
  end
  else begin
    report obj.Heap.oid Footprint.Read;
    Sched.yield ();
    let v = heap_get obj fld in
    tick cost.Cost.plain_load;
    v
  end

(* Section 3.3: test [TxRec], 2 ; jz readConflict ; mov eax, [addr]. *)
let read_ordering (cfg : Config.t) (stats : Stats.t) (obj : Heap.obj) fld =
  stats.Stats.barrier_reads <- stats.Stats.barrier_reads + 1;
  emit_barrier Trace.Op_read_ordering Trace.Path_fired;
  tick cfg.cost.Cost.barrier_entry;
  read_ordering_loop cfg stats obj fld 0

(* The BTR acquire loop shared by the write barrier and by aggregated
   barriers. Returns the word that was current when ownership was taken
   (the private word if the DEA fast path hit). *)
let rec acquire_loop op (cfg : Config.t) (stats : Stats.t) (obj : Heap.obj)
    attempt =
  let cost = cfg.cost in
  let w = txrec_peek obj in
  tick cost.Cost.plain_load;
  (* cmp [TxRec], -1 ; jeq privateWrite *)
  if cfg.dea && Txrec.is_private w then begin
    report obj.Heap.oid Footprint.Read;
    stats.Stats.barrier_private_hits <- stats.Stats.barrier_private_hits + 1;
    emit_barrier op Trace.Path_private;
    w
  end
  else if Txrec.btr_acquirable w then begin
    report obj.Heap.oid Footprint.Read;
    (* lock btr [TxRec], 0 *)
    stats.Stats.atomic_ops <- stats.Stats.atomic_ops + 1;
    tick cost.Cost.atomic_rmw;
    Sched.yield ();
    if txrec_cas obj w (w - 1) then w - 1
    else acquire_loop op cfg stats obj attempt
  end
  else begin
    (* jnc writeConflict *)
    observe_blocked ~attempt obj.Heap.oid;
    Conflict.handle cfg stats ~attempt ~writer:true obj;
    acquire_loop op cfg stats obj (attempt + 1)
  end

let acquire_anon ?(op = Trace.Op_write) cfg stats obj =
  acquire_loop op cfg stats obj 0

let release_anon (cfg : Config.t) (obj : Heap.obj) w =
  if not (Txrec.is_private w) then begin
    (* add [TxRec], 9 *)
    txrec_set obj (w + Txrec.release_delta);
    tick cfg.cost.Cost.plain_store
  end

(* Figure 9b / 10b. *)
let write ~gvc (cfg : Config.t) (stats : Stats.t) (obj : Heap.obj) fld v =
  let cost = cfg.cost in
  stats.Stats.barrier_writes <- stats.Stats.barrier_writes + 1;
  emit_barrier Trace.Op_write Trace.Path_fired;
  tick cost.Cost.barrier_entry;
  let w = acquire_anon cfg stats obj in
  if Txrec.is_private w then begin
    (* privateWrite: mov [addr], val *)
    heap_set obj fld v;
    tick cost.Cost.plain_store
  end
  else begin
    (* publish the stored reference if it leads to private objects
       (asterisked instructions of Figure 10b, reference stores only) *)
    if cfg.dea then Dea.publish_value stats cost v;
    Sched.yield ();
    (* mov [addr], val *)
    heap_set obj fld v;
    tick cost.Cost.plain_store;
    Sched.yield ();
    (* under timestamp validation a strong non-transactional store is a
       one-word commit: bump the global clock and stamp the granule —
       atomically with the release, which is what makes the new value
       visible to validation — so timestamp-mode readers walk (or
       extend) instead of fast-passing over it *)
    if cfg.validation = Config.Timestamp then
      Heap.set_version_ts obj (Gvc.advance gvc);
    release_anon cfg obj w
  end

(* mvcc strong-atomicity read barrier: the latest committed version of a
   granule is its current fields — mvcc commits write back without a
   yield, so there is no pending-write-back window to order against and
   no ownership to test. A plain load after a preemption point is the
   whole barrier. *)
let read_latest (cfg : Config.t) (stats : Stats.t) (obj : Heap.obj) fld =
  let cost = cfg.cost in
  stats.Stats.barrier_reads <- stats.Stats.barrier_reads + 1;
  if cfg.dea && cfg.read_privacy_check && Dea.is_private obj then begin
    stats.Stats.barrier_private_hits <- stats.Stats.barrier_private_hits + 1;
    emit_barrier Trace.Op_read Trace.Path_private
  end
  else emit_barrier Trace.Op_read Trace.Path_fired;
  tick cost.Cost.barrier_entry;
  Sched.yield ();
  let v = heap_get obj fld in
  tick cost.Cost.plain_load;
  v

(* mvcc strong-atomicity write barrier: a non-transactional store is a
   one-field committed transaction — retire the current fields into the
   version chain and stamp a fresh clock tick, then store. Concurrent
   snapshots keep reading their own versions; the install + store runs
   yield-free so no reader can observe the stamp without the store. *)
let write_versioned (cfg : Config.t) (stats : Stats.t) mv (obj : Heap.obj) fld
    v =
  let cost = cfg.cost in
  stats.Stats.barrier_writes <- stats.Stats.barrier_writes + 1;
  emit_barrier Trace.Op_write Trace.Path_fired;
  tick cost.Cost.barrier_entry;
  if cfg.dea && Dea.is_private obj then begin
    stats.Stats.barrier_private_hits <- stats.Stats.barrier_private_hits + 1;
    emit_barrier Trace.Op_write Trace.Path_private;
    heap_set obj fld v;
    tick cost.Cost.plain_store
  end
  else begin
    if cfg.dea then Dea.publish_value stats cost v;
    Sched.yield ();
    Mvcc.install ~tid:Sched.reg.tid mv obj ~ts:(Mvcc.advance mv);
    heap_set obj fld v;
    tick cost.Cost.plain_store
  end
