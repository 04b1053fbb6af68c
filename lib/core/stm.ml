open Stm_runtime

(* [Sched.tick] without the call or the in-simulation check, for the
   accesses, which run inside a simulation (see [Sched.reg]). Allocation
   keeps [Sched.tick]: outside a run it raises [Not_in_simulation]. *)
let[@inline] tick n = Sched.(reg.clock <- reg.clock + n)

(* [Trace.enabled_at] and [Trace.enabled] without the call: one load of
   the level word and a compare (the ranks are [Trace.eff]'s). *)
let[@inline] debug_on () = !Trace.eff = 0
let[@inline] history_on () = !Trace.eff <= 1

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

exception Not_installed
exception Retry_outside_transaction
exception Starved of { attempts : int }

type system = {
  ctx : Txn.ctx;
  mutable current : Txn.t array;
      (* simulated tid -> active txn, [Txn.none] if none; grows with the
         highest tid seen *)
}

(* The process's one STM state. [install] takes it, reset for the run's
   configuration; [uninstall] returns it with the run released, so
   nothing of that run's heap stays reachable from it. Outside a run it
   is always released. *)
let spare = { ctx = Txn.create (); current = Array.make 32 Txn.none }
let taken = Some spare
let system : system option ref = ref None

let get () = match !system with Some s -> s | None -> raise Not_installed

let uninstall () =
  if !system != None then begin
    system := None;
    Txn.release spare.ctx;
    let current = spare.current in
    for tid = 0 to Array.length current - 1 do
      if current.(tid) != Txn.none then current.(tid) <- Txn.none
    done
  end

let install (cfg : Config.t) =
  if cfg.dea && not cfg.strong then
    invalid_arg "Stm.install: DEA requires strong atomicity";
  if cfg.granule < 1 then invalid_arg "Stm.install: granule must be >= 1";
  uninstall ();
  Txn.reset spare.ctx cfg;
  system := taken

let installed () = !system <> None
let config () = Txn.cfg (get ()).ctx
let stats () = Txn.stats (get ()).ctx

(* [tid] is -1 outside a simulation, which no slot matches *)
let current_txn sys =
  let tid = Sched.reg.tid in
  if tid >= 0 && tid < Array.length sys.current then sys.current.(tid)
  else Txn.none

let set_current sys tid txn =
  let n = Array.length sys.current in
  if tid >= n then begin
    let a = Array.make (Int.max (2 * n) (tid + 1)) Txn.none in
    Array.blit sys.current 0 a 0 n;
    sys.current <- a
  end;
  sys.current.(tid) <- txn

let in_txn () = current_txn (get ()) != Txn.none

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

let alloc ~cls n =
  let sys = get () in
  let cfg = Txn.cfg sys.ctx in
  Sched.tick cfg.cost.Cost.alloc;
  let txrec = if cfg.dea then Heap.private_txrec else Heap.shared_txrec0 in
  Heap.alloc ~txrec ~cls n

let alloc_array n init =
  let sys = get () in
  let cfg = Txn.cfg sys.ctx in
  Sched.tick cfg.cost.Cost.alloc;
  let txrec = if cfg.dea then Heap.private_txrec else Heap.shared_txrec0 in
  Heap.alloc_array ~txrec n init

let alloc_public ~cls n =
  let sys = get () in
  Sched.tick (Txn.cfg sys.ctx).cost.Cost.alloc;
  Heap.alloc ~txrec:Heap.shared_txrec0 ~cls n

let publish obj =
  let sys = get () in
  let cfg = Txn.cfg sys.ctx in
  if cfg.dea then Dea.publish (Txn.stats sys.ctx) cfg.cost obj

(* ------------------------------------------------------------------ *)
(* Context-sensitive accesses                                          *)
(* ------------------------------------------------------------------ *)

(* Emitted at the access's linearization point: after the heap update /
   load and before any preemption point, so that the global order of
   [Access] events is the memory-visibility order the serializability
   oracle reconstructs. *)
let emit_nontxn_access (obj : Heap.obj) fld value ~write =
  if history_on () then
    Trace.emit
      (Trace.Access
         {
           tid = Sched.reg.tid;
           txid = -1;
           oid = obj.Heap.oid;
           fld;
           value;
           write;
         })

let nontxn_read sys (obj : Heap.obj) fld =
  let cfg = Txn.cfg sys.ctx in
  let v =
    if cfg.strong && cfg.strong_reads then
      match cfg.versioning with
      | Config.Eager -> Barriers.read cfg (Txn.stats sys.ctx) obj fld
      | Config.Lazy -> Barriers.read_ordering cfg (Txn.stats sys.ctx) obj fld
      | Config.Mvcc -> Barriers.read_latest cfg (Txn.stats sys.ctx) obj fld
    else begin
      (* direct access: any memory operation is a preemption point on a
         real multiprocessor *)
      Sched.yield ();
      tick cfg.cost.Cost.plain_load;
      heap_get obj fld
    end
  in
  emit_nontxn_access obj fld v ~write:false;
  v

let nontxn_write sys (obj : Heap.obj) fld v =
  let cfg = Txn.cfg sys.ctx in
  if cfg.strong && cfg.strong_writes then
    match cfg.versioning with
    | Config.Eager | Config.Lazy ->
        Barriers.write ~gvc:(Txn.gvc sys.ctx) cfg (Txn.stats sys.ctx) obj fld
          v
    | Config.Mvcc ->
        Barriers.write_versioned cfg (Txn.stats sys.ctx) (Txn.mvcc sys.ctx)
          obj fld v
  else begin
    (* Even under weak atomicity with DEA off, reference stores into the
       heap never publish: objects are born public in that mode. *)
    Sched.yield ();
    tick cfg.cost.Cost.plain_store;
    heap_set obj fld v
  end;
  emit_nontxn_access obj fld v ~write:true

let read obj fld =
  let sys = get () in
  let t = current_txn sys in
  if t != Txn.none then Txn.txn_read sys.ctx t obj fld
  else nontxn_read sys obj fld

let write obj fld v =
  let sys = get () in
  let t = current_txn sys in
  if t != Txn.none then Txn.txn_write sys.ctx t obj fld v
  else nontxn_write sys obj fld v

let emit_elided op =
  if debug_on () then
    Trace.emit
      (Trace.Barrier
         {
           tid = Sched.reg.tid;
           site = Site.current ();
           op;
           path = Trace.Path_elided;
         })

let read_nobarrier obj fld =
  let sys = get () in
  let t = current_txn sys in
  if t != Txn.none then Txn.txn_read sys.ctx t obj fld
  else begin
    emit_elided Trace.Op_read;
    Sched.yield ();
    tick (Txn.cfg sys.ctx).cost.Cost.plain_load;
    let v = heap_get obj fld in
    emit_nontxn_access obj fld v ~write:false;
    v
  end

let write_nobarrier obj fld v =
  let sys = get () in
  let t = current_txn sys in
  if t != Txn.none then Txn.txn_write sys.ctx t obj fld v
  else begin
    let cfg = Txn.cfg sys.ctx in
    emit_elided Trace.Op_write;
    (* Publication is a correctness duty, not part of the isolation
       barrier: even at sites whose barrier the compiler removed, a
       reference store into a public object must publish the referenced
       private graph. *)
    if cfg.dea && not (Dea.is_private obj) then
      Dea.publish_value (Txn.stats sys.ctx) cfg.cost v;
    Sched.yield ();
    tick cfg.cost.Cost.plain_store;
    heap_set obj fld v;
    emit_nontxn_access obj fld v ~write:true
  end

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)
(* ------------------------------------------------------------------ *)

(* Inter-attempt backoff between an abort and the block's next
   incarnation; the delay schedule is the contention manager's. *)
let backoff_wait sys slot attempt =
  let tid = Sched.self () in
  let delay = Stm_cm.Cm.restart_delay (Txn.cm sys.ctx) slot ~attempt in
  (Txn.stats sys.ctx).Stats.backoff_cycles <-
    (Txn.stats sys.ctx).Stats.backoff_cycles + delay;
  if debug_on () then
    Trace.emit (Trace.Backoff { tid; attempt; delay });
  Sched.pause delay

(* Has this block burned through its whole restart budget? [n] is the
   index of the attempt that just aborted, so [n + 1] attempts failed. *)
let starved_out (cfg : Config.t) n =
  cfg.max_txn_restarts > 0 && n + 1 >= cfg.max_txn_restarts

(* Wait until some member of the read-set snapshot changes version
   (approximates the blocking retry of Harris et al.). *)
let wait_for_change cfg snap =
  match snap with
  | [] -> Sched.yield ()
  | _ ->
      let checks = ref 0 in
      let changed () =
        (* the first failed sweep and the one that observes a change
           report plain reads; sweeps in between are futile spin-wait
           re-reads (see {!Stm_runtime.Footprint.kind}) *)
        let hit =
          List.exists
            (fun ((obj : Heap.obj), ver) ->
              match cfg.Config.versioning with
              | Config.Mvcc ->
                  (* mvcc read sets record version stamps, not record
                     words: a change is a newer installed version *)
                  Heap.version_ts_peek obj <> ver
              | Config.Eager | Config.Lazy ->
                  txrec_peek obj <> Txrec.shared ver)
            snap
        in
        List.iter
          (fun ((obj : Heap.obj), _) ->
            if hit || !checks = 0 then report obj.Heap.oid Footprint.Read
            else report obj.Heap.oid Footprint.Spin_read)
          snap;
        incr checks;
        hit
      in
      while not (changed ()) do
        tick cfg.Config.cost.Cost.alu;
        Sched.yield ()
      done

(* The attempt loop of one atomic block, top-level or open-nested under
   [parent] ([Txn.none] at top level). Attempt [n] begins an incarnation
   with the block's contention slot - [Stm_cm.Cm.no_slot] before the
   first, which makes [Txn.begin_txn] take a fresh one - so every restart
   and every [retry()] keeps the block's birth, karma and backoff stream,
   and nothing outlives the block: a caught exception or [Starved] drops
   the slot with the loop. Top-level functions, not local closures, so a
   block allocates no closure per attempt. *)
let rec attempt sys tid parent slot f n =
  let txn = Txn.begin_txn sys.ctx ~parent ~slot in
  let slot = Txn.slot txn in
  set_current sys tid txn;
  match f () with
  | v -> (
      match Txn.commit sys.ctx txn with
      | () ->
          set_current sys tid parent;
          v
      | exception Txn.Abort_txn -> restart sys tid parent slot f n txn)
  | exception Txn.Abort_txn -> restart sys tid parent slot f n txn
  | exception Txn.Retry_request when parent == Txn.none ->
      (* top level only: in an open-nested block a retry takes the branch
         below, which aborts the child and propagates to the parent *)
      let snap = Txn.reads_snapshot txn in
      (Txn.stats sys.ctx).Stats.retries <- (Txn.stats sys.ctx).Stats.retries + 1;
      Txn.set_abort_cause txn Trace.Cause_retry;
      Txn.abort sys.ctx txn;
      set_current sys tid parent;
      wait_for_change (Txn.cfg sys.ctx) snap;
      attempt sys tid parent slot f n
  | exception ex ->
      Txn.abort sys.ctx txn;
      set_current sys tid parent;
      raise ex

(* A conflict abort: give up with [Starved] once the restart budget is
   spent, otherwise back off and run the next incarnation. *)
and restart sys tid parent slot f n txn =
  Txn.abort sys.ctx txn;
  set_current sys tid parent;
  if starved_out (Txn.cfg sys.ctx) n then raise (Starved { attempts = n + 1 });
  backoff_wait sys slot n;
  attempt sys tid parent slot f (n + 1)

let atomic f =
  let sys = get () in
  if current_txn sys != Txn.none then f () (* closed nesting by flattening *)
  else attempt sys (Sched.self ()) Txn.none Stm_cm.Cm.no_slot f 0

let atomic_open f =
  let sys = get () in
  attempt sys (Sched.self ()) (current_txn sys) Stm_cm.Cm.no_slot f 0

let cm_slot () = Txn.slot (current_txn (get ()))

let retry () =
  if in_txn () then raise Txn.Retry_request
  else raise Retry_outside_transaction

let valid () =
  let sys = get () in
  let t = current_txn sys in
  t == Txn.none || Txn.validate sys.ctx t

let abort_and_retry () =
  if in_txn () then raise Txn.Abort_txn
  else invalid_arg "Stm.abort_and_retry: no enclosing transaction"

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let run ?policy ?max_steps ~cfg main =
  Heap.reset ();
  Site.reset ();
  install cfg;
  Fun.protect ~finally:uninstall (fun () ->
      let result = Sched.run ?max_steps ?policy main in
      (result, stats ()))

(* ------------------------------------------------------------------ *)
(* Value helpers                                                       *)
(* ------------------------------------------------------------------ *)

let vint i = Heap.Vint i
let vbool b = Heap.Vbool b
let vref o = Heap.Vref o

let to_int = function
  | Heap.Vint i -> i
  | v -> invalid_arg ("Stm.to_int: " ^ Heap.show_value v)

let to_bool = function
  | Heap.Vbool b -> b
  | v -> invalid_arg ("Stm.to_bool: " ^ Heap.show_value v)

let to_obj = function
  | Heap.Vref o -> o
  | v -> invalid_arg ("Stm.to_obj: " ^ Heap.show_value v)

let is_null = function Heap.Vnull -> true | _ -> false
