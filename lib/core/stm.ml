open Stm_runtime

exception Not_installed
exception Retry_outside_transaction
exception Starved of { attempts : int }

type system = {
  ctx : Txn.ctx;
  mutable current : Txn.t option array;
      (* simulated tid -> active txn; grows with the highest tid seen *)
}

let system : system option ref = ref None

let get () = match !system with Some s -> s | None -> raise Not_installed

let install (cfg : Config.t) =
  if cfg.dea && not cfg.strong then
    invalid_arg "Stm.install: DEA requires strong atomicity";
  if cfg.granule < 1 then invalid_arg "Stm.install: granule must be >= 1";
  system := Some { ctx = Txn.make_ctx cfg; current = Array.make 32 None }

let uninstall () = system := None
let installed () = !system <> None
let config () = Txn.cfg (get ()).ctx
let stats () = Txn.stats (get ()).ctx

let current_txn sys =
  if Sched.running () then
    let tid = Sched.self () in
    if tid < Array.length sys.current then sys.current.(tid) else None
  else None

let set_current sys tid txn =
  let n = Array.length sys.current in
  if tid >= n then begin
    let a = Array.make (max (2 * n) (tid + 1)) None in
    Array.blit sys.current 0 a 0 n;
    sys.current <- a
  end;
  sys.current.(tid) <- txn

let in_txn () = current_txn (get ()) <> None

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
  if Trace.enabled_at Trace.History then
    Trace.emit
      (Trace.Access
         {
           tid = Sched.self ();
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
      Sched.tick cfg.cost.Cost.plain_load;
      Heap.get obj fld
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
    Sched.tick cfg.cost.Cost.plain_store;
    Heap.set obj fld v
  end;
  emit_nontxn_access obj fld v ~write:true

let read obj fld =
  let sys = get () in
  match current_txn sys with
  | Some t -> Txn.txn_read sys.ctx t obj fld
  | None -> nontxn_read sys obj fld

let write obj fld v =
  let sys = get () in
  match current_txn sys with
  | Some t -> Txn.txn_write sys.ctx t obj fld v
  | None -> nontxn_write sys obj fld v

let emit_elided op =
  if Trace.enabled_at Trace.Debug then
    Trace.emit
      (Trace.Barrier
         {
           tid = Sched.self ();
           site = Site.current ();
           op;
           path = Trace.Path_elided;
         })

let read_nobarrier obj fld =
  let sys = get () in
  match current_txn sys with
  | Some t -> Txn.txn_read sys.ctx t obj fld
  | None ->
      emit_elided Trace.Op_read;
      Sched.yield ();
      Sched.tick (Txn.cfg sys.ctx).cost.Cost.plain_load;
      let v = Heap.get obj fld in
      emit_nontxn_access obj fld v ~write:false;
      v

let write_nobarrier obj fld v =
  let sys = get () in
  match current_txn sys with
  | Some t -> Txn.txn_write sys.ctx t obj fld v
  | None ->
      let cfg = Txn.cfg sys.ctx in
      emit_elided Trace.Op_write;
      (* Publication is a correctness duty, not part of the isolation
         barrier: even at sites whose barrier the compiler removed, a
         reference store into a public object must publish the referenced
         private graph. *)
      if cfg.dea && not (Dea.is_private obj) then
        Dea.publish_value (Txn.stats sys.ctx) cfg.cost v;
      Sched.yield ();
      Sched.tick cfg.cost.Cost.plain_store;
      Heap.set obj fld v;
      emit_nontxn_access obj fld v ~write:true

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)
(* ------------------------------------------------------------------ *)

(* Inter-attempt backoff between an abort and the block's next
   incarnation; the delay schedule is the contention manager's. *)
let backoff_wait sys attempt =
  let tid = Sched.self () in
  let delay = Stm_cm.Cm.restart_delay (Txn.cm sys.ctx) ~tid ~attempt in
  (Txn.stats sys.ctx).Stats.backoff_cycles <-
    (Txn.stats sys.ctx).Stats.backoff_cycles + delay;
  if Trace.enabled_at Trace.Debug then
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
                  Heap.txrec_peek obj <> Txrec.shared ver)
            snap
        in
        List.iter
          (fun ((obj : Heap.obj), _) ->
            if hit || !checks = 0 then Footprint.read obj.Heap.oid
            else Footprint.spin_read obj.Heap.oid)
          snap;
        incr checks;
        hit
      in
      while not (changed ()) do
        Sched.tick cfg.Config.cost.Cost.alu;
        Sched.yield ()
      done

let atomic f =
  let sys = get () in
  let cfg = Txn.cfg sys.ctx in
  match current_txn sys with
  | Some t ->
      (* closed nesting by flattening *)
      Txn.set_depth t (Txn.depth t + 1);
      Fun.protect ~finally:(fun () -> Txn.set_depth t (Txn.depth t - 1)) f
  | None ->
      let tid = Sched.self () in
      let rec attempt n =
        let txn = Txn.begin_txn sys.ctx in
        set_current sys tid (Some txn);
        let cleanup () = set_current sys tid None in
        let aborted () =
          let give_up = starved_out cfg n in
          Txn.abort ~restart:(not give_up) sys.ctx txn;
          cleanup ();
          if give_up then raise (Starved { attempts = n + 1 });
          backoff_wait sys n;
          attempt (n + 1)
        in
        match f () with
        | v -> (
            match Txn.commit sys.ctx txn with
            | () ->
                cleanup ();
                v
            | exception Txn.Abort_txn -> aborted ())
        | exception Txn.Abort_txn -> aborted ()
        | exception Txn.Retry_request ->
            let snap = Txn.reads_snapshot txn in
            (Txn.stats sys.ctx).Stats.retries <-
              (Txn.stats sys.ctx).Stats.retries + 1;
            Txn.set_abort_cause txn Trace.Cause_retry;
            Txn.abort sys.ctx txn;
            cleanup ();
            wait_for_change cfg snap;
            attempt n
        | exception ex ->
            Txn.abort ~restart:false sys.ctx txn;
            cleanup ();
            raise ex
      in
      attempt 0

let atomic_open f =
  let sys = get () in
  let cfg = Txn.cfg sys.ctx in
  let tid = Sched.self () in
  match current_txn sys with
  | None -> atomic f
  | Some parent ->
      let rec attempt n =
        let txn = Txn.begin_txn ~parent sys.ctx in
        set_current sys tid (Some txn);
        let restore () = set_current sys tid (Some parent) in
        let aborted () =
          let give_up = starved_out cfg n in
          Txn.abort ~restart:(not give_up) sys.ctx txn;
          restore ();
          if give_up then raise (Starved { attempts = n + 1 });
          backoff_wait sys n;
          attempt (n + 1)
        in
        match f () with
        | v -> (
            match Txn.commit sys.ctx txn with
            | () ->
                restore ();
                v
            | exception Txn.Abort_txn -> aborted ())
        | exception Txn.Abort_txn -> aborted ()
        | exception ex ->
            Txn.abort ~restart:false sys.ctx txn;
            restore ();
            raise ex
      in
      attempt 0

let retry () =
  if in_txn () then raise Txn.Retry_request
  else raise Retry_outside_transaction

let valid () =
  let sys = get () in
  match current_txn sys with
  | Some t -> Txn.validate sys.ctx t
  | None -> true

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
      let snapshot = Stats.create () in
      Stats.add snapshot (stats ());
      (result, snapshot))

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
