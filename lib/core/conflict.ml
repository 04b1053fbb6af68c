open Stm_runtime

(* [Trace.enabled_at] and [Trace.enabled] without the call: one load of
   the level word and a compare (the ranks are [Trace.eff]'s). *)
let[@inline] debug_on () = !Trace.eff = 0
let[@inline] tracing () = !Trace.eff < 3

exception
  Isolation_violation of { cls : string; oid : int; writer : bool }

(* The delay schedule lives in Stm_cm.Cm so contention-manager policies
   can reuse it; this wrapper reads the tid off the running scheduler. *)
let jittered_delay cost ~attempt =
  let tid = Int.max 0 Sched.reg.tid in
  Stm_cm.Cm.jittered_delay cost ~tid ~attempt

let backoff (cfg : Config.t) (stats : Stats.t) ~attempt ~writer ~delay
    (obj : Heap.obj) =
  stats.Stats.conflicts <- stats.Stats.conflicts + 1;
  if tracing () then
    Trace.emit
      (Trace.Conflict
         {
           tid = Sched.reg.tid;
           oid = obj.Heap.oid;
           cls = obj.Heap.cls;
           writer;
           site = Site.current ();
         });
  match cfg.conflict with
  | Config.Raise_error ->
      raise (Isolation_violation { cls = obj.Heap.cls; oid = obj.Heap.oid; writer })
  | Config.Backoff ->
      stats.Stats.backoff_cycles <- stats.Stats.backoff_cycles + delay;
      if debug_on () then
        Trace.emit
          (Trace.Backoff
             {
               tid = Sched.reg.tid;
               attempt;
               delay;
             });
      Sched.pause delay

(* A barrier backs off on the jittered schedule: it has no transaction
   for the contention manager to decide for. *)
let handle (cfg : Config.t) stats ~attempt ~writer obj =
  backoff cfg stats ~attempt ~writer ~delay:(jittered_delay cfg.cost ~attempt) obj
