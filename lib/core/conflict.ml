open Stm_runtime

exception
  Isolation_violation of { cls : string; oid : int; writer : bool }

(* The delay schedules live in Stm_cm.Cm so contention-manager policies
   can reuse them; these wrappers keep the historical signatures (tid is
   read off the running scheduler here, not passed in). *)
let backoff_delay cost ~attempt = Stm_cm.Cm.backoff_delay cost ~attempt

let jittered_delay cost ~attempt =
  let tid = max 0 Sched.reg.tid in
  Stm_cm.Cm.jittered_delay cost ~tid ~attempt

let handle ?delay (cfg : Config.t) (stats : Stats.t) ~attempt ~writer
    (obj : Heap.obj) =
  stats.Stats.conflicts <- stats.Stats.conflicts + 1;
  if Trace.enabled () then
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
      let delay =
        match delay with
        | Some d -> d
        | None -> jittered_delay cfg.cost ~attempt
      in
      stats.Stats.backoff_cycles <- stats.Stats.backoff_cycles + delay;
      if Trace.enabled_at Trace.Debug then
        Trace.emit
          (Trace.Backoff
             {
               tid = Sched.reg.tid;
               attempt;
               delay;
             });
      Sched.pause delay
