open Stm_runtime
open Stm_core

(* Structured event record: the raw Trace event stamped with the emitting
   thread, its cost clock, and the global scheduler step. The step is the
   only totally ordered timestamp - cost clocks are per-thread. *)
type entry = { ts : int; step : int; tid : int; ev : Trace.event }

type t = { ring : entry Ring.t }

let create ?(capacity = 1 lsl 16) () = { ring = Ring.create ~capacity }

let record t ev =
  let running = Sched.running () in
  Ring.push t.ring
    {
      ts = (if running then Sched.time () else 0);
      step = Sched.steps ();
      tid = (if running then Sched.self () else -1);
      ev;
    }

let entries t = Ring.to_list t.ring
let length t = Ring.length t.ring
let dropped t = Ring.dropped t.ring
let clear t = Ring.clear t.ring
