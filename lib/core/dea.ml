open Stm_runtime

(* [Sched.tick] without the call or the in-simulation check: everything
   here runs inside a simulation (see [Sched.reg]). *)
let[@inline] tick n = Sched.(reg.clock <- reg.clock + n)

(* [Trace.enabled_at] and [Trace.enabled] without the call: one load of
   the level word and a compare (the ranks are [Trace.eff]'s). *)
let[@inline] tracing () = !Trace.eff < 3

(* [Heap]'s field and transaction-record accessors without the calls:
   the match on [Footprint.sink] (the DPOR explorer's access report),
   then the load or store, in [Heap]'s order. *)
let[@inline] report oid kind =
  match !Footprint.sink with None -> () | Some f -> f oid kind

let[@inline] txrec_get (o : Heap.obj) =
  report o.Heap.oid Footprint.Read;
  Atomic.get o.Heap.txrec

let[@inline] txrec_set (o : Heap.obj) w =
  report o.Heap.oid Footprint.Write;
  Atomic.set o.Heap.txrec w

let is_private (o : Heap.obj) = Txrec.is_private (txrec_get o)

(* publishObject, Figure 11. Objects are marked public *when first
   encountered* (before their slots are scanned) so cycles of private
   objects cannot loop. *)
let publish (stats : Stats.t) (cost : Cost.t) (root : Heap.obj) =
  if is_private root then begin
    tick cost.Cost.publish_base;
    let mark_stack = ref [] in
    let mark (o : Heap.obj) =
      txrec_set o (Txrec.shared 0);
      stats.Stats.publishes <- stats.Stats.publishes + 1;
      if tracing () then
        Trace.emit (Trace.Publish { oid = o.Heap.oid; cls = o.Heap.cls });
      tick cost.Cost.publish_per_obj;
      mark_stack := o :: !mark_stack
    in
    mark root;
    let rec drain () =
      match !mark_stack with
      | [] -> ()
      | o :: rest ->
          mark_stack := rest;
          Array.iter
            (function
              | Heap.Vref slot when is_private slot -> mark slot
              | Heap.Vunit | Heap.Vnull | Heap.Vbool _ | Heap.Vint _
              | Heap.Vfloat _ | Heap.Vstr _ | Heap.Vref _ ->
                  ())
            o.Heap.fields;
          drain ()
    in
    drain ()
  end

let publish_value stats cost = function
  | Heap.Vref o -> publish stats cost o
  | Heap.Vunit | Heap.Vnull | Heap.Vbool _ | Heap.Vint _ | Heap.Vfloat _
  | Heap.Vstr _ ->
      ()
