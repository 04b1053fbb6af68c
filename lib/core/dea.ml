open Stm_runtime

(* [Sched.tick] without the call or the in-simulation check: everything
   here runs inside a simulation (see [Sched.reg]). *)
let[@inline] tick n = Sched.(reg.clock <- reg.clock + n)

let is_private (o : Heap.obj) = Txrec.is_private (Heap.txrec_get o)

(* publishObject, Figure 11. Objects are marked public *when first
   encountered* (before their slots are scanned) so cycles of private
   objects cannot loop. *)
let publish (stats : Stats.t) (cost : Cost.t) (root : Heap.obj) =
  if is_private root then begin
    tick cost.Cost.publish_base;
    let mark_stack = ref [] in
    let mark (o : Heap.obj) =
      Heap.txrec_set o (Txrec.shared 0);
      stats.Stats.publishes <- stats.Stats.publishes + 1;
      if Trace.enabled () then
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
