open Stm_runtime

(* [Sched.tick] without the call or the in-simulation check: everything
   here runs inside a simulation (see [Sched.reg]). *)
let[@inline] tick n = Sched.(reg.clock <- reg.clock + n)

type participant = { pid : int; mutable consistent_at : int }

type t = {
  mutable epoch : int;
  mutable next_pid : int;
  mutable active : participant list;
  mutable next_ticket : int;
  mutable retired_upto : int;  (* all tickets < retired_upto are done *)
}

let create () =
  { epoch = 0; next_pid = 0; active = []; next_ticket = 0; retired_upto = 0 }

let register t =
  Footprint.write Footprint.oid_quiesce;
  let p = { pid = t.next_pid; consistent_at = t.epoch } in
  t.next_pid <- t.next_pid + 1;
  t.active <- p :: t.active;
  p

let deregister t p =
  Footprint.write Footprint.oid_quiesce;
  t.active <- List.filter (fun q -> q.pid <> p.pid) t.active

let mark_consistent t p =
  Footprint.write Footprint.oid_quiesce;
  p.consistent_at <- t.epoch

let commit_epoch_wait t me =
  Footprint.write Footprint.oid_quiesce;
  t.epoch <- t.epoch + 1;
  let target = t.epoch in
  let checks = ref 0 in
  let others_ready () =
    (* report inside the closure: the successful final evaluation runs
       in the segment after the last yield and must still be traced.
       The first failed evaluation and the successful one are plain
       reads; re-checks in between are futile spin-wait re-reads
       (reversing one against the write that ends the wait changes
       nothing but the number of re-checks). *)
    let ready =
      List.for_all
        (fun p -> p.pid = me.pid || p.consistent_at >= target)
        t.active
    in
    if ready || !checks = 0 then Footprint.read Footprint.oid_quiesce
    else Footprint.spin_read Footprint.oid_quiesce;
    incr checks;
    ready
  in
  while not (others_ready ()) do
    (* a fully validated committer is itself consistent at any epoch:
       keep refreshing so concurrent committers never wait on each other *)
    Footprint.write Footprint.oid_quiesce;
    me.consistent_at <- t.epoch;
    tick 5;
    Sched.yield ()
  done

let take_ticket t =
  Footprint.write Footprint.oid_quiesce;
  let n = t.next_ticket in
  t.next_ticket <- n + 1;
  n

let await_turn t ticket =
  let checks = ref 0 in
  let my_turn () =
    (* first failed check and the successful one are plain reads,
       re-checks in between futile spin-wait re-reads (same rationale
       as [commit_epoch_wait]) *)
    let turn = t.retired_upto >= ticket in
    if turn || !checks = 0 then Footprint.read Footprint.oid_quiesce
    else Footprint.spin_read Footprint.oid_quiesce;
    incr checks;
    turn
  in
  while not (my_turn ()) do
    tick 5;
    Sched.yield ()
  done

let retire_ticket t ticket =
  Footprint.write Footprint.oid_quiesce;
  assert (ticket = t.retired_upto);
  t.retired_upto <- ticket + 1
