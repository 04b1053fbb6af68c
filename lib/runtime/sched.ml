open Effect
open Effect.Deep

type tid = int

type policy =
  | Random of int
  | Min_clock
  | Controlled of (tid -> tid list -> tid)

type status = Completed | Deadlock of tid list | Fuel_exhausted

type result = {
  status : status;
  makespan : int;
  exns : (tid * exn) list;
  switches : int;
}

exception Not_in_simulation

type tstate = Runnable | Running | Suspended | Done

type register = { mutable clock : int; mutable tid : tid }

(* The running thread's clock and tid. During a run it always describes
   [e.current]: [next] loads it at switch-in, and the handler stores
   the clock back into the thread record at switch-out (yield, suspend,
   return, raise). So the Running thread's [clock] field is stale and
   the register holds its clock; every other thread's clock is in its
   record, which keeps the heap keys frozen. *)
let reg = { clock = 0; tid = -1 }

type thread = {
  tid : tid;
  name : string;
  mutable clock : int;
      (* stale while the thread is Running: the register holds it *)
  mutable state : tstate;
  mutable starter : (unit -> unit) option;
      (* body not yet started; scheduler starts it under its own handler *)
  mutable cont : Cont.t;
      (* where a parked thread resumes; [Cont.none] until it first
         parks, then its last continuation, spent while it runs *)
  mutable joiners : tid list;
}

(* The engine keeps every thread in [by_tid] (tid-indexed, grow-only) and
   the runnable set in two forms: an O(1) [nrunnable] count, and - under
   [Min_clock] - a binary min-heap of the runnable threads' keys
   (clock, tid), kept in two int arrays so that moving an entry is two
   stores without a write barrier.

   The heap can hold copies of the keys, and needs no lazy deletion,
   because a runnable thread's key is immutable: [tick] charges only the
   Running thread (never enqueued), and [wake]/[finish] bump only
   Suspended threads, before re-enqueueing them. The single exception is
   [rebase], which rewrites every clock and therefore rebuilds the
   heap. Since tids are unique the pop order is a
   total order on (clock, tid) - bit-for-bit the pick sequence of the
   linear min-scan it replaces, independent of heap internals.

   A thread that yields is not pushed: it is marked Runnable and stays
   [current], and the next [Min_clock] pick pushes it and pops the
   minimum in one sift-down ([heap_push_pop]). The popped thread is the
   minimum of the same set either way, so the pick sequence is the
   same. Outside that window the current thread is never Runnable. *)
type engine = {
  mutable by_tid : thread array;  (* grows; index = tid *)
  mutable nthreads : int;
  mutable nrunnable : int;
  mutable heap_clock : int array;
  mutable heap_tid : int array;
      (* Min_clock only: the heap's keys, live prefix [heap_len] *)
  mutable heap_len : int;
  mutable current : thread;
  policy : policy;
  rng : Det_rng.t option;
  mutable steps : int;
  max_steps : int;
  mutable exns : (tid * exn) list;
  mutable fuel_out : bool;
  mutable pending : int;
      (* >= 0: [next]'s pick was taken at a yield (see [yield_pick]);
         it is this tid unless [pending_exn] is set. Only the
         [Controlled] and [Random] picks look at it, so a [Min_clock]
         switch pays nothing for it. *)
  mutable pending_exn : (exn * Printexc.raw_backtrace) option;
      (* what that pick raised, re-raised by [pick] so that it escapes
         [run] rather than the yielding thread's body *)
  mutable ready_list : tid list;
      (* the ascending ready tids handed to [Controlled], valid while
         [ready_stale] is false *)
  mutable ready_stale : bool;
      (* set wherever a thread enters or leaves the ready set: a thread
         made runnable, a suspend, a finish. A yield and a switch-in
         move a thread between Running and Runnable, both ready, so
         they leave the list valid. *)
}

type _ Effect.t +=
  | Yield : unit Effect.t
  | Suspend : unit Effect.t

(* Switch-in: the register takes over [t]'s clock. *)
let[@inline] load_reg (t : thread) =
  reg.clock <- t.clock;
  reg.tid <- t.tid

(* Switch-out: [t]'s record takes its clock back. *)
let[@inline] save_reg (t : thread) = t.clock <- reg.clock

let engine : engine option ref = ref None

let get_engine () =
  match !engine with Some e -> e | None -> raise Not_in_simulation

let thread_of e tid =
  if tid < 0 || tid >= e.nthreads then invalid_arg "Sched: bad tid";
  e.by_tid.(tid)

(* ------------------------------------------------------------------ *)
(* Runnable-set maintenance                                            *)
(* ------------------------------------------------------------------ *)

(* The heap order on (clock, tid) keys. *)
let[@inline] key_less (c1 : int) (t1 : int) c2 t2 = c1 < c2 || (c1 = c2 && t1 < t2)

let heap_push e t =
  let n = Array.length e.heap_tid in
  if e.heap_len >= n then begin
    let grow a =
      let a' = Array.make (Int.max 8 (2 * n)) 0 in
      Array.blit a 0 a' 0 n;
      a'
    in
    e.heap_clock <- grow e.heap_clock;
    e.heap_tid <- grow e.heap_tid
  end;
  let hc = e.heap_clock and ht = e.heap_tid in
  let c = t.clock and id = t.tid in
  (* sift up: move the hole from the end towards the root *)
  let i = ref e.heap_len in
  e.heap_len <- e.heap_len + 1;
  while !i > 0 && key_less c id hc.((!i - 1) / 2) ht.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    hc.(!i) <- hc.(p);
    ht.(!i) <- ht.(p);
    i := p
  done;
  hc.(!i) <- c;
  ht.(!i) <- id

(* Put the key (c, id) into the hole at the root of the live prefix
   [len] and sift it down to its place. *)
let sift_down e len c id =
  let hc = e.heap_clock and ht = e.heap_tid in
  let i = ref 0 and placed = ref false in
  while not !placed do
    let l = (2 * !i) + 1 in
    if l >= len then placed := true
    else begin
      let m =
        if l + 1 < len && key_less hc.(l + 1) ht.(l + 1) hc.(l) ht.(l) then l + 1
        else l
      in
      if key_less hc.(m) ht.(m) c id then begin
        hc.(!i) <- hc.(m);
        ht.(!i) <- ht.(m);
        i := m
      end
      else placed := true
    end
  done;
  hc.(!i) <- c;
  ht.(!i) <- id

let heap_pop e =
  let root = e.by_tid.(e.heap_tid.(0)) in
  let n = e.heap_len - 1 in
  e.heap_len <- n;
  if n > 0 then sift_down e n e.heap_clock.(n) e.heap_tid.(n);
  root

(* The key (c, id) is below the heap top, by the heap order *)
let[@inline] below_top e c id =
  e.heap_len = 0 || key_less c id e.heap_clock.(0) e.heap_tid.(0)

(* [heap_push e t] followed by [heap_pop e], with one sift-down. *)
let heap_push_pop e t =
  if below_top e t.clock t.tid then t
  else begin
    let root = e.by_tid.(e.heap_tid.(0)) in
    sift_down e e.heap_len t.clock t.tid;
    root
  end

(* Transition [t] to Runnable. The caller must have finished updating
   [t.clock]: under Min_clock the (clock, tid) key is frozen on entry. *)
let make_runnable e t =
  t.state <- Runnable;
  e.nrunnable <- e.nrunnable + 1;
  e.ready_stale <- true;
  match e.policy with Min_clock -> heap_push e t | _ -> ()

(* Rebuild the heap from scratch (after [rebase] rewrites the keys). *)
let heap_rebuild e =
  match e.policy with
  | Min_clock ->
      e.heap_len <- 0;
      for tid = 0 to e.nthreads - 1 do
        let t = e.by_tid.(tid) in
        if t.state = Runnable then heap_push e t
      done
  | _ -> ()

let grow_by_tid e t =
  let n = Array.length e.by_tid in
  if e.nthreads >= n then begin
    let a = Array.make (Int.max 8 (2 * n)) t in
    Array.blit e.by_tid 0 a 0 n;
    e.by_tid <- a
  end;
  e.by_tid.(e.nthreads) <- t;
  e.nthreads <- e.nthreads + 1

let new_thread e name body =
  let t =
    {
      tid = e.nthreads;
      name;
      clock = reg.clock;
      state = Suspended;  (* transitioned by make_runnable below *)
      starter = Some body;
      cont = Cont.none;
      joiners = [];
    }
  in
  grow_by_tid e t;
  make_runnable e t;
  t

(* Mark a thread finished and release its joiners (they block with
   [Suspend] right after registering, so they are [Suspended] here). *)
let finish e t =
  t.state <- Done;
  e.ready_stale <- true;
  List.iter
    (fun jid ->
      let j = thread_of e jid in
      match j.state with
      | Suspended ->
          if j.clock < t.clock then j.clock <- t.clock;
          make_runnable e j
      | Runnable | Running | Done -> ())
    t.joiners;
  t.joiners <- []

(* Every thread [next] may pick: the Runnable ones, plus the Running
   one when the pick is taken at its yield (when [next] picks nothing
   is Running, and a yielding thread is Runnable again). *)
let ready t = match t.state with Runnable | Running -> true | Suspended | Done -> false

(* Ascending list of ready tids (the [Controlled] callback contract),
   rebuilt only after the ready set changed. The list is immutable, so
   a callback that keeps it across decisions keeps a correct snapshot. *)
let runnables e =
  if e.ready_stale then begin
    let acc = ref [] in
    for tid = e.nthreads - 1 downto 0 do
      if ready e.by_tid.(tid) then acc := tid :: !acc
    done;
    e.ready_list <- !acc;
    e.ready_stale <- false
  end;
  e.ready_list

(* The k-th ready thread in tid order: [Random]'s pick, replacing the
   old [List.nth ready k] without building the list. *)
let kth_runnable e k =
  let i = ref 0 and seen = ref (-1) in
  while !seen < k do
    if ready e.by_tid.(!i) then incr seen;
    incr i
  done;
  e.by_tid.(!i - 1)

(* The list handed to the callback holds exactly the ready tids, so a
   pick is in it when its thread is ready: a [List.mem] without the walk
   and without the polymorphic compare, a C call at every decision. *)
let choose_checked e choose current =
  let tid = choose current (runnables e) in
  if tid < 0 || tid >= e.nthreads || not (ready e.by_tid.(tid)) then
    invalid_arg "Sched.Controlled: chose a non-runnable thread";
  tid

(* The pick [yield_pick] took for [next]: a thread, or what the pick
   raised. *)
let take_pending e =
  let t = e.by_tid.(e.pending) in
  e.pending <- -1;
  match e.pending_exn with
  | Some (ex, bt) ->
      e.pending_exn <- None;
      Printexc.raise_with_backtrace ex bt
  | None -> t

(* The next thread to run; the caller has checked that one is runnable. *)
let pick e =
  match e.policy with
  | Random _ ->
      if e.pending >= 0 then take_pending e
      else kth_runnable e (Det_rng.int (Option.get e.rng) e.nrunnable)
  | Min_clock ->
      let t = e.current in
      if t.state = Runnable then heap_push_pop e t else heap_pop e
  | Controlled choose ->
      if e.pending >= 0 then take_pending e
      else thread_of e (choose_checked e choose e.current.tid)

(* One scheduling step, and the effect handler under which every thread
   body runs. The handler is built once per process and reaches the
   running engine through [engine], so a run allocates none of it, and
   [effc] hands out the same two closures on every perform, so a switch
   allocates only the runtime's continuation. The
   thread that performs, returns or raises is always [e.current]; the
   handler saves its state and ends with [next e] in tail position,
   which resumes (or starts) the picked thread in tail position too. So
   the processor passes from the parked thread straight to the next
   one: no loop takes it back in between, and the stack stays flat
   however many switches a run makes. When fuel runs out or nothing is
   runnable, [next] returns, and so does [run]'s one call of it; what
   [pick] raises unwinds to [run] the same way. A yielding thread is
   marked Runnable without a heap push (see [engine]). *)
let rec next e =
  if e.steps >= e.max_steps then e.fuel_out <- true
  else if e.nrunnable > 0 then begin
    let t = pick e in
    e.steps <- e.steps + 1;
    e.current <- t;
    load_reg t;
    t.state <- Running;
    e.nrunnable <- e.nrunnable - 1;
    match t.starter with
    | Some body ->
        t.starter <- None;
        match_with body () handler
    | None ->
        (* The slot keeps the continuation after this resume: spent, it
           raises Continuation_already_resumed as [Cont.none] would, so
           clearing it would be a store for nothing. *)
        continue t.cont ()
  end

and handler =
  {
    retc =
      (fun () ->
        let e = get_engine () in
        save_reg e.current;
        finish e e.current;
        next e);
    exnc =
      (fun ex ->
        let e = get_engine () in
        save_reg e.current;
        e.exns <- (e.current.tid, ex) :: e.exns;
        finish e e.current;
        next e);
    effc =
      (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
        match eff with Yield -> on_yield | Suspend -> on_suspend | _ -> None);
  }

and on_yield : ((unit, unit) continuation -> unit) option =
  Some
    (fun k ->
      let e = get_engine () in
      let t = e.current in
      save_reg t;
      t.cont <- k;
      t.state <- Runnable;
      e.nrunnable <- e.nrunnable + 1;
      next e)

and on_suspend : ((unit, unit) continuation -> unit) option =
  Some
    (fun k ->
      let e = get_engine () in
      let t = e.current in
      save_reg t;
      t.cont <- k;
      t.state <- Suspended;
      e.ready_stale <- true;
      next e)

let run ?(max_steps = 10_000_000) ?(policy = Min_clock) main =
  if !engine <> None then invalid_arg "Sched.run: simulations cannot nest";
  let rng = match policy with Random seed -> Some (Det_rng.create seed) | _ -> None in
  let t0 =
    {
      tid = 0;
      name = "main";
      clock = 0;
      state = Runnable;
      starter = Some main;
      cont = Cont.none;
      joiners = [];
    }
  in
  let e =
    {
      by_tid = Array.make 8 t0;
      nthreads = 1;
      nrunnable = 1;
      heap_clock = Array.make 8 0;
      heap_tid = Array.make 8 0;
      heap_len = 0;  (* [t0] is current and Runnable: see [engine] *)
      current = t0;
      policy;
      rng;
      steps = 0;
      max_steps;
      exns = [];
      fuel_out = false;
      pending = -1;
      pending_exn = None;
      ready_list = [];
      ready_stale = true;
    }
  in
  engine := Some e;
  load_reg t0;
  let finalize () =
    engine := None;
    reg.clock <- 0;
    reg.tid <- -1
  in
  (try next e
   with ex ->
     finalize ();
     raise ex);
  finalize ();
  let makespan = ref 0 in
  for tid = 0 to e.nthreads - 1 do
    makespan := Int.max !makespan e.by_tid.(tid).clock
  done;
  let status =
    if e.fuel_out then Fuel_exhausted
    else
      let stuck = ref [] in
      for tid = e.nthreads - 1 downto 0 do
        match e.by_tid.(tid).state with
        | Done -> ()
        | Runnable | Running | Suspended -> stuck := tid :: !stuck
      done;
      match !stuck with [] -> Completed | l -> Deadlock l
  in
  { status; makespan = !makespan; exns = List.rev e.exns; switches = e.steps }

let spawn ?(name = "thread") body =
  let e = get_engine () in
  (new_thread e name body).tid

(* Under [Controlled] and [Random] [next]'s pick is taken at the yield
   itself, on the same inputs: the yielding thread counts as ready, as
   it would once the effect handler re-queued it, and fuel is checked
   first, as [next] checks it. A pick of the yielding thread only
   counts the step; any other pick (or whatever the pick raised) is left
   in [pending] for [next], which the yield's handler then enters. *)
let[@inline never] yield_pick e =
  if e.steps >= e.max_steps then perform Yield
  else
    match e.policy with
    | Controlled choose -> (
        let cur = e.current.tid in
        match choose_checked e choose cur with
        | tid when tid = cur -> e.steps <- e.steps + 1
        | tid ->
            e.pending <- tid;
            perform Yield
        | exception ex ->
            e.pending <- cur;
            e.pending_exn <- Some (ex, Printexc.get_raw_backtrace ());
            perform Yield)
    | Random _ ->
        let t = kth_runnable e (Det_rng.int (Option.get e.rng) (e.nrunnable + 1)) in
        if t == e.current then e.steps <- e.steps + 1
        else begin
          e.pending <- t.tid;
          perform Yield
        end
    | Min_clock -> perform Yield

(* A yield is decided in one match on the policy. Under [Min_clock] a
   yield whose pick would be the yielding thread itself - nothing
   runnable, or its (clock, tid) strictly below the heap top - keeps the
   processor without the effect round trip: the step is still counted
   (and fuel still spent), exactly as [next] would count its pop of
   the thread it just pushed; any other yield performs [Yield] at once.
   The other policies take their pick in [yield_pick], out of line (the
   inlined pick costs the explorer's [Controlled] runs several
   percent). *)
let[@inline] yield_engine e =
  match e.policy with
  | Min_clock ->
      if e.steps < e.max_steps && below_top e reg.clock reg.tid then
        e.steps <- e.steps + 1
      else perform Yield
  | Random _ | Controlled _ -> yield_pick e

let yield () =
  match !engine with None -> raise Not_in_simulation | Some e -> yield_engine e

let self () = if reg.tid < 0 then raise Not_in_simulation else reg.tid

let tick n =
  if reg.tid < 0 then raise Not_in_simulation;
  reg.clock <- reg.clock + n

let time () = if reg.tid < 0 then raise Not_in_simulation else reg.clock

(* A delay that actually cedes the processor. Under the clock-driven
   policies one tick-then-yield suffices: Min_clock will not re-pick the
   thread until every peer's clock has caught up, so the delay is honored
   by construction. Under [Random] the picker ignores clocks entirely -
   a single yield would make a 500-cycle backoff indistinguishable from
   a 1-cycle one - so the delay is spread over proportionally many
   yields, each a scheduling opportunity granted to the other threads. *)
let random_quantum = 16

(* A top-level loop, not a local closure over [e]: one would be
   allocated on every pause. *)
let rec pause_random e remaining =
  if remaining > 0 then begin
    reg.clock <- reg.clock + Int.min random_quantum remaining;
    yield_pick e;
    pause_random e (remaining - random_quantum)
  end

let pause n =
  let e = get_engine () in
  match e.policy with
  | Random _ -> if n <= 0 then yield_pick e else pause_random e n
  | Min_clock | Controlled _ ->
      reg.clock <- reg.clock + Int.max n 0;
      yield_engine e

let rebase () =
  let e = get_engine () in
  for tid = 0 to e.nthreads - 1 do
    e.by_tid.(tid).clock <- 0
  done;
  reg.clock <- 0;
  heap_rebuild e

let suspend () =
  match !engine with None -> raise Not_in_simulation | Some _ -> perform Suspend

let wake tid =
  let e = get_engine () in
  let t = thread_of e tid in
  match t.state with
  | Suspended ->
      if t.clock < reg.clock then t.clock <- reg.clock;
      make_runnable e t
  | _ -> ()

let join tid =
  let e = get_engine () in
  let t = thread_of e tid in
  match t.state with
  | Done -> if reg.clock < t.clock then reg.clock <- t.clock
  | Runnable | Running | Suspended ->
      t.joiners <- reg.tid :: t.joiners;
      perform Suspend

let thread_count () = (get_engine ()).nthreads

let runnable_count () = (get_engine ()).nrunnable

let steps () = match !engine with Some e -> e.steps | None -> 0

let running () = reg.tid >= 0
