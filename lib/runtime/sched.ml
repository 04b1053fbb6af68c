open Effect
open Effect.Deep

type tid = int

type policy =
  | Round_robin
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

type thread = {
  tid : tid;
  name : string;
  mutable clock : int;
  mutable state : tstate;
  mutable starter : (unit -> unit) option;
      (* body not yet started; scheduler starts it under its own handler *)
  mutable cont : (unit, unit) continuation option;
  mutable joiners : tid list;
}

(* The engine keeps every thread in [by_tid] (tid-indexed, grow-only) and
   the runnable set in two forms: an O(1) [nrunnable] count, and - under
   [Min_clock] - a binary min-heap on the key (clock, tid).

   The heap needs no lazy deletion because a runnable thread's key is
   immutable: [tick] charges only the Running thread (never enqueued),
   and [wake]/[finish] bump only Suspended threads, before re-enqueueing
   them. The single exception is [rebase], which rewrites every clock and
   therefore rebuilds the heap. Since tids are unique the pop order is a
   total order on (clock, tid) - bit-for-bit the pick sequence of the
   linear min-scan it replaces, independent of heap internals. *)
type engine = {
  mutable by_tid : thread array;  (* grows; index = tid *)
  mutable nthreads : int;
  mutable nrunnable : int;
  mutable heap : thread array;  (* Min_clock only; live prefix [heap_len] *)
  mutable heap_len : int;
  mutable current : thread;
  policy : policy;
  rng : Det_rng.t option;
  mutable rr_cursor : int;
  mutable steps : int;
  max_steps : int;
  mutable exns : (tid * exn) list;
  mutable fuel_out : bool;
  mutable pending : int;
      (* >= 0: the loop's next pick was taken at a yield (see
         [yield_pick]); it is this tid unless [pending_exn] is set. Only
         the [Controlled] and [Random] picks look at it, so the
         [Min_clock] loop pays nothing for it. *)
  mutable pending_exn : (exn * Printexc.raw_backtrace) option;
      (* what that pick raised, re-raised by [pick] so that it escapes
         [run] rather than the yielding thread's body *)
}

type _ Effect.t +=
  | Yield : unit Effect.t
  | Suspend : unit Effect.t

let engine : engine option ref = ref None

let get_engine () =
  match !engine with Some e -> e | None -> raise Not_in_simulation

let thread_of e tid =
  if tid < 0 || tid >= e.nthreads then invalid_arg "Sched: bad tid";
  e.by_tid.(tid)

(* ------------------------------------------------------------------ *)
(* Runnable-set maintenance                                            *)
(* ------------------------------------------------------------------ *)

let heap_less a b = a.clock < b.clock || (a.clock = b.clock && a.tid < b.tid)

let heap_push e t =
  let n = Array.length e.heap in
  if e.heap_len >= n then begin
    let a = Array.make (max 8 (2 * n)) t in
    Array.blit e.heap 0 a 0 n;
    e.heap <- a
  end;
  let h = e.heap in
  let i = ref e.heap_len in
  e.heap_len <- e.heap_len + 1;
  h.(!i) <- t;
  (* sift up *)
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let p = (!i - 1) / 2 in
    if heap_less h.(!i) h.(p) then begin
      let tmp = h.(p) in
      h.(p) <- h.(!i);
      h.(!i) <- tmp;
      i := p
    end
    else continue_ := false
  done

let heap_pop e =
  let h = e.heap in
  let root = h.(0) in
  e.heap_len <- e.heap_len - 1;
  if e.heap_len > 0 then begin
    h.(0) <- h.(e.heap_len);
    (* sift down *)
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < e.heap_len && heap_less h.(l) h.(!s) then s := l;
      if r < e.heap_len && heap_less h.(r) h.(!s) then s := r;
      if !s <> !i then begin
        let tmp = h.(!s) in
        h.(!s) <- h.(!i);
        h.(!i) <- tmp;
        i := !s
      end
      else continue_ := false
    done
  end;
  root

(* Transition [t] to Runnable. The caller must have finished updating
   [t.clock]: under Min_clock the (clock, tid) key is frozen on entry. *)
let make_runnable e t =
  t.state <- Runnable;
  e.nrunnable <- e.nrunnable + 1;
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
    let a = Array.make (max 8 (2 * n)) t in
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
      clock = e.current.clock;
      state = Suspended;  (* transitioned by make_runnable below *)
      starter = Some body;
      cont = None;
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

(* Run a fresh thread body under the scheduler's effect handler. Returns
   when the thread yields, suspends, or finishes. *)
let start_body e t body =
  match_with body ()
    {
      retc = (fun () -> finish e t);
      exnc =
        (fun ex ->
          e.exns <- (t.tid, ex) :: e.exns;
          finish e t);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
              Some
                (fun (k : (a, unit) continuation) ->
                  t.cont <- Some k;
                  make_runnable e t)
          | Suspend ->
              Some
                (fun (k : (a, unit) continuation) ->
                  t.state <- Suspended;
                  t.cont <- Some k)
          | _ -> None);
    }

(* Every thread the loop may pick: the Runnable ones, plus the Running
   one when the pick is taken at its yield (in the loop nothing is
   Running, and a yielding thread is Runnable again). *)
let ready t = match t.state with Runnable | Running -> true | Suspended | Done -> false

(* Ascending list of ready tids (the [Controlled] callback contract). *)
let runnables e =
  let acc = ref [] in
  for tid = e.nthreads - 1 downto 0 do
    if ready e.by_tid.(tid) then acc := tid :: !acc
  done;
  !acc

(* The k-th ready thread in tid order: [Random]'s pick, replacing the
   old [List.nth ready k] without building the list. *)
let kth_runnable e k =
  let i = ref 0 and seen = ref (-1) and found = ref None in
  while !found = None do
    let t = e.by_tid.(!i) in
    if ready t then begin
      incr seen;
      if !seen = k then found := Some t
    end;
    incr i
  done;
  Option.get !found

let choose_checked choose current ready =
  let tid = choose current ready in
  if not (List.mem tid ready) then
    invalid_arg "Sched.Controlled: chose a non-runnable thread";
  tid

(* The pick [yield_pick] took for the loop: a thread, or what the pick
   raised. *)
let take_pending e =
  let t = e.by_tid.(e.pending) in
  e.pending <- -1;
  match e.pending_exn with
  | Some (ex, bt) ->
      e.pending_exn <- None;
      Printexc.raise_with_backtrace ex bt
  | None -> Some t

let pick e =
  if e.nrunnable = 0 then None
  else
    match e.policy with
    | Round_robin ->
        (* first runnable tid strictly greater than the cursor, else the
           smallest *)
        let chosen = ref None in
        let tid = ref (e.rr_cursor + 1) in
        while !chosen = None && !tid < e.nthreads do
          if e.by_tid.(!tid).state = Runnable then chosen := Some !tid;
          incr tid
        done;
        let tid = ref 0 in
        while !chosen = None do
          if e.by_tid.(!tid).state = Runnable then chosen := Some !tid;
          incr tid
        done;
        let chosen = Option.get !chosen in
        e.rr_cursor <- chosen;
        Some (thread_of e chosen)
    | Random _ ->
        if e.pending >= 0 then take_pending e
        else
          let rng = Option.get e.rng in
          Some (kth_runnable e (Det_rng.int rng e.nrunnable))
    | Min_clock -> Some (heap_pop e)
    | Controlled choose ->
        if e.pending >= 0 then take_pending e
        else
          Some (thread_of e (choose_checked choose e.current.tid (runnables e)))

let rec loop e =
  if e.steps >= e.max_steps then e.fuel_out <- true
  else
    match pick e with
    | None -> ()
    | Some t ->
        e.steps <- e.steps + 1;
        e.current <- t;
        t.state <- Running;
        e.nrunnable <- e.nrunnable - 1;
        (match t.starter with
        | Some body ->
            t.starter <- None;
            start_body e t body
        | None -> (
            match t.cont with
            | Some k ->
                t.cont <- None;
                continue k ()
            | None -> assert false));
        loop e

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
      cont = None;
      joiners = [];
    }
  in
  let e =
    {
      by_tid = Array.make 8 t0;
      nthreads = 1;
      nrunnable = 1;
      heap = Array.make 8 t0;
      heap_len = (match policy with Min_clock -> 1 | _ -> 0);
      current = t0;
      policy;
      rng;
      rr_cursor = -1;
      steps = 0;
      max_steps;
      exns = [];
      fuel_out = false;
      pending = -1;
      pending_exn = None;
    }
  in
  engine := Some e;
  let finalize () = engine := None in
  (try loop e
   with ex ->
     finalize ();
     raise ex);
  finalize ();
  let makespan = ref 0 in
  for tid = 0 to e.nthreads - 1 do
    makespan := max !makespan e.by_tid.(tid).clock
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

(* Under [Min_clock] a yield whose pick would be the yielding thread
   itself - nothing runnable, or its (clock, tid) strictly below the heap
   top - is decided here without the effect round trip: the step is still
   counted (and fuel still spent), exactly as the loop would count its
   pop of the thread it just pushed. Both functions are inlined: the
   other policies then pay one tag test for the check before the call to
   [yield_pick] (out of line, the check costs the explorer's [Controlled]
   runs several percent). *)
let[@inline] keeps_processor e =
  match e.policy with
  | Min_clock ->
      e.steps < e.max_steps
      && (e.heap_len = 0 || heap_less e.current e.heap.(0))
  | Round_robin | Random _ | Controlled _ -> false

(* Under [Controlled] and [Random] the loop's pick is taken at the yield
   itself, on the same inputs: the yielding thread counts as ready, as
   it would once the effect handler re-queued it, and fuel is checked
   first, as the loop checks it. A pick of the yielding thread only
   counts the step; any other pick (or whatever the pick raised) is left
   in [pending] for the loop, which the yield then enters. *)
let[@inline never] yield_pick e =
  if e.steps >= e.max_steps then perform Yield
  else
    match e.policy with
    | Controlled choose -> (
        let cur = e.current.tid in
        match choose_checked choose cur (runnables e) with
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
    | Min_clock | Round_robin -> perform Yield

let[@inline] yield_engine e =
  if keeps_processor e then e.steps <- e.steps + 1 else yield_pick e

let yield () =
  match !engine with None -> raise Not_in_simulation | Some e -> yield_engine e

let self () = (get_engine ()).current.tid

let tick n =
  let e = get_engine () in
  e.current.clock <- e.current.clock + n

let time () = (get_engine ()).current.clock

(* A delay that actually cedes the processor. Under the clock-driven
   policies one tick-then-yield suffices: Min_clock will not re-pick the
   thread until every peer's clock has caught up, so the delay is honored
   by construction. Under [Random] the picker ignores clocks entirely -
   a single yield would make a 500-cycle backoff indistinguishable from
   a 1-cycle one - so the delay is spread over proportionally many
   yields, each a scheduling opportunity granted to the other threads. *)
let pause n =
  let e = get_engine () in
  match e.policy with
  | Random _ ->
      let quantum = 16 in
      let rec go remaining =
        if remaining <= 0 then ()
        else (
          e.current.clock <- e.current.clock + min quantum remaining;
          yield_pick e;
          go (remaining - quantum))
      in
      if n <= 0 then yield_pick e else go n
  | Round_robin | Min_clock | Controlled _ ->
      e.current.clock <- e.current.clock + max n 0;
      yield_engine e

let rebase () =
  let e = get_engine () in
  for tid = 0 to e.nthreads - 1 do
    e.by_tid.(tid).clock <- 0
  done;
  heap_rebuild e

let suspend () =
  match !engine with None -> raise Not_in_simulation | Some _ -> perform Suspend

let wake tid =
  let e = get_engine () in
  let t = thread_of e tid in
  match t.state with
  | Suspended ->
      if t.clock < e.current.clock then t.clock <- e.current.clock;
      make_runnable e t
  | _ -> ()

let join tid =
  let e = get_engine () in
  let t = thread_of e tid in
  match t.state with
  | Done -> if e.current.clock < t.clock then e.current.clock <- t.clock
  | Runnable | Running | Suspended ->
      t.joiners <- e.current.tid :: t.joiners;
      perform Suspend

let thread_count () = (get_engine ()).nthreads

let runnable_count () = (get_engine ()).nrunnable

let steps () = match !engine with Some e -> e.steps | None -> 0

let running () = !engine <> None
