(* Tests for the simulated-machine substrate: deterministic RNG,
   scheduler, virtual clocks, simulated mutex, heap. *)

open Stm_runtime

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Det_rng                                                             *)
(* ------------------------------------------------------------------ *)

let rng_deterministic () =
  let a = Det_rng.create 42 and b = Det_rng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Det_rng.next a) (Det_rng.next b)
  done

let rng_seed_sensitivity () =
  let a = Det_rng.create 1 and b = Det_rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Det_rng.next a = Det_rng.next b then incr same
  done;
  check_bool "different seeds diverge" true (!same < 5)

let rng_bounds () =
  let r = Det_rng.create 7 in
  for _ = 1 to 1000 do
    let v = Det_rng.int r 13 in
    check_bool "in range" true (v >= 0 && v < 13)
  done

let rng_copy_independent () =
  let a = Det_rng.create 9 in
  ignore (Det_rng.next a);
  let b = Det_rng.copy a in
  check_int "copy continues identically" (Det_rng.next a) (Det_rng.next b)

let rng_split () =
  let a = Det_rng.create 11 in
  let b = Det_rng.split a in
  let matches = ref 0 in
  for _ = 1 to 50 do
    if Det_rng.next a = Det_rng.next b then incr matches
  done;
  check_bool "split stream is distinct" true (!matches < 5)

let rng_float_bounds () =
  let r = Det_rng.create 3 in
  for _ = 1 to 200 do
    let f = Det_rng.float r 2.5 in
    check_bool "float in range" true (f >= 0.0 && f < 2.5)
  done

let rng_bool_balanced () =
  let r = Det_rng.create 5 in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Det_rng.bool r then incr trues
  done;
  check_bool "bool roughly balanced" true (!trues > 400 && !trues < 600)

(* ------------------------------------------------------------------ *)
(* Sched                                                               *)
(* ------------------------------------------------------------------ *)

let sched_basic_run () =
  let hit = ref false in
  let r = Sched.run (fun () -> hit := true) in
  check_bool "ran" true !hit;
  check_bool "completed" true (r.Sched.status = Sched.Completed)

let sched_spawn_join () =
  let order = ref [] in
  let r =
    Sched.run (fun () ->
        let t =
          Sched.spawn (fun () ->
              Sched.yield ();
              order := "child" :: !order)
        in
        Sched.join t;
        order := "parent" :: !order)
  in
  check_bool "completed" true (r.Sched.status = Sched.Completed);
  Alcotest.(check (list string)) "join ordering" [ "parent"; "child" ] !order

let sched_clock_ticks () =
  let r =
    Sched.run (fun () ->
        Sched.tick 10;
        Sched.tick 32;
        check_int "time accumulates" 42 (Sched.time ()))
  in
  check_int "makespan" 42 r.Sched.makespan

let sched_join_advances_clock () =
  let r =
    Sched.run (fun () ->
        let t = Sched.spawn (fun () -> Sched.tick 1000) in
        Sched.join t;
        check_bool "joiner clock >= finisher" true (Sched.time () >= 1000))
  in
  check_int "makespan is max clock" 1000 r.Sched.makespan

let sched_min_clock_parallelism () =
  (* two independent threads of equal work: makespan = one thread's work *)
  let r =
    Sched.run ~policy:Sched.Min_clock (fun () ->
        let work () =
          for _ = 1 to 100 do
            Sched.tick 10;
            Sched.yield ()
          done
        in
        let a = Sched.spawn work and b = Sched.spawn work in
        Sched.join a;
        Sched.join b)
  in
  check_int "parallel makespan" 1000 r.Sched.makespan

let sched_exn_recorded () =
  let r =
    Sched.run (fun () ->
        let t = Sched.spawn (fun () -> failwith "boom") in
        Sched.join t)
  in
  check_bool "completed despite exn" true (r.Sched.status = Sched.Completed);
  check_int "one exn" 1 (List.length r.Sched.exns)

let sched_fuel () =
  let r =
    Sched.run ~max_steps:100 (fun () ->
        while true do
          Sched.yield ()
        done)
  in
  check_bool "fuel exhausted" true (r.Sched.status = Sched.Fuel_exhausted)

let sched_deadlock_detected () =
  let r = Sched.run (fun () -> Sched.suspend ()) in
  (match r.Sched.status with
  | Sched.Deadlock [ 0 ] -> ()
  | _ -> Alcotest.fail "expected deadlock of main");
  ()

let sched_wake () =
  let r =
    Sched.run (fun () ->
        let t = Sched.spawn (fun () -> Sched.suspend ()) in
        (* jump our clock ahead so the child (clock 0) runs and suspends
           at the next yield *)
        Sched.tick 500;
        Sched.yield ();
        Sched.wake t;
        Sched.join t)
  in
  check_bool "completed" true (r.Sched.status = Sched.Completed);
  check_bool "woken clock advanced" true (r.Sched.makespan >= 500)

let sched_no_nesting () =
  ignore
    (Sched.run (fun () ->
         match Sched.run (fun () -> ()) with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "nested run should fail"))

let sched_not_running () =
  (match Sched.yield () with
  | exception Sched.Not_in_simulation -> ()
  | () -> Alcotest.fail "yield outside run should raise");
  check_bool "running flag" false (Sched.running ())

let sched_determinism policy () =
  let trace () =
    let log = ref [] in
    let r =
      Sched.run ~policy (fun () ->
          let mk id () =
            for i = 1 to 5 do
              log := (id, i) :: !log;
              Sched.tick ((id * 7) + i);
              Sched.yield ()
            done
          in
          let ts = List.init 3 (fun i -> Sched.spawn (mk i)) in
          List.iter Sched.join ts)
    in
    (!log, r.Sched.makespan)
  in
  let a = trace () and b = trace () in
  check_bool "two runs identical" true (a = b)

(* A Controlled chooser that rotates through the ready threads: the
   next tid after [current], wrapping to the lowest. *)
let rotate current ready =
  match List.find_opt (fun t -> t > current) ready with
  | Some t -> t
  | None -> List.hd ready

let sched_rebase () =
  let r =
    Sched.run (fun () ->
        Sched.tick 1_000_000;
        Sched.rebase ();
        Sched.tick 5)
  in
  check_int "makespan excludes pre-rebase work" 5 r.Sched.makespan

let sched_controlled_policy () =
  (* force the scheduler to always prefer the highest tid *)
  let choose _cur runnables = List.fold_left max 0 runnables in
  let order = ref [] in
  let r =
    Sched.run ~policy:(Sched.Controlled choose) (fun () ->
        let mk id () = order := id :: !order in
        let a = Sched.spawn (mk 1) in
        let b = Sched.spawn (mk 2) in
        Sched.join a;
        Sched.join b)
  in
  check_bool "completed" true (r.Sched.status = Sched.Completed);
  Alcotest.(check (list int)) "highest tid ran first" [ 1; 2 ] !order

let sched_thread_count () =
  ignore
    (Sched.run (fun () ->
         let t = Sched.spawn (fun () -> ()) in
         Sched.join t;
         check_int "two threads" 2 (Sched.thread_count ())))

(* ------------------------------------------------------------------ *)
(* Sim_mutex                                                           *)
(* ------------------------------------------------------------------ *)

let mutex_excludes () =
  let violations = ref 0 in
  ignore
    (Sched.run (fun () ->
         let m = Sim_mutex.create Cost.free in
         let inside = ref false in
         let worker () =
           for _ = 1 to 20 do
             Sim_mutex.lock m;
             if !inside then incr violations;
             inside := true;
             Sched.yield ();
             Sched.tick 3;
             Sched.yield ();
             inside := false;
             Sim_mutex.unlock m
           done
         in
         let ts = List.init 4 (fun _ -> Sched.spawn worker) in
         List.iter Sched.join ts));
  check_int "mutual exclusion" 0 !violations

let mutex_reentrant () =
  ignore
    (Sched.run (fun () ->
         let m = Sim_mutex.create Cost.free in
         Sim_mutex.lock m;
         Sim_mutex.lock m;
         check_bool "held" true (Sim_mutex.held m);
         Sim_mutex.unlock m;
         check_bool "still held after one unlock" true (Sim_mutex.held m);
         Sim_mutex.unlock m;
         check_bool "released" false (Sim_mutex.held m)))

let mutex_wrong_owner () =
  ignore
    (Sched.run (fun () ->
         let m = Sim_mutex.create Cost.free in
         Sim_mutex.lock m;
         let t =
           Sched.spawn (fun () ->
               match Sim_mutex.unlock m with
               | exception Invalid_argument _ -> ()
               | () -> Alcotest.fail "non-owner unlock should fail")
         in
         Sched.yield ();
         Sched.join t;
         Sim_mutex.unlock m))

let mutex_contention_serializes () =
  (* two threads each hold the lock for 100 cycles: makespan ~200 *)
  let r =
    Sched.run (fun () ->
        let m = Sim_mutex.create Cost.free in
        let worker () =
          Sim_mutex.lock m;
          Sched.tick 100;
          Sched.yield ();
          Sim_mutex.unlock m
        in
        let a = Sched.spawn worker and b = Sched.spawn worker in
        Sched.join a;
        Sched.join b)
  in
  check_bool "serialized" true (r.Sched.makespan >= 200)

let mutex_with_lock_exn_safe () =
  ignore
    (Sched.run (fun () ->
         let m = Sim_mutex.create Cost.free in
         (try Sim_mutex.with_lock m (fun () -> failwith "inner")
          with Failure _ -> ());
         check_bool "released after exception" false (Sim_mutex.held m)))

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let heap_alloc_defaults () =
  Heap.reset ();
  let o = Heap.alloc ~cls:"C" 3 in
  check_int "oid deterministic" 1 o.Heap.oid;
  check_int "nfields" 3 (Heap.nfields o);
  check_bool "default null" true (Heap.get o 0 = Heap.Vnull);
  check_int "public txrec" Heap.shared_txrec0 (Atomic.get o.Heap.txrec)

let heap_reset_resets_ids () =
  Heap.reset ();
  let a = Heap.alloc ~cls:"C" 1 in
  Heap.reset ();
  let b = Heap.alloc ~cls:"C" 1 in
  check_int "ids restart" a.Heap.oid b.Heap.oid

let heap_get_set () =
  Heap.reset ();
  let o = Heap.alloc ~cls:"C" 2 in
  Heap.set o 1 (Heap.Vint 42);
  check_bool "roundtrip" true (Heap.get o 1 = Heap.Vint 42)

let heap_value_equal () =
  Heap.reset ();
  let a = Heap.alloc ~cls:"C" 1 and b = Heap.alloc ~cls:"C" 1 in
  check_bool "same ref" true (Heap.value_equal (Heap.Vref a) (Heap.Vref a));
  check_bool "diff refs" false (Heap.value_equal (Heap.Vref a) (Heap.Vref b));
  check_bool "ints" true (Heap.value_equal (Heap.Vint 3) (Heap.Vint 3));
  check_bool "int/null" false (Heap.value_equal (Heap.Vint 3) Heap.Vnull)

let heap_array () =
  Heap.reset ();
  let a = Heap.alloc_array 4 (Heap.Vint 0) in
  check_bool "array kind" true (a.Heap.kind = `Arr);
  check_int "length" 4 (Heap.nfields a)

let heap_statics () =
  Heap.reset ();
  let s = Heap.alloc_statics ~cls:"Main" 2 in
  check_bool "statics kind" true (s.Heap.kind = `Statics)

let case name f = Alcotest.test_case name `Quick f

let suite =
  [
    ( "runtime:rng",
      [
        case "deterministic" rng_deterministic;
        case "seed sensitivity" rng_seed_sensitivity;
        case "int bounds" rng_bounds;
        case "copy" rng_copy_independent;
        case "split" rng_split;
        case "float bounds" rng_float_bounds;
        case "bool balanced" rng_bool_balanced;
      ] );
    ( "runtime:sched",
      [
        case "basic run" sched_basic_run;
        case "spawn/join" sched_spawn_join;
        case "clock ticks" sched_clock_ticks;
        case "join advances clock" sched_join_advances_clock;
        case "min-clock parallelism" sched_min_clock_parallelism;
        case "exceptions recorded" sched_exn_recorded;
        case "fuel" sched_fuel;
        case "deadlock detection" sched_deadlock_detected;
        case "wake" sched_wake;
        case "no nesting" sched_no_nesting;
        case "not running" sched_not_running;
        case "determinism (min-clock)" (sched_determinism Sched.Min_clock);
        case "determinism (random 1)" (sched_determinism (Sched.Random 1));
        case "determinism (controlled)" (sched_determinism (Sched.Controlled rotate));
        case "rebase" sched_rebase;
        case "controlled policy" sched_controlled_policy;
        case "thread count" sched_thread_count;
      ] );
    ( "runtime:mutex",
      [
        case "mutual exclusion" mutex_excludes;
        case "reentrant" mutex_reentrant;
        case "wrong owner" mutex_wrong_owner;
        case "contention serializes" mutex_contention_serializes;
        case "with_lock exn safe" mutex_with_lock_exn_safe;
      ] );
    ( "runtime:heap",
      [
        case "alloc defaults" heap_alloc_defaults;
        case "reset ids" heap_reset_resets_ids;
        case "get/set" heap_get_set;
        case "value equality" heap_value_equal;
        case "arrays" heap_array;
        case "statics" heap_statics;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Heap-based Min_clock picker (PR 4): the binary heap must reproduce  *)
(* the old linear min-scan's pick sequence bit-for-bit                 *)
(* ------------------------------------------------------------------ *)

(* Reference model: workers indexed 1..n, each a list of tick amounts.
   A worker is picked len+1 times (start, then once per yield); pick k
   executes tick k. The model is the old linear scan: min (clock, tid)
   over the runnable threads. Main (tid 0) is picked first, spawns every
   worker at its clock 0, then joins them in order: each join of a live
   worker suspends main until that worker finishes, which makes main
   runnable again at the finisher's clock. Main's picks never reorder the
   workers (it only suspends and bumps its own clock), so the workers'
   resume sequence is exactly the model's; the model also counts main's
   picks, so its total is the run's [switches]. Returns the worker
   resume order and the total pick count. *)
let model_min_clock_order workss =
  let clocks = Array.of_list (List.map (fun _ -> 0) workss) in
  let rest = Array.of_list workss in
  let alive = Array.map (fun _ -> true) clocks in
  let n = Array.length clocks in
  let order = ref [] and picks = ref 1 in
  (* main: its clock, whether it is runnable, and the next worker it
     joins; the first pick (main spawning) is counted above *)
  let main_clock = ref 0 and main_runnable = ref false and joining = ref 0 in
  let main_joins () =
    while !joining < n && not alive.(!joining) do
      main_clock := max !main_clock clocks.(!joining);
      incr joining
    done
  in
  main_joins ();
  let any_runnable () = !main_runnable || Array.exists (fun a -> a) alive in
  while any_runnable () do
    let best = ref (-1) in
    for i = n - 1 downto 0 do
      if
        alive.(i)
        && (!best = -1
           || clocks.(i) < clocks.(!best)
           || (clocks.(i) = clocks.(!best) && i < !best))
      then best := i
    done;
    incr picks;
    if !main_runnable && (!best = -1 || !main_clock <= clocks.(!best)) then begin
      main_runnable := false;
      main_joins ()
    end
    else begin
      let i = !best in
      order := (i + 1) :: !order;
      match rest.(i) with
      | c :: tl ->
          clocks.(i) <- clocks.(i) + c;
          rest.(i) <- tl
      | [] ->
          alive.(i) <- false;
          if !joining = i then begin
            main_clock := max !main_clock clocks.(i);
            main_runnable := true
          end
    end
  done;
  (List.rev !order, !picks)

let run_min_clock_order workss =
  let order = ref [] in
  let r =
    Sched.run ~policy:Sched.Min_clock (fun () ->
        let ts =
          List.map
            (fun works ->
              Sched.spawn (fun () ->
                  order := Sched.self () :: !order;
                  List.iter
                    (fun c ->
                      Sched.tick c;
                      Sched.yield ();
                      order := Sched.self () :: !order)
                    works))
            workss
        in
        List.iter Sched.join ts)
  in
  Alcotest.(check bool) "completed" true (r.Sched.status = Sched.Completed);
  (List.rev !order, r.Sched.switches)

let sched_heap_qcheck =
  let open QCheck in
  [
    (* heap pick order = linear-scan model, with tick 0 forcing clock
       ties so the (clock, tid) tie-break is exercised; the switch count
       must match the model's pick count, so a yield that keeps its
       thread running is still one scheduling decision *)
    Test.make ~name:"sched: heap picks = linear min-scan model" ~count:300
      (list_of_size (Gen.int_range 1 7)
         (list_of_size (Gen.int_range 0 9) (int_range 0 3)))
      (fun workss -> run_min_clock_order workss = model_min_clock_order workss);
    (* replay a recorded schedule trace through the Controlled policy:
       the same decisions must reproduce the run exactly *)
    Test.make ~name:"sched: recorded trace replays identically" ~count:100
      (pair (int_range 0 9999)
         (list_of_size (Gen.int_range 1 5)
            (list_of_size (Gen.int_range 1 8) (int_range 0 5))))
      (fun (seed, workss) ->
        let record policy =
          let order = ref [] in
          let note () = order := Sched.self () :: !order in
          let body works () =
            note ();
            List.iter
              (fun c ->
                Sched.tick c;
                Sched.yield ();
                note ())
              works
          in
          let r =
            Sched.run ~policy (fun () ->
                note ();
                (* main spawns then runs its own segment; no joins, so
                   every scheduling decision hits an instrumented resume
                   point and the recording is the full pick sequence *)
                (match workss with
                | main_works :: rest ->
                    List.iter (fun w -> ignore (Sched.spawn (body w))) rest;
                    List.iter
                      (fun c ->
                        Sched.tick c;
                        Sched.yield ();
                        note ())
                      main_works
                | [] -> ()))
          in
          (List.rev !order, r.Sched.makespan, r.Sched.status)
        in
        let trace, makespan, status = record (Sched.Random seed) in
        (* every pick resumes an instrumented point, so the recording is
           the complete decision sequence, first pick included *)
        let script = ref trace in
        let controlled =
          Sched.Controlled
            (fun _current ready ->
              match !script with
              | tid :: tl ->
                  script := tl;
                  if List.mem tid ready then tid else List.hd ready
              | [] -> List.hd ready)
        in
        let trace', makespan', status' = record controlled in
        status = Sched.Completed && status' = Sched.Completed
        && trace = trace' && makespan = makespan' && !script = []);
  ]

(* Wake/suspend through the heap: wakes re-enqueue at the waker's clock,
   so the resume order interleaves by (clock, tid), not by wake order. *)
let sched_heap_wake_order () =
  let order = ref [] in
  let note () = order := Sched.self () :: !order in
  let r =
    Sched.run ~policy:Sched.Min_clock (fun () ->
        let ws =
          List.init 3 (fun _ ->
              Sched.spawn (fun () ->
                  note ();
                  Sched.suspend ();
                  note ()))
        in
        (* workers all start and suspend at clock 0 while main is parked
           at 5; then wake w3 at clock 5 and w1 at clock 6 *)
        Sched.tick 5;
        Sched.yield ();
        Sched.wake (List.nth ws 2);
        Sched.tick 1;
        Sched.wake (List.nth ws 0);
        Sched.yield ();
        Sched.wake (List.nth ws 1);
        List.iter Sched.join ws)
  in
  Alcotest.(check bool) "completed" true (r.Sched.status = Sched.Completed);
  Alcotest.(check (list int)) "resume order follows (clock, tid)"
    [ 1; 2; 3; 3; 1; 2 ]
    (List.rev !order)

let sched_runnable_count () =
  Sched.run (fun () ->
      check_int "alone" 0 (Sched.runnable_count ());
      let ts = List.init 3 (fun _ -> Sched.spawn (fun () -> Sched.tick 1)) in
      check_int "three spawned" 3 (Sched.runnable_count ());
      ignore (Sched.spawn (fun () -> ()) : Sched.tid);
      check_int "four" 4 (Sched.runnable_count ());
      List.iter Sched.join ts;
      check_int "all spawned threads done" 0 (Sched.runnable_count ()))
  |> fun r ->
  Alcotest.(check bool) "completed" true (r.Sched.status = Sched.Completed)

(* A yield that resumes the thread that made it is still a scheduling
   decision: it counts in [switches] and spends fuel. A lone thread
   yielding 2k times, with [max_steps = k], must stop after exactly k
   picks - its first start plus k - 1 yields that kept it running. *)
let fuel = 1000

let yield_loop () =
  for _ = 1 to 2 * fuel do
    Sched.tick 1;
    Sched.yield ()
  done

let check_fuel_out (r : Sched.result) =
  Alcotest.(check bool) "fuel exhausted" true
    (r.Sched.status = Sched.Fuel_exhausted);
  check_int "switches = max_steps" fuel r.Sched.switches

let sched_lone_yield_spends_fuel () =
  check_fuel_out (Sched.run ~max_steps:fuel yield_loop)

(* The same with a second runnable thread whose clock stays higher: main
   keeps the processor on every yield, and each one still costs a step. *)
let sched_yield_below_peer_spends_fuel () =
  let peer_runs = ref 0 in
  check_fuel_out
    (Sched.run ~max_steps:fuel (fun () ->
         ignore
           (Sched.spawn (fun () ->
                incr peer_runs;
                Sched.tick 1_000_000_000;
                Sched.yield ();
                incr peer_runs)
             : Sched.tid);
         yield_loop ()));
  (* the peer ran once, at clock 0, and then never again *)
  check_int "peer resumed once" 1 !peer_runs

(* ------------------------------------------------------------------ *)
(* Picks taken at the yield: [Controlled] and [Random] must behave as  *)
(* if every yield went through the scheduler loop                      *)
(* ------------------------------------------------------------------ *)

(* A program: main (tid 0) spawns one worker per action list, runs its
   own actions, then joins the workers in order. Action [0] is a yield,
   [n > 0] a [pause n]. Every thread notes its tid when it starts and
   after each action. *)
type yprog = { main_acts : int list; workers : int list list }

let yield_act a = if a = 0 then Sched.yield () else Sched.pause a

let run_yprog ~max_steps policy p =
  let notes = ref [] in
  let note () = notes := Sched.self () :: !notes in
  let body acts () =
    note ();
    List.iter
      (fun a ->
        yield_act a;
        note ())
      acts
  in
  let r =
    Sched.run ~max_steps ~policy (fun () ->
        let ts = List.map (fun w -> Sched.spawn (body w)) p.workers in
        body p.main_acts ();
        List.iter Sched.join ts)
  in
  (List.rev !notes, r.Sched.switches, r.Sched.status)

(* Reference model of the effect path: a yielding thread re-enters the
   runnable set, then the loop checks fuel and picks among the ascending
   runnable tids; a thread that suspends or finishes does not re-enter.
   An action is one yield, except a [pause n] under [Random], which is
   ceil(n / 16) yields; only the resume after an action's last yield is
   noted. [pick current ready] stands for the policy's choice. *)
let model_yprog ~max_steps ~random p pick =
  let nyields a = if a > 0 && random then (a + 15) / 16 else 1 in
  let expand acts =
    List.concat_map
      (fun a -> List.init (nyields a) (fun k -> k = nyields a - 1))
      acts
  in
  let n = List.length p.workers in
  (* per thread (tid 0 is main): its pending yields, each flagged with
     whether the resume after it is noted *)
  let yields = Array.of_list (expand p.main_acts :: List.map expand p.workers) in
  let started = Array.make (n + 1) false in
  let done_ = Array.make (n + 1) false in
  let resume_noted = Array.make (n + 1) false in
  let runnable = Array.make (n + 1) false in
  runnable.(0) <- true;
  (* main's join phase: [joining] workers are joined; [waiting] = main
     is suspended in the join of the next one *)
  let joining = ref 0 and waiting = ref false in
  let notes = ref [] and steps = ref 0 and current = ref 0 in
  let main_joins () =
    while !joining < n && done_.(!joining + 1) do
      incr joining
    done;
    if !joining = n then done_.(0) <- true else waiting := true
  in
  let run_thread t =
    if not started.(t) then begin
      started.(t) <- true;
      notes := t :: !notes;
      if t = 0 then for w = 1 to n do runnable.(w) <- true done
    end
    else if resume_noted.(t) then notes := t :: !notes;
    match yields.(t) with
    | noted :: rest ->
        yields.(t) <- rest;
        resume_noted.(t) <- noted;
        runnable.(t) <- true
    | [] ->
        resume_noted.(t) <- false;
        if t = 0 then main_joins ()
        else begin
          done_.(t) <- true;
          if !waiting && !joining = t - 1 then begin
            waiting := false;
            runnable.(0) <- true
          end
        end
  in
  let status = ref Sched.Completed in
  (try
     while true do
       if !steps >= max_steps then begin
         status := Sched.Fuel_exhausted;
         raise Exit
       end;
       let ready = List.filter (fun t -> runnable.(t)) (List.init (n + 1) Fun.id) in
       if ready = [] then raise Exit;
       let c = pick !current ready in
       incr steps;
       runnable.(c) <- false;
       current := c;
       run_thread c
     done
   with Exit -> ());
  (List.rev !notes, !steps, !status)

let yprog_gen =
  let open QCheck.Gen in
  let acts = list_size (int_range 0 6) (frequency [ (3, return 0); (1, int_range 1 70) ]) in
  pair
    (pair (int_range 1 60) (int_range 0 9999))
    (pair acts (list_size (int_range 0 4) acts))

let yprog_print ((max_steps, seed), (main_acts, workers)) =
  let acts l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]" in
  Printf.sprintf "max_steps=%d seed=%d main=%s workers=%s" max_steps seed
    (acts main_acts)
    (String.concat " " (List.map acts workers))

(* A scripted [choose]: stays on the current thread half the time when
   it can, otherwise picks uniformly; logs every call's arguments. *)
let scripted_choose seed =
  let st = Random.State.make [| seed |] in
  let log = ref [] in
  let choose current ready =
    log := (current, ready) :: !log;
    if List.mem current ready && Random.State.bool st then current
    else List.nth ready (Random.State.int st (List.length ready))
  in
  (choose, log)

let yield_pick_qcheck =
  let open QCheck in
  let arb = make ~print:yprog_print yprog_gen in
  [
    Test.make ~name:"sched: Controlled yield-time picks = effect-path model"
      ~count:300 arb (fun ((max_steps, seed), (main_acts, workers)) ->
        let p = { main_acts; workers } in
        let choose, log = scripted_choose seed in
        let real = run_yprog ~max_steps (Sched.Controlled choose) p in
        let choose', log' = scripted_choose seed in
        let model = model_yprog ~max_steps ~random:false p choose' in
        real = model && List.rev !log = List.rev !log');
    Test.make ~name:"sched: Random yield-time picks = effect-path model"
      ~count:300 arb (fun ((max_steps, seed), (main_acts, workers)) ->
        let p = { main_acts; workers } in
        let real = run_yprog ~max_steps (Sched.Random seed) p in
        let rng = Det_rng.create seed in
        let pick _ ready = List.nth ready (Det_rng.int rng (List.length ready)) in
        real = model_yprog ~max_steps ~random:true p pick);
  ]

(* The ready list [Controlled] hands out is cached and rebuilt only
   where readiness changes. A program whose ready set moves by spawn,
   join, suspend/wake and finish keeps a shadow of that set, updated
   right where the runtime changes it; the list [choose] receives must
   equal the shadow at every decision, whether the decision is taken at
   a yield or in the loop. *)
type rprog_act =
  | Q_yield
  | Q_spawn of rprog_act list
  | Q_suspend
  | Q_wake of int  (* tid = the argument mod the thread count *)
  | Q_join of int  (* likewise; a self-join blocks until a wake *)

let max_shadow = 256

let run_rprog ~max_steps ~seed main_acts =
  let ready = Array.make max_shadow false in
  let suspended = Array.make max_shadow false in
  let finished = Array.make max_shadow false in
  let joiners = Array.make max_shadow [] in
  ready.(0) <- true;
  let shadow () = List.filter (fun t -> ready.(t)) (List.init max_shadow Fun.id) in
  let mismatches = ref 0 and decisions = ref 0 in
  let st = Random.State.make [| seed |] in
  let choose current rs =
    incr decisions;
    if rs <> shadow () then incr mismatches;
    if List.mem current rs && Random.State.bool st then current
    else List.nth rs (Random.State.int st (List.length rs))
  in
  let rec body acts () =
    let me = Sched.self () in
    List.iter
      (function
        | Q_yield -> Sched.yield ()
        | Q_spawn child ->
            let c = Sched.spawn (body child) in
            ready.(c) <- true
        | Q_suspend ->
            ready.(me) <- false;
            suspended.(me) <- true;
            Sched.suspend ()
        | Q_wake k ->
            let u = k mod Sched.thread_count () in
            if suspended.(u) then begin
              suspended.(u) <- false;
              ready.(u) <- true
            end;
            Sched.wake u
        | Q_join k ->
            let u = k mod Sched.thread_count () in
            if not finished.(u) then begin
              joiners.(u) <- me :: joiners.(u);
              ready.(me) <- false;
              suspended.(me) <- true
            end;
            Sched.join u)
      acts;
    (* the thread finishes: it leaves the ready set and its suspended
       joiners enter it *)
    ready.(me) <- false;
    finished.(me) <- true;
    List.iter
      (fun j ->
        if suspended.(j) then begin
          suspended.(j) <- false;
          ready.(j) <- true
        end)
      joiners.(me);
    joiners.(me) <- []
  in
  let r = Sched.run ~max_steps ~policy:(Sched.Controlled choose) (body main_acts) in
  (!decisions, !mismatches, r.Sched.status)

let rprog_gen =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (4, return Q_yield);
        (1, return Q_suspend);
        (2, map (fun k -> Q_wake k) (int_bound 20));
        (1, map (fun k -> Q_join k) (int_bound 20));
      ]
  in
  let acts depth =
    fix
      (fun self d ->
        list_size (int_range 0 6)
          (if d = 0 then leaf
           else frequency [ (5, leaf); (2, map (fun c -> Q_spawn c) (self (d - 1))) ]))
      depth
  in
  triple (int_range 20 200) (int_bound 9999) (acts 2)

let rec rprog_print = function
  | Q_yield -> "y"
  | Q_spawn c -> "spawn[" ^ String.concat ";" (List.map rprog_print c) ^ "]"
  | Q_suspend -> "suspend"
  | Q_wake k -> Printf.sprintf "wake%d" k
  | Q_join k -> Printf.sprintf "join%d" k

let ready_cache_qcheck =
  let open QCheck in
  [
    Test.make ~name:"sched: Controlled ready list = shadow ready set" ~count:300
      (make
         ~print:(fun (max_steps, seed, acts) ->
           Printf.sprintf "max_steps=%d seed=%d main=[%s]" max_steps seed
             (String.concat ";" (List.map rprog_print acts)))
         rprog_gen)
      (fun (max_steps, seed, acts) ->
        let decisions, mismatches, _ = run_rprog ~max_steps ~seed acts in
        decisions > 0 && mismatches = 0);
  ]

(* Words allocated by [f], less what the measurement itself boxes. *)
let words_of f =
  let floor =
    let b = Gc.minor_words () in
    Gc.minor_words () -. b
  in
  let b = Gc.minor_words () in
  f ();
  Gc.minor_words () -. b -. floor

(* A [Controlled] decision that keeps the running thread, with the ready
   set unchanged since the last one, allocates nothing: the callback gets
   the cached list. *)
let controlled_keep_allocation_free () =
  let words = ref nan in
  let r =
    Sched.run
      ~policy:
        (Sched.Controlled
           (fun current ready -> if List.mem current ready then current else List.hd ready))
      (fun () ->
        let w = Sched.spawn (fun () -> ()) in
        Sched.yield ();
        words :=
          words_of (fun () ->
              for _ = 1 to 1_000 do
                Sched.yield ()
              done);
        Sched.join w)
  in
  check_bool "completed" true (r.Sched.status = Sched.Completed);
  check_int "words over 1000 kept decisions" 0 (int_of_float !words)

(* Whatever [choose] raises escapes [Sched.run], also when the pick is
   taken at a yield: it must not turn into an exception of the yielding
   thread. *)
exception Choose_failed

let two_yielders () =
  let w = Sched.spawn (fun () -> Sched.yield ()) in
  Sched.yield ();
  Sched.yield ();
  Sched.join w

(* [choose] that applies [f] on call [k + 1] only and otherwise keeps
   the lowest ready tid; in [two_yielders] calls 2 and 3 are taken at
   main's yields, so only an exception that escapes [run] from there
   ends the run with it. *)
let choose_at k f =
  let calls = ref 0 in
  fun current ready ->
    incr calls;
    if !calls = k + 1 then f current ready else List.hd ready

let sched_choose_raises () =
  List.iter
    (fun k ->
      Alcotest.check_raises
        (Printf.sprintf "raise at call %d" (k + 1))
        Choose_failed
        (fun () ->
          ignore
            (Sched.run
               ~policy:
                 (Sched.Controlled (choose_at k (fun _ _ -> raise Choose_failed)))
               two_yielders));
      check_bool "engine released" false (Sched.running ());
      check_int "register reads no thread" (-1) Sched.(reg.tid))
    [ 0; 1; 2 ]

let sched_choose_non_runnable () =
  List.iter
    (fun k ->
      Alcotest.check_raises
        (Printf.sprintf "bad pick at call %d" (k + 1))
        (Invalid_argument "Sched.Controlled: chose a non-runnable thread")
        (fun () ->
          ignore
            (Sched.run
               ~policy:(Sched.Controlled (choose_at k (fun _ _ -> 7)))
               two_yielders));
      check_bool "engine released" false (Sched.running ());
      check_int "register reads no thread" (-1) Sched.(reg.tid))
    [ 0; 1; 2 ];
  (* a thread that exists but has finished: once main is the only
     ready thread again, pick the finished one *)
  let calls = ref 0 in
  let choose _ ready =
    incr calls;
    match ready with [ 0 ] when !calls > 1 -> 1 | t :: _ -> t | [] -> assert false
  in
  Alcotest.check_raises "finished thread"
    (Invalid_argument "Sched.Controlled: chose a non-runnable thread") (fun () ->
      ignore
        (Sched.run ~policy:(Sched.Controlled choose) (fun () ->
             Sched.join (Sched.spawn (fun () -> ()));
             Sched.yield ())));
  check_bool "engine released" false (Sched.running ())

(* Picks taken inside the effect handler, where the switch happens. In
   each program [choose] keeps the highest ready tid, and its call
   [k + 1] is the handler's pick after [current] suspended in a join,
   returned or raised; [ready] is what it is then offered. That pick
   raises, or picks [stale], a thread that is suspended or finished:
   either escapes [run] from the handler, leaves no engine behind and
   does the same again on a second run. *)
let sched_handler_pick_fails (k, current, ready, stale, prog) () =
  let attempt f =
    let calls = ref 0 and seen = ref (-1, []) in
    let choose current ready =
      incr calls;
      if !calls <= k then List.nth ready (List.length ready - 1)
      else begin
        seen := (current, ready);
        f ()
      end
    in
    let outcome =
      match Sched.run ~policy:(Sched.Controlled choose) prog with
      | _ -> "completed"
      | exception ex -> Printexc.to_string ex
    in
    check_bool "engine released" false (Sched.running ());
    check_int "register reads no thread" (-1) Sched.(reg.tid);
    (!calls, !seen, outcome)
  in
  let outcome_t = Alcotest.(triple int (pair int (list int)) string) in
  List.iter
    (fun (what, f, ex) ->
      let first = attempt f in
      Alcotest.check outcome_t what (k + 1, (current, ready), Printexc.to_string ex) first;
      Alcotest.check outcome_t (what ^ ", run again") first (attempt f))
    [
      ("raise", (fun () -> raise Choose_failed), Choose_failed);
      ( "non-runnable",
        (fun () -> stale),
        Invalid_argument "Sched.Controlled: chose a non-runnable thread" );
    ]

let pick_after_suspend = (1, 0, [ 1 ], 0, fun () -> Sched.join (Sched.spawn ignore))

let pick_after_exit body =
  ( 2,
    1,
    [ 0 ],
    1,
    fun () ->
      let w = Sched.spawn body in
      Sched.yield ();
      Sched.join w )

(* ------------------------------------------------------------------ *)
(* Min_clock against an effect-path model: switching yields, clock     *)
(* ties, pause, fuel and exceptions from thread bodies                 *)
(* ------------------------------------------------------------------ *)

(* [Tick_yield c] is [tick c; yield ()] and [Pause n] is [pause n]. Main
   spawns one worker per entry of [m_workers], runs [m_main], then joins
   the workers in order; a worker whose flag is set ends by raising.
   Every thread notes [Sched.self ()] and [Sched.time ()] when it starts
   and after each step. *)
type step = Tick_yield of int | Pause of int
type mprog = { m_main : step list; m_workers : (step list * bool) list }

exception Worker_failed of int

let run_mprog ~max_steps p =
  let notes = ref [] in
  let note () = notes := (Sched.self (), Sched.time ()) :: !notes in
  let steps =
    List.iter (fun s ->
        (match s with
        | Tick_yield c ->
            Sched.tick c;
            Sched.yield ()
        | Pause n -> Sched.pause n);
        note ())
  in
  let r =
    Sched.run ~max_steps ~policy:Sched.Min_clock (fun () ->
        note ();
        let ts =
          List.map
            (fun (l, raises) ->
              Sched.spawn (fun () ->
                  note ();
                  steps l;
                  if raises then raise (Worker_failed (Sched.self ()))))
            p.m_workers
        in
        steps p.m_main;
        List.iter Sched.join ts)
  in
  (List.rev !notes, r.Sched.switches, r.Sched.makespan, r.Sched.status, r.Sched.exns)

(* The model sends every yield through the scheduler: the yielding
   thread rejoins the runnable set, fuel is checked, and the runnable
   thread with the least (clock, tid) runs. It has none of the engine's
   shortcuts: no direct return from a yield that keeps the processor, no
   heap, no fused push-pop. *)
let model_mprog ~max_steps p =
  let n = List.length p.m_workers in
  let acts = Array.of_list (p.m_main :: List.map fst p.m_workers) in
  let raises = Array.of_list (false :: List.map snd p.m_workers) in
  let clock = Array.make (n + 1) 0 in
  let runnable = Array.make (n + 1) false in
  let started = Array.make (n + 1) false in
  let finished = Array.make (n + 1) false in
  (* main joins workers [joining..n]; [waiting]: suspended in a join,
     [woken]: made runnable again by the finish of the one it joins *)
  let joining = ref 1 and waiting = ref false and woken = ref false in
  let notes = ref [] and exns = ref [] and steps = ref 0 in
  let finish t =
    finished.(t) <- true;
    if !waiting && !joining = t then begin
      waiting := false;
      woken := true;
      clock.(0) <- max clock.(0) clock.(t);
      runnable.(0) <- true
    end
  in
  let main_joins () =
    while !joining <= n && finished.(!joining) do
      clock.(0) <- max clock.(0) clock.(!joining);
      incr joining
    done;
    if !joining > n then finished.(0) <- true else waiting := true
  in
  (* run [t] up to its next yield, suspension or end *)
  let run_on t =
    match acts.(t) with
    | s :: rest ->
        acts.(t) <- rest;
        (clock.(t) <-
           clock.(t) + match s with Tick_yield c -> c | Pause n -> max n 0);
        runnable.(t) <- true
    | [] when t = 0 -> main_joins ()
    | [] ->
        if raises.(t) then exns := (t, Worker_failed t) :: !exns;
        finish t
  in
  let resume t =
    if not started.(t) then begin
      started.(t) <- true;
      notes := (t, clock.(t)) :: !notes;
      if t = 0 then Array.fill runnable 1 n true;
      run_on t
    end
    else if t = 0 && !woken then begin
      woken := false;
      main_joins ()
    end
    else begin
      notes := (t, clock.(t)) :: !notes;
      run_on t
    end
  in
  runnable.(0) <- true;
  let status = ref Sched.Completed in
  (try
     while true do
       if !steps >= max_steps then begin
         status := Sched.Fuel_exhausted;
         raise Exit
       end;
       let best = ref (-1) in
       for t = n downto 0 do
         if runnable.(t) && (!best < 0 || clock.(t) <= clock.(!best)) then best := t
       done;
       if !best < 0 then raise Exit;
       incr steps;
       runnable.(!best) <- false;
       resume !best
     done
   with Exit -> ());
  ( List.rev !notes,
    !steps,
    Array.fold_left max 0 clock,
    !status,
    List.rev !exns )

let mprog_gen =
  let open QCheck.Gen in
  let step =
    frequency
      [
        (3, map (fun c -> Tick_yield c) (int_range 0 3));
        (1, map (fun n -> Pause n) (int_range (-2) 4));
      ]
  in
  let steps = list_size (int_range 0 6) step in
  pair (int_range 1 80)
    (map2
       (fun m_main m_workers -> { m_main; m_workers })
       (list_size (int_range 0 3) step)
       (list_size (int_range 1 6)
          (pair steps (frequency [ (3, return false); (1, return true) ]))))

let mprog_print (max_steps, p) =
  let step = function
    | Tick_yield c -> Printf.sprintf "y%d" c
    | Pause n -> Printf.sprintf "p%d" n
  in
  let steps l = "[" ^ String.concat ";" (List.map step l) ^ "]" in
  Printf.sprintf "max_steps=%d main=%s workers=%s" max_steps (steps p.m_main)
    (String.concat " "
       (List.map (fun (l, r) -> steps l ^ if r then "!" else "") p.m_workers))

let sched_model_qcheck =
  QCheck.(
    Test.make ~name:"sched: Min_clock = effect-path model (fuel, ties, pause, exns)"
      ~count:500 (make ~print:mprog_print mprog_gen)
      (fun (max_steps, p) -> run_mprog ~max_steps p = model_mprog ~max_steps p))

(* ------------------------------------------------------------------ *)
(* The running-thread register against a model with clocks, under     *)
(* every policy: spawn, join, wake, suspend, pause and rebase          *)
(* ------------------------------------------------------------------ *)

(* One action of a thread. [R_tick c] is [tick c; yield ()]. *)
type ract = R_tick of int | R_pause of int | R_suspend | R_wake of int | R_rebase

(* Main (tid 0) runs [r_pre], spawns one worker per entry of [r_workers]
   (tids 1..n, at main's clock), runs [r_post], then joins the workers in
   order. A worker whose flag is set ends by raising. Only workers
   suspend, and only workers are woken, so a join returns only when its
   thread has finished. *)
type rprog = { r_pre : ract list; r_post : ract list; r_workers : (ract list * bool) list }

(* Every thread notes [Sched.self ()] and [Sched.time ()] when it starts,
   after each action and after each join: an observation of the
   register wherever the thread can run. *)
let run_rprog ~max_steps policy p =
  let notes = ref [] in
  let note () = notes := (Sched.self (), Sched.time ()) :: !notes in
  let acts =
    List.iter (fun a ->
        (match a with
        | R_tick c ->
            Sched.tick c;
            Sched.yield ()
        | R_pause n -> Sched.pause n
        | R_suspend -> Sched.suspend ()
        | R_wake k -> Sched.wake k
        | R_rebase -> Sched.rebase ());
        note ())
  in
  let r =
    Sched.run ~max_steps ~policy (fun () ->
        note ();
        acts p.r_pre;
        let ts =
          List.map
            (fun (l, raises) ->
              Sched.spawn (fun () ->
                  note ();
                  acts l;
                  if raises then raise (Worker_failed (Sched.self ()))))
            p.r_workers
        in
        note ();
        acts p.r_post;
        List.iter
          (fun t ->
            Sched.join t;
            note ())
          ts)
  in
  (List.rev !notes, r.Sched.switches, r.Sched.makespan, r.Sched.status, r.Sched.exns)

(* The model runs each thread as a list of micro-operations; [M_yield]
   and [M_block] end a resume. A [pause n] is one yield after [n] cycles,
   except under [Random], where it is a yield after each quantum of at
   most 16 cycles (see [Sched.pause]). *)
type mop =
  | M_note
  | M_add of int
  | M_yield
  | M_block
  | M_wake of int
  | M_rebase
  | M_spawn
  | M_join of int
  | M_raise

type mstate = Unspawned | Ready | Running | Blocked | Finished

let model_rprog ~max_steps ~random p pick =
  let n = List.length p.r_workers in
  let expand a =
    (match a with
    | R_tick c -> [ M_add c; M_yield ]
    | R_pause k when random ->
        if k <= 0 then [ M_yield ]
        else
          let quantum q = [ M_add (min 16 (k - (16 * q))); M_yield ] in
          List.concat (List.init ((k + 15) / 16) quantum)
    | R_pause k -> [ M_add (max k 0); M_yield ]
    | R_suspend -> [ M_block ]
    | R_wake k -> [ M_wake k ]
    | R_rebase -> [ M_rebase ])
    @ [ M_note ]
  in
  let acts l = List.concat_map expand l in
  let main =
    (M_note :: acts p.r_pre)
    @ (M_spawn :: M_note :: acts p.r_post)
    @ List.concat (List.init n (fun i -> [ M_join (i + 1); M_note ]))
  in
  let ops =
    Array.of_list
      (main
      :: List.map
           (fun (l, raises) -> (M_note :: acts l) @ if raises then [ M_raise ] else [])
           p.r_workers)
  in
  let clock = Array.make (n + 1) 0 in
  let state = Array.make (n + 1) Unspawned in
  let joiner = Array.make (n + 1) false in
  let notes = ref [] and exns = ref [] in
  let finish t =
    state.(t) <- Finished;
    if joiner.(t) then begin
      joiner.(t) <- false;
      clock.(0) <- max clock.(0) clock.(t);
      state.(0) <- Ready
    end
  in
  let rec exec t =
    match ops.(t) with
    | [] -> finish t
    | op :: rest -> (
        ops.(t) <- rest;
        match op with
        | M_note ->
            notes := (t, clock.(t)) :: !notes;
            exec t
        | M_add c ->
            clock.(t) <- clock.(t) + c;
            exec t
        | M_yield -> state.(t) <- Ready
        | M_block -> state.(t) <- Blocked
        | M_wake k ->
            if state.(k) = Blocked then begin
              clock.(k) <- max clock.(k) clock.(t);
              state.(k) <- Ready
            end;
            exec t
        | M_rebase ->
            Array.fill clock 0 (n + 1) 0;
            exec t
        | M_spawn ->
            for w = 1 to n do
              clock.(w) <- clock.(t);
              state.(w) <- Ready
            done;
            exec t
        | M_join k ->
            if state.(k) = Finished then begin
              clock.(t) <- max clock.(t) clock.(k);
              exec t
            end
            else begin
              joiner.(k) <- true;
              state.(t) <- Blocked
            end
        | M_raise ->
            exns := (t, Worker_failed t) :: !exns;
            finish t)
  in
  state.(0) <- Ready;
  let tids = List.init (n + 1) Fun.id in
  let steps = ref 0 and current = ref 0 and status = ref Sched.Completed in
  (try
     while true do
       if !steps >= max_steps then begin
         status := Sched.Fuel_exhausted;
         raise Exit
       end;
       let ready = List.filter (fun t -> state.(t) = Ready) tids in
       if ready = [] then begin
         let stuck = List.filter (fun t -> state.(t) <> Finished) tids in
         if stuck <> [] then status := Sched.Deadlock stuck;
         raise Exit
       end;
       let c = pick !current ready clock in
       incr steps;
       current := c;
       state.(c) <- Running;
       exec c
     done
   with Exit -> ());
  (List.rev !notes, !steps, Array.fold_left max 0 clock, !status, List.rev !exns)

let pick_min_clock _ ready clock =
  List.fold_left
    (fun b t -> if b < 0 || clock.(t) < clock.(b) then t else b)
    (-1) ready

let rprog_gen =
  let open QCheck.Gen in
  let common =
    [
      (3, map (fun c -> R_tick c) (int_range 0 3));
      (2, map (fun k -> R_pause k) (int_range (-2) 40));
      (1, return R_rebase);
    ]
  in
  let pre = list_size (int_range 0 3) (frequency common) in
  let wake n = map (fun k -> R_wake k) (int_range 1 n) in
  let post n = list_size (int_range 0 4) (frequency ((2, wake n) :: common)) in
  let worker n =
    list_size (int_range 0 6) (frequency ((2, return R_suspend) :: (3, wake n) :: common))
  in
  int_range 1 4 >>= fun n ->
  map3
    (fun max_steps seed (r_pre, r_post, r_workers) ->
      (max_steps, seed, { r_pre; r_post; r_workers }))
    (int_range 1 100) (int_range 0 9999)
    (triple pre (post n)
       (list_repeat n
          (pair (worker n) (frequency [ (4, return false); (1, return true) ]))))

let rprog_print (max_steps, seed, p) =
  let act = function
    | R_tick c -> Printf.sprintf "y%d" c
    | R_pause k -> Printf.sprintf "p%d" k
    | R_suspend -> "s"
    | R_wake k -> Printf.sprintf "w%d" k
    | R_rebase -> "r"
  in
  let acts l = "[" ^ String.concat ";" (List.map act l) ^ "]" in
  Printf.sprintf "max_steps=%d seed=%d pre=%s post=%s workers=%s" max_steps seed
    (acts p.r_pre) (acts p.r_post)
    (String.concat " "
       (List.map (fun (l, r) -> acts l ^ if r then "!" else "") p.r_workers))

let register_qcheck =
  let open QCheck in
  let arb = make ~print:rprog_print rprog_gen in
  let test name policy_and_pick =
    Test.make ~name:("sched: register = clock model under " ^ name) ~count:300 arb
      (fun (max_steps, seed, p) ->
        let policy, pick, random, check = policy_and_pick seed in
        let real = run_rprog ~max_steps policy p in
        let model = model_rprog ~max_steps ~random p pick in
        real = model && check ())
  in
  let none () = true in
  [
    test "Min_clock" (fun _ -> (Sched.Min_clock, pick_min_clock, false, none));
    test "Random" (fun seed ->
        let rng = Det_rng.create seed in
        ( Sched.Random seed,
          (fun _ ready _ -> List.nth ready (Det_rng.int rng (List.length ready))),
          true,
          none ));
    test "Controlled" (fun seed ->
        let choose, log = scripted_choose seed and choose', log' = scripted_choose seed in
        ( Sched.Controlled choose,
          (fun current ready _ -> choose' current ready),
          false,
          fun () -> !log = !log' ));
  ]

(* Outside a run the register reads "no thread", and every operation
   that needs a running thread says so, the STM's allocation included. *)
let sched_outside_run () =
  let raises what f =
    match f () with
    | exception Sched.Not_in_simulation -> ()
    | _ -> Alcotest.failf "%s outside a run should raise" what
  in
  check_int "register tid" (-1) Sched.(reg.tid);
  raises "tick" (fun () -> Sched.tick 1);
  raises "time" (fun () -> ignore (Sched.time () : int));
  raises "self" (fun () -> ignore (Sched.self () : Sched.tid));
  raises "yield" Sched.yield;
  Stm_core.Stm.install Stm_core.Config.eager_strong;
  Fun.protect ~finally:Stm_core.Stm.uninstall (fun () ->
      raises "Stm.alloc" (fun () -> ignore (Stm_core.Stm.alloc ~cls:"C" 1 : Heap.obj)));
  check_bool "running flag" false (Sched.running ())

(* [threads] workers that each tick one cycle and yield [yields] times:
   every tick puts the yielder's clock above its peers', so every yield
   switches. *)
let lockstep ~threads ~yields () =
  let ts =
    List.init threads (fun _ ->
        Sched.spawn (fun () ->
            for _ = 1 to yields do
              Sched.tick 1;
              Sched.yield ()
            done))
  in
  List.iter Sched.join ts

(* A switching yield allocates the runtime's continuation block (2 words)
   and nothing else: the handler is the engine's, its closures are
   preallocated, and neither the slot nor the pick is boxed. Counted
   exactly with [Gc.minor_words] over a whole lockstep run, spawns and
   joins included. *)
let switch_yields = 2_000

let sched_switch_allocation () =
  let threads = 8 in
  let last = ref (-1) and kept = ref 0 in
  let run () =
    Sched.run ~policy:Sched.Min_clock (fun () ->
        let ts =
          List.init threads (fun _ ->
              Sched.spawn (fun () ->
                  for _ = 1 to switch_yields do
                    last := Sched.self ();
                    Sched.tick 1;
                    Sched.yield ();
                    if !last = Sched.self () then incr kept
                  done;
                  last := Sched.self ()))
        in
        List.iter Sched.join ts)
  in
  ignore (run ());
  kept := 0;
  let before = Gc.minor_words () in
  let r = run () in
  let words = Gc.minor_words () -. before in
  check_bool "completed" true (r.Sched.status = Sched.Completed);
  check_int "yields that kept the processor" 0 !kept;
  let w = words /. float_of_int (threads * switch_yields) in
  if w >= 3.0 then Alcotest.failf "%.2f words per switching yield" w

(* A run that ends badly leaves no engine behind and the register at "no
   thread", and the same program
   run again gives the same result, under every policy the loop picks
   differently for. *)
let rerun_identical what policy ?max_steps prog =
  let a = Sched.run ?max_steps ~policy prog in
  check_bool (what ^ ": engine released") false (Sched.running ());
  check_int (what ^ ": register reads no thread") (-1) Sched.(reg.tid);
  let b = Sched.run ?max_steps ~policy prog in
  check_bool (what ^ ": rerun identical") true (a = b);
  a

let failure_policies = [ Sched.Min_clock; Sched.Random 7 ]

(* Fuel runs out at a switching yield: the yielder is Runnable but not
   on the heap when the loop stops. *)
let sched_fuel_at_switch () =
  List.iter
    (fun policy ->
      let r =
        rerun_identical "fuel" policy ~max_steps:50 (lockstep ~threads:8 ~yields:100)
      in
      check_bool "fuel exhausted" true (r.Sched.status = Sched.Fuel_exhausted);
      check_int "switches = max_steps" 50 r.Sched.switches)
    failure_policies

let sched_deadlock_suspended () =
  List.iter
    (fun policy ->
      let r =
        rerun_identical "deadlock" policy (fun () ->
            let ts =
              List.init 3 (fun _ ->
                  Sched.spawn (fun () ->
                      Sched.tick 1;
                      Sched.yield ();
                      Sched.suspend ()))
            in
            List.iter Sched.join ts)
      in
      match r.Sched.status with
      | Sched.Deadlock [ 0; 1; 2; 3 ] -> ()
      | _ -> Alcotest.fail "expected every thread stuck")
    failure_policies

let sched_body_exception () =
  List.iter
    (fun policy ->
      let r =
        rerun_identical "exception" policy (fun () ->
            let ts =
              List.init 3 (fun i ->
                  Sched.spawn (fun () ->
                      Sched.tick i;
                      Sched.yield ();
                      if i = 1 then failwith "boom"))
            in
            List.iter Sched.join ts)
      in
      check_bool "completed" true (r.Sched.status = Sched.Completed);
      check_bool "one exception, from tid 2" true
        (r.Sched.exns = [ (2, Failure "boom") ]))
    failure_policies

(* The slot of a thread that holds no continuation can never run a
   fiber: resuming it fails at once. *)
let sched_empty_slot () =
  for _ = 1 to 2 do
    Alcotest.check_raises "resume the empty slot"
      Effect.Continuation_already_resumed (fun () ->
        Effect.Deep.continue Cont.none ())
  done

(* The scheduler leaves a resumed continuation in its thread's slot. A
   fiber parks twice; resuming the first park's slot runs it to the
   second, and resuming that slot again fails as the empty one does,
   without running the fiber: the second park's slot still resumes it. *)
type _ Effect.t += Park_twice : unit Effect.t

let sched_resumed_slot () =
  let slot : Cont.t ref = ref Cont.none and steps = ref 0 in
  Effect.Deep.match_with
    (fun () ->
      incr steps;
      Effect.perform Park_twice;
      incr steps;
      Effect.perform Park_twice;
      incr steps)
    ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Park_twice -> Some (fun (k : (a, unit) Effect.Deep.continuation) -> slot := k)
          | _ -> None);
    };
  check_int "parked once" 1 !steps;
  let first = !slot in
  Effect.Deep.continue first ();
  check_int "resumed to the second park" 2 !steps;
  for _ = 1 to 2 do
    Alcotest.check_raises "resume the resumed slot"
      Effect.Continuation_already_resumed (fun () -> Effect.Deep.continue first ())
  done;
  check_int "the fiber did not run" 2 !steps;
  Effect.Deep.continue !slot ();
  check_int "the second park's slot resumes it" 3 !steps

let suite =
  suite
  @ [
      ( "runtime:sched-heap",
        List.map QCheck_alcotest.to_alcotest sched_heap_qcheck
        @ [
            case "wake order follows (clock, tid)" sched_heap_wake_order;
            case "O(1) runnable count" sched_runnable_count;
            case "lone yield spends fuel" sched_lone_yield_spends_fuel;
            case "yield below a peer spends fuel"
              sched_yield_below_peer_spends_fuel;
            QCheck_alcotest.to_alcotest sched_model_qcheck;
          ]
        @ List.map QCheck_alcotest.to_alcotest register_qcheck
        @ [
            case "outside a run: no thread, Not_in_simulation" sched_outside_run;
            case "a switching yield allocates < 3 words" sched_switch_allocation;
            case "fuel out at a switching yield" sched_fuel_at_switch;
            case "deadlock with suspended threads" sched_deadlock_suspended;
            case "exception from a thread body" sched_body_exception;
            case "an empty continuation slot never resumes" sched_empty_slot;
            case "a resumed continuation slot never resumes again"
              sched_resumed_slot;
          ] );
      ( "runtime:sched-yield-pick",
        List.map QCheck_alcotest.to_alcotest yield_pick_qcheck
        @ [
            case "an exception from choose escapes run" sched_choose_raises;
            case "a non-runnable choice escapes run" sched_choose_non_runnable;
            case "a failed pick after a suspend escapes run"
              (sched_handler_pick_fails pick_after_suspend);
            case "a failed pick after a return escapes run"
              (sched_handler_pick_fails (pick_after_exit ignore));
            case "a failed pick after a raise escapes run"
              (sched_handler_pick_fails (pick_after_exit (fun () -> raise Exit)));
            case "a kept Controlled decision allocates nothing"
              controlled_keep_allocation_free;
          ]
        @ List.map QCheck_alcotest.to_alcotest ready_cache_qcheck );
    ]

(* ------------------------------------------------------------------ *)
(* Det_rng against the boxed-state generator it replaced               *)
(* ------------------------------------------------------------------ *)

(* The original implementation, kept as the reference: its state was a
   boxed [int64] field, so every draw allocated. The unboxed generator
   must produce the same streams bit for bit. *)
module Boxed_rng = struct
  type t = { mutable state : int64 }

  let golden_gamma = 0x9E3779B97F4A7C15L
  let create seed = { state = Int64.of_int seed }
  let copy t = { state = t.state }

  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let next64 t =
    t.state <- Int64.add t.state golden_gamma;
    mix t.state

  let next t = Int64.to_int (Int64.shift_right_logical (next64 t) 2)

  let int t bound =
    assert (bound > 0);
    next t mod bound

  let bool t = Int64.logand (next64 t) 1L = 1L

  let float t bound =
    let x = Int64.to_float (Int64.shift_right_logical (next64 t) 11) in
    bound *. (x /. 9007199254740992.0)

  let split t = { state = next64 t }

  let range t lo hi =
    assert (hi >= lo);
    lo + int t (hi - lo + 1)

  let pick t arr =
    assert (Array.length arr > 0);
    arr.(int t (Array.length arr))

  let weighted t choices =
    let total = List.fold_left (fun acc (w, _) -> acc + max 0 w) 0 choices in
    assert (total > 0);
    let n = int t total in
    let rec go n = function
      | [] -> assert false
      | (w, x) :: rest -> if n < max 0 w then x else go (n - max 0 w) rest
    in
    go n choices
end

(* Every drawing function in turn, with bounds that vary per round, then
   the same again on a split-off and a copied generator. *)
let rng_same_streams seed =
  let arr = Array.init 37 (fun i -> i * i) in
  let choices = [ (3, 'a'); (0, 'b'); (5, 'c'); (-2, 'd'); (1, 'e') ] in
  let rec rounds n a b =
    n = 0
    || Det_rng.next a = Boxed_rng.next b
       && (let bound = 1 + (n * 7919 mod 1_000_003) in
           Det_rng.int a bound = Boxed_rng.int b bound)
       && Det_rng.bool a = Boxed_rng.bool b
       && Int64.bits_of_float (Det_rng.float a 2.5)
          = Int64.bits_of_float (Boxed_rng.float b 2.5)
       && Det_rng.range a (-n) n = Boxed_rng.range b (-n) n
       && Det_rng.pick a arr = Boxed_rng.pick b arr
       && Det_rng.weighted a choices = Boxed_rng.weighted b choices
       && rounds (n - 1) a b
  in
  let a = Det_rng.create seed and b = Boxed_rng.create seed in
  rounds 40 a b
  && rounds 40 (Det_rng.split a) (Boxed_rng.split b)
  && rounds 40 (Det_rng.copy a) (Boxed_rng.copy b)
  && rounds 40 a b

let rng_reference_qcheck =
  let open QCheck in
  [
    Test.make ~name:"rng: streams = boxed-state reference" ~count:300 int
      rng_same_streams;
  ]

let rng_int_allocation_free () =
  let r = Det_rng.create 17 in
  ignore (Det_rng.int r 10 : int);
  let draws = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to draws do
    ignore (Det_rng.int r 1_000 : int)
  done;
  let w = (Gc.minor_words () -. before) /. float_of_int draws in
  if w >= 1.0 then Alcotest.failf "Det_rng.int: %.2f words per draw" w

let suite =
  suite
  @ [
      ( "runtime:rng-reference",
        List.map QCheck_alcotest.to_alcotest rng_reference_qcheck
        @ [ case "int allocates nothing per draw" rng_int_allocation_free ] );
    ]

(* ------------------------------------------------------------------ *)
(* Int_index                                                           *)
(* ------------------------------------------------------------------ *)

(* The undo-log / write-buffer key shape: an oid above bit 26. *)
let gkey oid base = (oid lsl 26) lor base

type index_op =
  | Add of int  (* to the set *)
  | Replace of int * int  (* in the map *)
  | Find of int
  | Mem of int
  | Remove of int
  | Clear

let pp_index_op = function
  | Add k -> Printf.sprintf "add %d" k
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Find k -> Printf.sprintf "find %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Clear -> "clear"

(* Few distinct keys, so tables stay small, clusters collide and wrap, and
   removals land inside them: gkey-shaped keys sharing a base (they differ
   only above bit 26), dense small ints, and the extremes. *)
let index_key_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 gkey (int_range 0 11) (int_range 0 3));
        (3, int_range 0 15);
        (1, oneofl [ -1; max_int; min_int; 1 lsl 61 ]);
      ])

let index_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun k -> Add k) index_key_gen);
        (5, map2 (fun k v -> Replace (k, v)) index_key_gen (int_range 0 99));
        (4, map (fun k -> Find k) index_key_gen);
        (2, map (fun k -> Mem k) index_key_gen);
        (5, map (fun k -> Remove k) index_key_gen);
        (1, return Clear);
      ])

(* One sequence drives a map (int values, -1 absent) and a set, each
   beside a [Hashtbl] model: every answer, and the bindings after every
   operation, agree. *)
let index_agrees_with_model ops =
  let map = Int_index.create (-1) and mmap = Hashtbl.create 16 in
  let set = Int_index.create () and mset = Hashtbl.create 16 in
  let sorted l = List.sort compare l in
  let consistent () =
    Int_index.length map = Hashtbl.length mmap
    && Int_index.length set = Hashtbl.length mset
    && sorted (Int_index.fold (fun k v acc -> (k, v) :: acc) map [])
       = sorted (Hashtbl.fold (fun k v acc -> (k, v) :: acc) mmap [])
    && sorted (Int_index.fold (fun k () acc -> k :: acc) set [])
       = sorted (Hashtbl.fold (fun k () acc -> k :: acc) mset [])
    && Hashtbl.fold (fun k v ok -> ok && Int_index.find map k = v) mmap true
    && Hashtbl.fold (fun k () ok -> ok && Int_index.mem set k) mset true
  in
  List.for_all
    (fun op ->
      let answer_ok =
        match op with
        | Add k ->
            let fresh = not (Hashtbl.mem mset k) in
            Hashtbl.replace mset k ();
            Int_index.add set k = fresh
        | Replace (k, v) ->
            Hashtbl.replace mmap k v;
            Int_index.replace map k v;
            true
        | Find k ->
            Int_index.find map k
            = Option.value ~default:(-1) (Hashtbl.find_opt mmap k)
        | Mem k ->
            Int_index.mem map k = Hashtbl.mem mmap k
            && Int_index.mem set k = Hashtbl.mem mset k
        | Remove k ->
            Hashtbl.remove mmap k;
            Int_index.remove map k;
            Hashtbl.remove mset k;
            Int_index.remove set k;
            true
        | Clear ->
            Hashtbl.reset mmap;
            Int_index.clear map;
            Hashtbl.reset mset;
            Int_index.clear set;
            true
      in
      answer_ok && consistent ())
    ops

let index_qcheck =
  let open QCheck in
  [
    Test.make ~name:"int_index: agrees with a Hashtbl model" ~count:500
      (make
         ~print:(fun ops -> String.concat "; " (List.map pp_index_op ops))
         Gen.(list_size (int_range 0 200) index_op_gen))
      index_agrees_with_model;
  ]

(* The first key of [candidates] whose home is [slot]. *)
let key_homed_at t slot candidates =
  List.find (fun k -> Int_index.home t k = slot) candidates

(* A cluster that wraps past the last slot: homes 14, 15, 15, 0, 15 in a
   16-slot table fill slots 14, 15, 0, 1, 2. Removing the keys one at a
   time, in every order, must leave each remaining key reachable: the
   backward shift moves entries across the wrap into the hole. *)
let index_wrapped_cluster_removal () =
  let candidates = List.init 20_000 (fun oid -> gkey (oid + 1) 0) in
  let t = Int_index.create (-1) in
  (* five inserts grow the table to 16 slots; the clear keeps them *)
  List.iteri (fun i k -> Int_index.replace t k i) (List.filteri (fun i _ -> i < 5) candidates);
  Int_index.clear t;
  let fresh = List.filteri (fun i _ -> i >= 5) candidates in
  let a = key_homed_at t 14 fresh in
  let b = key_homed_at t 15 fresh in
  let c = key_homed_at t 15 (List.filter (fun k -> k <> b) fresh) in
  let d = key_homed_at t 0 fresh in
  let e = key_homed_at t 15 (List.filter (fun k -> k <> b && k <> c) fresh) in
  let keys = [ a; b; c; d; e ] in
  let rec perms = function
    | [] -> [ [] ]
    | l -> List.concat_map (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) l))) l
  in
  List.iter
    (fun order ->
      Int_index.clear t;
      List.iteri (fun i k -> Int_index.replace t k i) keys;
      check_int "still 16 slots" 14 (Int_index.home t a);
      let live = ref (List.mapi (fun i k -> (k, i)) keys) in
      List.iter
        (fun k ->
          Int_index.remove t k;
          live := List.remove_assoc k !live;
          check_int "removed" (-1) (Int_index.find t k);
          check_int "length" (List.length !live) (Int_index.length t);
          List.iter (fun (k', v) -> check_int "reachable" v (Int_index.find t k')) !live)
        order)
    (perms keys)

(* Growth right after a clear re-inserts only the live entries: the
   cleared ones stay gone, and every new one is found. *)
let index_growth_after_clear () =
  let t = Int_index.create (-1) in
  for oid = 1 to 8 do
    Int_index.replace t (gkey oid 1) oid
  done;
  Int_index.clear t;
  (* nine keys need 32 slots; the last insert grows the table *)
  for oid = 100 to 108 do
    check_bool "new" false (Int_index.mem t (gkey oid 1));
    Int_index.replace t (gkey oid 1) oid
  done;
  check_int "length" 9 (Int_index.length t);
  for oid = 1 to 8 do
    check_bool "cleared key gone" false (Int_index.mem t (gkey oid 1))
  done;
  for oid = 100 to 108 do
    check_int "found" oid (Int_index.find t (gkey oid 1))
  done

(* Keys that differ only above bit 26 must not share a home: the hash
   mixes the key's high bits into the slot. 2048 such keys in a
   4096-slot table take well over half as many distinct homes. *)
let index_high_bits_spread () =
  let t = Int_index.create (-1) in
  for oid = 1 to 2048 do
    Int_index.replace t (gkey oid 0) oid
  done;
  let homes = Hashtbl.create 2048 in
  for oid = 1 to 2048 do
    Hashtbl.replace homes (Int_index.home t (gkey oid 0)) ()
  done;
  let distinct = Hashtbl.length homes in
  if distinct < 1024 then
    Alcotest.failf "2048 gkeys share %d home slots" distinct

let index_allocation_free () =
  let t = Int_index.create (-1) and set = Int_index.create () in
  for k = 0 to 31 do
    Int_index.replace t (gkey k 2) k;
    ignore (Int_index.add set (gkey k 2) : bool)
  done;
  let rounds = 1_000 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    Int_index.clear t;
    Int_index.clear set;
    for k = 0 to 31 do
      Int_index.replace t (gkey k 2) k;
      ignore (Int_index.find t (gkey k 2) : int);
      ignore (Int_index.add set (gkey k 2) : bool)
    done;
    Int_index.remove t (gkey 3 2);
    Int_index.remove set (gkey 3 2)
  done;
  let w = (Gc.minor_words () -. before) /. float_of_int rounds in
  if w >= 1.0 then Alcotest.failf "Int_index: %.2f words per round" w

let suite =
  suite
  @ [
      ( "runtime:int-index",
        List.map QCheck_alcotest.to_alcotest index_qcheck
        @ [
            case "removal inside a wrapped cluster" index_wrapped_cluster_removal;
            case "growth right after a clear" index_growth_after_clear;
            case "high key bits spread" index_high_bits_spread;
            case "sized tables allocate nothing" index_allocation_free;
          ] );
    ]
