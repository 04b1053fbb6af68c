(* Additional cross-cutting coverage: scheduler policies, explorer
   determinism, Jt corner cases, strong atomicity under coarse granules,
   and interactions between features (wound-wait x lazy, quiescence x
   lazy ordering, DEA x aggregation). *)

open Stm_runtime
open Stm_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Scheduler policies                                                  *)
(* ------------------------------------------------------------------ *)

let random_policies_differ () =
  let trace seed =
    let log = ref [] in
    ignore
      (Sched.run ~policy:(Sched.Random seed) (fun () ->
           let mk id () =
             for _ = 1 to 6 do
               log := id :: !log;
               Sched.yield ()
             done
           in
           let ts = List.init 3 (fun i -> Sched.spawn (mk i)) in
           List.iter Sched.join ts));
    !log
  in
  check_bool "different seeds, different schedules" true
    (trace 1 <> trace 99 || trace 2 <> trace 100)

let min_clock_prefers_behind () =
  (* the cheap thread gets scheduled more often *)
  let counts = Array.make 2 0 in
  ignore
    (Sched.run ~policy:Sched.Min_clock (fun () ->
         let mk i cost () =
           for _ = 1 to 20 do
             counts.(i) <- counts.(i) + 1;
             Sched.tick cost;
             Sched.yield ()
           done
         in
         let a = Sched.spawn (mk 0 1) in
         let b = Sched.spawn (mk 1 100) in
         Sched.join a;
         Sched.join b));
  check_int "both complete fully" 40 (counts.(0) + counts.(1))

(* ------------------------------------------------------------------ *)
(* Explorer determinism                                                *)
(* ------------------------------------------------------------------ *)

let explorer_deterministic () =
  let open Stm_litmus in
  let program = Programs.speculative_lost_update in
  let mode = Modes.Stm (Point.v (Point.Eager Config.Incremental) Point.Weak) in
  let cfg = Modes.config mode in
  let explore () =
    let e =
      Explorer.explore ~max_runs:300 ~cfg
        ~make:(fun () -> program.Programs.build (Modes.harness mode cfg))
        ()
    in
    (e.Explorer.outcomes, e.Explorer.runs)
  in
  check_bool "two explorations identical" true (explore () = explore ())

let pct_deterministic_per_seed () =
  let open Stm_litmus in
  let program = Programs.intermediate_dirty_read in
  let mode = Modes.Stm (Point.v (Point.Eager Config.Incremental) Point.Weak) in
  let cfg = Modes.config mode in
  let explore seed =
    (Explorer.explore_pct ~runs:100 ~seed ~cfg
       ~make:(fun () -> program.Programs.build (Modes.harness mode cfg))
       ())
      .Explorer.outcomes
  in
  check_bool "same seed same outcomes" true (explore 5 = explore 5)

(* ------------------------------------------------------------------ *)
(* Jt corner cases                                                     *)
(* ------------------------------------------------------------------ *)

let run_jt ?(params = []) ?(cfg = Config.eager_weak) src =
  let out = Stm_ir.Interp.run ~cfg ~params (Stm_jtlang.Jt.compile src) in
  (match out.Stm_ir.Interp.result.Sched.exns with
  | [] -> ()
  | (t, e) :: _ -> Alcotest.failf "thread %d: %s" t (Printexc.to_string e));
  out

let jt_nested_atomic () =
  let out =
    run_jt ~cfg:Config.eager_strong
      {|
class G { static int x; }
class Main {
  static void inner() { atomic { G.x = G.x + 1; } }
  static void main() {
    atomic {
      G.x = 10;
      inner();           // closed nesting by flattening
      atomic { G.x = G.x * 2; }
    }
    print(G.x);
  }
}|}
  in
  Alcotest.(check (list string)) "nested atomics flatten" [ "22" ]
    out.Stm_ir.Interp.prints

let jt_deep_recursion_in_txn () =
  let out =
    run_jt
      {|
class Main {
  static int sum(int n) {
    if (n == 0) { return 0; }
    return n + sum(n - 1);
  }
  static void main() {
    int r = 0;
    atomic { r = sum(60); }
    print(r);
  }
}|}
  in
  Alcotest.(check (list string)) "recursion inside txn" [ "1830" ]
    out.Stm_ir.Interp.prints

let jt_volatile_keeps_barrier () =
  let prog =
    Stm_jtlang.Jt.compile
      {|
class C { volatile int f; int g; }
class Main { static void main() {
  C c = new C();
  c.f = 1;
  print(c.f + c.g);
} }|}
  in
  (* immutability/escape passes must not touch the volatile field's
     accesses... escape CAN remove them (the object is provably local,
     which subsumes any ordering concern); aggregation must not fold
     across them - verified structurally in test_jit; here check the
     front end records the flag *)
  let _, f = Stm_ir.Ir.instance_field_index prog "C" "f" in
  check_bool "volatile recorded" true f.Stm_ir.Ir.f_volatile;
  let _, g = Stm_ir.Ir.instance_field_index prog "C" "g" in
  check_bool "non-volatile" false g.Stm_ir.Ir.f_volatile

let jt_shadowing_scopes () =
  let out =
    run_jt
      {|
class Main { static void main() {
  int x = 1;
  for (int i = 0; i < 2; i++) {
    int y = x + i;
    print(y);
  }
  { int z = 10; print(z + x); }
  print(x);
} }|}
  in
  Alcotest.(check (list string)) "block scoping" [ "1"; "2"; "11"; "1" ]
    out.Stm_ir.Interp.prints

let jt_synchronized_reentrant () =
  let out =
    run_jt
      {|
class L { int v; }
class Main {
  static void main() {
    L l = new L();
    synchronized (l) {
      synchronized (l) { l.v = 5; }
      l.v = l.v + 1;
    }
    print(l.v);
  }
}|}
  in
  Alcotest.(check (list string)) "reentrant monitors" [ "6" ]
    out.Stm_ir.Interp.prints

(* ------------------------------------------------------------------ *)
(* Feature interactions                                                *)
(* ------------------------------------------------------------------ *)

let in_sim f =
  let result = Sched.run f in
  (match result.Sched.exns with
  | [] -> ()
  | (tid, e) :: _ ->
      Alcotest.failf "thread %d raised %s" tid (Printexc.to_string e));
  check_bool "completed" true (result.Sched.status = Sched.Completed)

let with_stm ~cfg f =
  Heap.reset ();
  Stm.install cfg;
  Fun.protect ~finally:Stm.uninstall (fun () -> in_sim f)

let geti o f = Stm.to_int (Stm.read o f)

let strong_hides_granularity () =
  (* under strong atomicity coarse granules must NOT lose concurrent
     non-transactional updates: "a strongly-atomic system hides this
     granularity" (end of Section 2.4) *)
  let cfg = Config.(with_granule 2 eager_strong) in
  with_stm ~cfg (fun () ->
      let o = Stm.alloc_public ~cls:"C" 2 in
      Stm.write o 0 (Stm.vint 0);
      Stm.write o 1 (Stm.vint 0);
      let t =
        Sched.spawn (fun () ->
            for _ = 1 to 10 do
              (try
                 Stm.atomic (fun () ->
                     Stm.write o 0 (Stm.vint (geti o 0 + 1));
                     if geti o 0 mod 3 = 0 then failwith "forced abort")
               with Failure _ -> ());
              Sched.yield ()
            done)
      in
      let u =
        Sched.spawn (fun () ->
            for i = 1 to 10 do
              Stm.write o 1 (Stm.vint i);
              Sched.tick 40;
              Sched.yield ()
            done)
      in
      Sched.join t;
      Sched.join u;
      check_int "non-txn writes to the adjacent field survive aborts" 10
        (geti o 1))

let wound_wait_lazy () =
  let cfg = Config.(with_cm Stm_cm.Policy.Wound_wait lazy_weak) in
  with_stm ~cfg (fun () ->
      let o = Stm.alloc_public ~cls:"Ctr" 1 in
      Stm.write o 0 (Stm.vint 0);
      let worker () =
        for _ = 1 to 20 do
          Stm.atomic (fun () -> Stm.write o 0 (Stm.vint (geti o 0 + 1)))
        done
      in
      let ts = List.init 5 (fun _ -> Sched.spawn worker) in
      List.iter Sched.join ts;
      check_int "lazy + wound-wait counts correctly" 100 (geti o 0))

let quiesce_lazy_writeback_order () =
  (* with quiescence, lazy write-backs are serialized in commit order:
     after both transactions commit, the one serialized second wins *)
  let cfg = Config.(with_quiescence lazy_weak) in
  with_stm ~cfg (fun () ->
      let o = Stm.alloc_public ~cls:"C" 1 in
      Stm.write o 0 (Stm.vint 0);
      let w v () = Stm.atomic (fun () -> Stm.write o 0 (Stm.vint v)) in
      let a = Sched.spawn (w 1) in
      let b = Sched.spawn (w 2) in
      Sched.join a;
      Sched.join b;
      let final = geti o 0 in
      check_bool "one of the committed values" true (final = 1 || final = 2))

let dea_aggregation_private_group () =
  (* an aggregated group over a private object takes the fast path: no
     atomic operations at all *)
  let src =
    {|
class C { int a; int b; }
class Main {
  static C alloc() { return new C(); }
  static void main() {
    C c = alloc();
    c.a = 1;
    c.b = c.a + 1;
    print(c.b);
  }
}|}
  in
  let prog = Stm_jtlang.Jt.compile src in
  ignore (Stm_jit.Aggregate.run prog);
  let out =
    Stm_ir.Interp.run ~cfg:Config.(with_dea eager_strong) prog
  in
  Alcotest.(check (list string)) "result" [ "2" ] out.Stm_ir.Interp.prints;
  check_int "no atomics on private aggregated group" 0
    out.Stm_ir.Interp.stats.Stats.atomic_ops

let retry_with_multiple_waiters () =
  with_stm ~cfg:Config.eager_weak (fun () ->
      let flag = Stm.alloc_public ~cls:"Flag" 1 in
      let got = Stm.alloc_public ~cls:"Got" 1 in
      Stm.write flag 0 (Stm.vint 0);
      Stm.write got 0 (Stm.vint 0);
      let waiter () =
        Stm.atomic (fun () ->
            if geti flag 0 = 0 then Stm.retry ()
            else Stm.write got 0 (Stm.vint (geti got 0 + 1)))
      in
      let a = Sched.spawn waiter in
      let b = Sched.spawn waiter in
      Sched.tick 500;
      Sched.yield ();
      Stm.atomic (fun () -> Stm.write flag 0 (Stm.vint 1));
      Sched.join a;
      Sched.join b;
      check_int "both waiters woke and ran" 2 (geti got 0))

let case name f = Alcotest.test_case name `Quick f

let suite =
  [
    ( "more:sched",
      [
        case "random policies differ" random_policies_differ;
        case "min-clock runs all" min_clock_prefers_behind;
      ] );
    ( "more:explorer",
      [
        case "dfs deterministic" explorer_deterministic;
        case "pct deterministic per seed" pct_deterministic_per_seed;
      ] );
    ( "more:jt",
      [
        case "nested atomic" jt_nested_atomic;
        case "recursion in txn" jt_deep_recursion_in_txn;
        case "volatile flag" jt_volatile_keeps_barrier;
        case "scoping" jt_shadowing_scopes;
        case "reentrant monitors" jt_synchronized_reentrant;
      ] );
    ( "more:interactions",
      [
        case "strong hides granularity" strong_hides_granularity;
        case "wound-wait x lazy" wound_wait_lazy;
        case "quiescence x lazy ordering" quiesce_lazy_writeback_order;
        case "dea x aggregation" dea_aggregation_private_group;
        case "retry with multiple waiters" retry_with_multiple_waiters;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Scheduler properties (qcheck)                                       *)
(* ------------------------------------------------------------------ *)

let sched_qcheck =
  let open QCheck in
  [
    (* makespan of independent threads under min-clock = max total work *)
    Test.make ~name:"sched: min-clock makespan = max thread work" ~count:100
      (list_of_size (Gen.int_range 1 6)
         (list_of_size (Gen.int_range 1 10) (int_range 1 50)))
      (fun works ->
        let r =
          Sched.run ~policy:Sched.Min_clock (fun () ->
              let ts =
                List.map
                  (fun w ->
                    Sched.spawn (fun () ->
                        List.iter
                          (fun c ->
                            Sched.tick c;
                            Sched.yield ())
                          w))
                  works
              in
              List.iter Sched.join ts)
        in
        let expectation =
          List.fold_left
            (fun acc w -> max acc (List.fold_left ( + ) 0 w))
            0 works
        in
        r.Sched.makespan = expectation);
    (* under any policy, total ticks are conserved in each thread *)
    Test.make ~name:"sched: completion under random policies" ~count:50
      (pair (int_range 0 1000) (int_range 1 5))
      (fun (seed, nthreads) ->
        let done_count = ref 0 in
        let r =
          Sched.run ~policy:(Sched.Random seed) (fun () ->
              let ts =
                List.init nthreads (fun i ->
                    Sched.spawn (fun () ->
                        for _ = 1 to 5 + i do
                          Sched.tick 3;
                          Sched.yield ()
                        done;
                        incr done_count))
              in
              List.iter Sched.join ts)
        in
        r.Sched.status = Sched.Completed && !done_count = nthreads);
    (* serializability of the STM counter under arbitrary random seeds *)
    Test.make ~name:"stm: counter exact under random schedules" ~count:40
      (int_range 0 10_000) (fun seed ->
        Heap.reset ();
        Stm.install Config.eager_strong;
        Fun.protect ~finally:Stm.uninstall (fun () ->
            let total = ref (-1) in
            let r =
              Sched.run ~policy:(Sched.Random seed) (fun () ->
                  let o = Stm.alloc_public ~cls:"C" 1 in
                  Stm.write o 0 (Stm.vint 0);
                  let w () =
                    for _ = 1 to 10 do
                      Stm.atomic (fun () ->
                          Stm.write o 0
                            (Stm.vint (Stm.to_int (Stm.read o 0) + 1)))
                    done
                  in
                  let ts = List.init 3 (fun _ -> Sched.spawn w) in
                  List.iter Sched.join ts;
                  total := Stm.to_int (Stm.read o 0))
            in
            r.Sched.status = Sched.Completed && r.Sched.exns = [] && !total = 30));
  ]

let suite = suite @ [ ("more:qcheck", List.map QCheck_alcotest.to_alcotest sched_qcheck) ]

(* ------------------------------------------------------------------ *)
(* Full-stack Jt exploration                                           *)
(* ------------------------------------------------------------------ *)

let explore_jt src ~cfg =
  let prog = Stm_jtlang.Jt.compile src in
  let make () =
    let main, observe = Stm_ir.Interp.explorer_instance prog in
    { Stm_litmus.Explorer.main; observe }
  in
  Stm_litmus.Explorer.explore ~max_runs:3000 ~cfg ~make ()

let jt_explore_racy_program () =
  let e =
    explore_jt ~cfg:Config.eager_weak
      {|
class G { static int x; }
class W extends Thread { int v; void run() { G.x = v; } }
class Main { static void main() {
  W a = new W(); a.v = 1;
  W b = new W(); b.v = 2;
  int t1 = spawn(a);
  int t2 = spawn(b);
  join(t1); join(t2);
  print(G.x);
} }|}
  in
  check_bool "both orders found" true
    (Stm_litmus.Explorer.observed e (fun s -> s = "1")
    && Stm_litmus.Explorer.observed e (fun s -> s = "2"))

let jt_explore_transactional_program_single_outcome () =
  let e =
    explore_jt ~cfg:Config.eager_strong
      {|
class G { static int x; }
class W extends Thread { void run() { atomic { G.x = G.x + 1; } } }
class Main { static void main() {
  int a = spawn(new W());
  int b = spawn(new W());
  join(a); join(b);
  print(G.x);
} }|}
  in
  Alcotest.(check (list (pair string int)))
    "single outcome across all schedules"
    [ ("2", (List.filter (fun (o, _) -> o = "2") e.Stm_litmus.Explorer.outcomes
             |> List.map snd |> List.fold_left ( + ) 0)) ]
    e.Stm_litmus.Explorer.outcomes

let suite =
  suite
  @ [
      ( "more:jt-explore",
        [
          case "racy program: both outcomes" jt_explore_racy_program;
          case "transactional program: one outcome"
            jt_explore_transactional_program_single_outcome;
        ] );
    ]
