(* Interpreter-level tests: runtime errors, barrier-note semantics, the
   doomed-transaction fault recovery, cost accounting, and IR utilities. *)

open Stm_ir

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run ?(params = []) ?(cfg = Stm_core.Config.eager_weak) src =
  Interp.run ~cfg ~params (Stm_jtlang.Jt.compile src)

let string_contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec go i =
    i + ln <= lh && (String.sub haystack i ln = needle || go (i + 1))
  in
  ln = 0 || go 0

let expect_thread_error src fragment =
  let out = run src in
  match out.Interp.result.Stm_runtime.Sched.exns with
  | (_, Interp.Interp_error msg) :: _ ->
      if not (string_contains msg fragment) then
        Alcotest.failf "error %S does not mention %S" msg fragment
  | (_, e) :: _ -> Alcotest.failf "unexpected exn %s" (Printexc.to_string e)
  | [] -> Alcotest.fail "expected a runtime error"

let interp_div_by_zero () =
  expect_thread_error
    "class Main { static void main() { int z = 0; print(1 / z); } }"
    "division by zero"

let interp_bounds () =
  expect_thread_error
    "class Main { static void main() { int[] a = new int[2]; print(a[5]); } }"
    "out of bounds"

let interp_null_deref () =
  expect_thread_error
    "class C { int x; } class Main { static void main() { C c = null; print(c.x); } }"
    "null"

let interp_negative_length () =
  expect_thread_error
    "class Main { static void main() { int n = 0 - 3; int[] a = new int[n]; print(a.length); } }"
    "negative"

let interp_missing_param () =
  expect_thread_error
    {|class Main { static void main() { print(param("nope")); } }|}
    "param"

let interp_assert_failure () =
  expect_thread_error
    "class Main { static void main() { assert(1 == 2); } }"
    "assertion"

let interp_instr_count () =
  let out = run "class Main { static void main() { int s = 0; for (int i = 0; i < 10; i++) { s += i; } print(s); } }" in
  (* 2 before the loop, 11 tests, 10 bodies of 4 (add, three for i++ and
     the back edge), 3 for the exit and the print: every instruction
     counts once, ticks one ALU cycle, and nothing else does *)
  check_int "instructions counted" 87 out.Interp.instrs;
  check_int "one cycle each" 87 out.Interp.result.Stm_runtime.Sched.makespan

(* One call site whose receiver alternates between three classes, one of
   which inherits the method: the call target cache misses on most
   calls and must resolve each receiver afresh. *)
let interp_polymorphic_call_site () =
  let src =
    {|
class Shape { int area() { return 0; } }
class Sq extends Shape { int s; int area() { return s * s; } }
class Rect extends Shape { int w; int h; int area() { return w * h; } }
class Cube extends Sq { }
class Main { static void main() {
  Sq a = new Sq(); a.s = 3;
  Rect b = new Rect(); b.w = 2; b.h = 5;
  Cube c = new Cube(); c.s = 4;
  int total = 0;
  for (int i = 0; i < 12; i++) {
    Shape x = a;
    if (i % 2 == 1) { x = b; }
    if (i % 3 == 2) { x = c; }
    total = total + x.area();
  }
  print(total);
} }|}
  in
  let out = run src in
  (* a, b, c, b, a, b, c, b, a, b, c, b: 3 * 9 + 6 * 10 + 3 * 16 *)
  Alcotest.(check (list string)) "each receiver's method" [ "140" ] out.Interp.prints;
  check_int "instructions" 291 out.Interp.instrs;
  check_int "cycles" 409 out.Interp.result.Stm_runtime.Sched.makespan

(* Methods built directly in IR, as a JIT pass could leave them. *)
let hand_built_main body =
  let prog = Ir.create_program () in
  Ir.add_class prog
    {
      Ir.cname = "Main";
      super = None;
      fields = [];
      meths =
        [
          {
            Ir.mcls = "Main";
            mname = "main";
            m_static = true;
            params = [];
            ret = Ir.Tvoid;
            nregs = 1;
            body;
            reg_names = [| "x" |];
          };
        ];
    };
  Interp.run ~cfg:Stm_core.Config.eager_weak prog

let expect_error (out : Interp.outcome) msg =
  match out.Interp.result.Stm_runtime.Sched.exns with
  | [ (_, Interp.Interp_error m) ] -> Alcotest.(check string) "error" msg m
  | (_, e) :: _ -> Alcotest.failf "unexpected exn %s" (Printexc.to_string e)
  | [] -> Alcotest.fail "expected a runtime error"

let interp_fell_off_the_end () =
  let out = hand_built_main [| Ir.Move (0, Ir.Cint 7); Ir.Print (Ir.Reg 0) |] in
  expect_error out "method Main::main fell off the end";
  Alcotest.(check (list string)) "body ran" [ "7" ] out.Interp.prints;
  check_int "two instructions" 2 out.Interp.instrs

let interp_unknown_static_method () =
  let out =
    hand_built_main
      [|
        Ir.Call { dst = None; target = Ir.Static ("Main", "nope"); this = None; args = [] };
        Ir.Ret None;
      |]
  in
  expect_error out "unknown method Main::nope"

let interp_return_in_atomic () =
  let out =
    hand_built_main
      [| Ir.AtomicBegin 2; Ir.Ret None; Ir.AtomicEnd; Ir.Ret None |]
  in
  expect_error out "return out of atomic block"

(* The same explorer instance run under strong, weak and strong again:
   each run compiles for the configuration the explorer installed, so
   its counters equal those of a fresh instance. The aggregation pass
   makes the difference visible: its acquires apply under strong
   atomicity only. *)
let interp_explorer_instance_reconfigured () =
  let prog =
    Stm_jtlang.Jt.compile
      {|
class C { int a; int b; }
class G { static C shared; }
class W extends Thread {
  void run() {
    C c = G.shared;
    for (int i = 0; i < 3; i++) { c.a = c.a + 1; c.b = c.b + c.a; }
    atomic { c.a = c.a + 10; }
  }
}
class Main { static void main() {
  G.shared = new C();
  int t = spawn(new W());
  C c = G.shared;
  for (int i = 0; i < 3; i++) { c.b = c.b + c.a; c.a = c.a + 2; }
  join(t);
  print(c.a);
} }|}
  in
  check_bool "something aggregated" true (Stm_jit.Aggregate.run prog > 0);
  let counters cfg main = Stm_core.Stats.to_assoc (snd (Stm_core.Stm.run ~cfg main)) in
  let main, observe = Interp.explorer_instance prog in
  List.iter
    (fun cfg ->
      let fresh, _ = Interp.explorer_instance prog in
      Alcotest.(check (list (pair string int)))
        "counters of a fresh instance" (counters cfg fresh) (counters cfg main))
    Stm_core.Config.[ eager_strong; eager_weak; eager_strong ];
  Alcotest.(check string) "three runs" "19|19|19" (observe ())

let interp_makespan_positive () =
  let out = run "class Main { static void main() { print(1); } }" in
  check_bool "cycles charged" true
    (out.Interp.result.Stm_runtime.Sched.makespan > 0)

let interp_strong_costs_more () =
  let src =
    {|class C { int v; }
class Main { static void main() {
  C c = new C();
  for (int i = 0; i < 100; i++) { c.v = c.v + 1; }
  print(c.v);
} }|}
  in
  let weak = run ~cfg:Stm_core.Config.eager_weak src in
  let strong = run ~cfg:Stm_core.Config.eager_strong src in
  Alcotest.(check (list string))
    "same output" weak.Interp.prints strong.Interp.prints;
  check_bool "strong slower" true
    (strong.Interp.result.Stm_runtime.Sched.makespan
    > weak.Interp.result.Stm_runtime.Sched.makespan)

let interp_doomed_fault_recovers () =
  (* regression for the doomed-transaction fault: a transaction reads a
     stale index, faults on the array access, must validate-abort-retry
     rather than crash *)
  let src =
    {|
class Q { static int[] data; static int top; }
class W extends Thread {
  int got;
  void run() {
    for (int i = 0; i < 20; i++) {
      int t = 0;
      atomic {
        if (Q.top > 0) {
          Q.top = Q.top - 1;
          t = Q.data[Q.top];
        }
      }
      got = got + t;
    }
  }
}
class Main { static void main() {
  Q.data = new int[40];
  Q.top = 40;
  for (int i = 0; i < 40; i++) { Q.data[i] = 1; }
  int[] ts = new int[4];
  for (int i = 0; i < 4; i++) { W w = new W(); ts[i] = spawn(w); }
  for (int i = 0; i < 4; i++) { join(ts[i]); }
  print(Q.top);
} }|}
  in
  let out = run ~cfg:Stm_core.Config.eager_weak src in
  (match out.Interp.result.Stm_runtime.Sched.exns with
  | [] -> ()
  | (_, e) :: _ -> Alcotest.failf "crashed: %s" (Printexc.to_string e));
  Alcotest.(check (list string)) "all popped" [ "0" ] out.Interp.prints

let interp_nobarrier_note_skips_barrier () =
  let src =
    {|class C { int v; }
class Main { static void main() {
  C c = new C();
  for (int i = 0; i < 50; i++) { c.v = c.v + 1; }
  print(c.v);
} }|}
  in
  let prog = Stm_jtlang.Jt.compile src in
  (* remove every barrier by hand *)
  Ir.iter_methods prog (fun m ->
      Ir.iter_access_notes m (fun _ note ->
          note.Ir.barrier <- Ir.Bar_removed "test"));
  let out = Interp.run ~cfg:Stm_core.Config.eager_strong prog in
  check_int "no barriers executed" 0 out.Interp.stats.Stm_core.Stats.barrier_reads;
  check_int "no barrier writes" 0 out.Interp.stats.Stm_core.Stats.barrier_writes

let interp_agg_note_semantics () =
  (* an aggregated group acquires once per group instead of once per
     access, and computes the same result *)
  let src =
    {|class C { int a; int b; }
class Main { static void main() {
  C c = new C();
  for (int i = 0; i < 50; i++) {
    c.a = c.a + 1;
    c.b = c.b + c.a;
  }
  print(c.b);
} }|}
  in
  let plain = Interp.run ~cfg:Stm_core.Config.eager_strong (Stm_jtlang.Jt.compile src) in
  let prog = Stm_jtlang.Jt.compile src in
  let folded = Stm_jit.Aggregate.run prog in
  check_bool "something aggregated" true (folded >= 2);
  let agg = Interp.run ~cfg:Stm_core.Config.eager_strong prog in
  Alcotest.(check (list string)) "same output" plain.Interp.prints agg.Interp.prints;
  check_bool "fewer atomic operations" true
    (agg.Interp.stats.Stm_core.Stats.atomic_ops
    < plain.Interp.stats.Stm_core.Stats.atomic_ops)

(* ------------------------------------------------------------------ *)
(* IR utilities                                                        *)
(* ------------------------------------------------------------------ *)

let ir_layout () =
  let prog =
    Stm_jtlang.Jt.compile
      "class A { int x; int y; } class B extends A { int z; } class Main { static void main() { } }"
  in
  let idx, f = Ir.instance_field_index prog "B" "z" in
  check_int "inherited fields first" 2 idx;
  check_bool "field name" true (f.Ir.fname = "z");
  let idx, _ = Ir.instance_field_index prog "B" "x" in
  check_int "super field index" 0 idx

let ir_static_resolution () =
  let prog =
    Stm_jtlang.Jt.compile
      "class A { static int s; } class B extends A { } class Main { static void main() { } }"
  in
  let dcls, idx, _ = Ir.static_field_index prog "B" "s" in
  Alcotest.(check string) "resolved to declaring class" "A" dcls;
  check_int "index" 0 idx

let ir_subclass () =
  let prog =
    Stm_jtlang.Jt.compile
      "class A { } class B extends A { } class C extends B { } class Main { static void main() { } }"
  in
  check_bool "C <= A" true (Ir.is_subclass prog "C" "A");
  check_bool "A not <= C" false (Ir.is_subclass prog "A" "C");
  check_bool "reflexive" true (Ir.is_subclass prog "B" "B")

let ir_thread_class () =
  let prog =
    Stm_jtlang.Jt.compile
      "class W extends Thread { void run() { } } class Main { static void main() { } }"
  in
  check_bool "W is a thread class" true (Ir.is_thread_class prog "W");
  check_bool "Thread itself is not" false (Ir.is_thread_class prog "Thread");
  check_bool "Main is not" false (Ir.is_thread_class prog "Main")

let cfg_blocks () =
  let prog =
    Stm_jtlang.Jt.compile
      "class Main { static void main() { int s = 0; for (int i = 0; i < 3; i++) { s += i; } print(s); } }"
  in
  let m = Option.get (Ir.find_method prog "Main" "main") in
  let cfg = Stm_jit.Cfg.build m in
  check_bool "several blocks" true (Array.length cfg.Stm_jit.Cfg.blocks >= 3);
  (* every pc belongs to exactly one block *)
  Array.iteri
    (fun i (b : Stm_jit.Cfg.block) ->
      for pc = b.Stm_jit.Cfg.start to b.Stm_jit.Cfg.stop - 1 do
        check_int "block_of consistent" i cfg.Stm_jit.Cfg.block_of.(pc)
      done)
    cfg.Stm_jit.Cfg.blocks;
  (* successor targets are valid block indices *)
  let succ = Stm_jit.Cfg.successors m cfg in
  Array.iter
    (List.iter (fun s ->
         check_bool "valid successor" true
           (s >= 0 && s < Array.length cfg.Stm_jit.Cfg.blocks)))
    succ

let case name f = Alcotest.test_case name `Quick f

let suite =
  [
    ( "interp:errors",
      [
        case "division by zero" interp_div_by_zero;
        case "array bounds" interp_bounds;
        case "null dereference" interp_null_deref;
        case "negative array length" interp_negative_length;
        case "missing param" interp_missing_param;
        case "assert failure" interp_assert_failure;
        case "fell off the end" interp_fell_off_the_end;
        case "return in atomic block" interp_return_in_atomic;
        case "unknown static method" interp_unknown_static_method;
      ] );
    ( "interp:execution",
      [
        case "instruction counting" interp_instr_count;
        case "polymorphic call site" interp_polymorphic_call_site;
        case "explorer instance reconfigured" interp_explorer_instance_reconfigured;
        case "makespan positive" interp_makespan_positive;
        case "strong costs more" interp_strong_costs_more;
        case "doomed txn fault recovery" interp_doomed_fault_recovers;
        case "nobarrier notes" interp_nobarrier_note_skips_barrier;
        case "aggregation semantics" interp_agg_note_semantics;
      ] );
    ( "interp:ir",
      [
        case "instance layout" ir_layout;
        case "static resolution" ir_static_resolution;
        case "subclassing" ir_subclass;
        case "thread classes" ir_thread_class;
        case "cfg blocks" cfg_blocks;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Lazy class initialization (Section 5.3 semantics) + profiling       *)
(* ------------------------------------------------------------------ *)

let clinit_runs_on_first_static_access () =
  let out =
    run
      {|
class G {
  static int x;
  static void clinit() { G.x = 41; }
}
class Main { static void main() { print(G.x + 1); } }|}
  in
  Alcotest.(check (list string)) "initialized before first read" [ "42" ]
    out.Interp.prints

let clinit_runs_once () =
  let out =
    run
      {|
class G {
  static int runs;
  static int x;
  static void clinit() { G.runs = G.runs + 1; G.x = 1; }
}
class Main { static void main() {
  int a = G.x;
  int b = G.x;
  G.x = 7;
  print(G.runs + a + b);
} }|}
  in
  (* one initialization + two reads of 1 *)
  Alcotest.(check (list string)) "single run" [ "3" ] out.Interp.prints

let clinit_triggered_by_new () =
  let out =
    run
      {|
class C {
  int v;
  static int seed;
  static void clinit() { C.seed = 9; }
}
class Main { static void main() {
  C c = new C();
  c.v = C.seed;
  print(c.v);
} }|}
  in
  Alcotest.(check (list string)) "new triggers clinit" [ "9" ] out.Interp.prints

let clinit_inside_transaction () =
  (* first use inside an atomic block: the initializer runs in the
     transaction, which is exactly why NAIT needs the exemption *)
  let out =
    run ~cfg:Stm_core.Config.eager_strong
      {|
class T {
  static int[] table;
  static void clinit() {
    T.table = new int[4];
    for (int i = 0; i < 4; i++) { T.table[i] = i * i; }
  }
}
class Main { static void main() {
  int r = 0;
  atomic { r = T.table[3]; }
  print(r);
} }|}
  in
  Alcotest.(check (list string)) "clinit in txn" [ "9" ] out.Interp.prints

let clinit_once_across_retry () =
  (* the first [new C] and the first read of [D.k] run in a transaction
     that retries until the setter's write: each initializer runs on the
     first attempt only *)
  let out =
    run ~cfg:Stm_core.Config.eager_strong
      {|
class C { int v; static void clinit() { print("clinit C"); } }
class D { static int k; static void clinit() { print("clinit D"); D.k = 7; } }
class G { static int flag; }
class Setter extends Thread { void run() { tick(5000); G.flag = 1; } }
class Main { static void main() {
  int t = spawn(new Setter());
  int seen = 0;
  atomic {
    C c = new C();
    seen = D.k;
    if (G.flag == 0) { retry(); }
  }
  join(t);
  print(G.flag);
} }|}
  in
  check_int "the transaction retried" 1 out.Interp.stats.Stm_core.Stats.retries;
  Alcotest.(check (list string))
    "each clinit once"
    [ {|"clinit C"|}; {|"clinit D"|}; "1" ]
    out.Interp.prints

let profile_counts_sites () =
  let prog =
    Stm_jtlang.Jt.compile
      {|
class C { int v; }
class G { static C shared; }
class Main { static void main() {
  C c = new C();
  G.shared = c;
  for (int i = 0; i < 37; i++) { c.v = c.v + 1; }
  print(c.v);
} }|}
  in
  let out =
    Interp.run ~profile:true ~cfg:Stm_core.Config.eager_strong prog
  in
  Alcotest.(check bool) "profile non-empty" true (out.Interp.site_profile <> []);
  (* hottest first *)
  let hits = List.map snd out.Interp.site_profile in
  Alcotest.(check (list int)) "sorted descending" (List.sort (fun a b -> compare b a) hits) hits;
  (* the loop body accesses dominate: 37 reads + 37 writes *)
  Alcotest.(check int) "hottest site count" 37 (List.hd hits);
  let off = Interp.run ~cfg:Stm_core.Config.eager_strong prog in
  Alcotest.(check (list (pair int int))) "off by default" [] off.Interp.site_profile

let suite =
  suite
  @ [
      ( "interp:clinit",
        [
          case "first static access" clinit_runs_on_first_static_access;
          case "runs once" clinit_runs_once;
          case "triggered by new" clinit_triggered_by_new;
          case "inside transaction" clinit_inside_transaction;
          case "once across a retry" clinit_once_across_retry;
        ] );
      ("interp:profile", [ case "counts sites" profile_counts_sites ]);
    ]
