(* The Figure 6 matrix as a test suite: every anomaly/mode cell checked
   against the paper's table by systematic exploration, plus explorer unit
   tests and the granularity / quiescence ablations. *)

open Stm_litmus

let check_bool = Alcotest.(check bool)

(* One alcotest case per Figure 6 cell. *)
let cell_case ?preemption_bound program mode =
  let name =
    Printf.sprintf "%s [%s]" program.Programs.name (Modes.name mode)
  in
  Alcotest.test_case name `Quick (fun () ->
      let cell = Matrix.run_cell ?preemption_bound program mode in
      if cell.Matrix.expected <> cell.Matrix.observed then
        Alcotest.failf "%s: paper says %b, explorer found %b (runs=%d%s)" name
          cell.Matrix.expected cell.Matrix.observed cell.Matrix.runs
          (if cell.Matrix.truncated then ", truncated" else ""))

let fig6_cases =
  List.concat_map
    (fun program -> List.map (cell_case program) Modes.all_fig6)
    Programs.fig6_rows

let extras_cases =
  List.concat_map
    (fun program -> List.map (cell_case program) Modes.all_fig6)
    Programs.extras

let privatization_cases =
  List.map (cell_case Programs.privatization)
    (Modes.all_fig6
    @ [
        Modes.Weak_quiesce Stm_core.Config.Eager;
        Modes.Weak_quiesce Stm_core.Config.Lazy;
      ])

(* The four multi-version columns over every classic litmus program:
   weak mvcc is blind to plain stores (nr/gir/ilu/glu), strong closes
   them; the racing-commit shapes (mi-ww, privatization) reappear
   exactly at snapshot isolation, where commit-time read validation is
   off. *)
(* Bound 3, not the usual 2: the snapshot-isolation privatization race
   needs three preemptions (park the racing committer mid-transaction,
   run the privatizer through its first plain read, then let the commit
   land between the two reads). *)
let mvcc_cases =
  List.concat_map
    (fun program ->
      List.map (cell_case ~preemption_bound:3 program) Modes.all_mvcc)
    (Programs.fig6_rows @ [ Programs.privatization ] @ Programs.extras)

(* The four timestamp-validation columns over the Figure 6 rows plus the
   extras: global-commit-clock validation is a performance scheme, so
   every cell must match the corresponding base column verbatim. *)
let timestamp_cases =
  List.concat_map
    (fun program -> List.map (cell_case program) Modes.all_timestamp)
    (Programs.fig6_rows @ Programs.extras)

(* The SI litmus programs under all nine columns: write skew must appear
   in the two snapshot-isolation columns and nowhere else; long fork and
   the read-only snapshot are all-"no" rows. *)
let si_cases =
  List.concat_map
    (fun program ->
      List.map (cell_case program) (Modes.all_fig6 @ Modes.all_mvcc))
    Programs.si_rows

(* Granularity ablation: with field-granular versioning (granule = 1) the
   Section 2.4 anomalies disappear even under weak atomicity. *)
let granule_ablation program mode () =
  let cell = Matrix.run_cell ~granule_override:1 program mode in
  check_bool
    (program.Programs.name ^ " disappears at granule=1")
    false cell.Matrix.observed

(* Quiescence ablation: quiescence fixes privatization but NOT the
   speculation anomalies (Section 3.4 discussion). *)
let quiesce_does_not_fix_sdr () =
  let cell =
    Matrix.run_cell Programs.speculative_dirty_read
      (Modes.Weak_quiesce Stm_core.Config.Eager)
  in
  check_bool "SDR still observable under quiescence" true cell.Matrix.observed

let quiesce_does_not_fix_slu () =
  let cell =
    Matrix.run_cell Programs.speculative_lost_update
      (Modes.Weak_quiesce Stm_core.Config.Eager)
  in
  check_bool "SLU still observable under quiescence" true cell.Matrix.observed

(* ------------------------------------------------------------------ *)
(* Explorer unit tests                                                 *)
(* ------------------------------------------------------------------ *)

(* A two-thread store buffer-free race: both outcomes must be found. *)
let explorer_finds_both_orders () =
  let make () =
    let result = ref 0 in
    let main () =
      let x = ref 0 in
      let a =
        Stm_runtime.Sched.spawn (fun () ->
            Stm_runtime.Sched.yield ();
            x := 1)
      in
      let b =
        Stm_runtime.Sched.spawn (fun () ->
            Stm_runtime.Sched.yield ();
            x := 2)
      in
      Stm_runtime.Sched.join a;
      Stm_runtime.Sched.join b;
      result := !x
    in
    let observe () = string_of_int !result in
    { Explorer.main; observe }
  in
  let e =
    Explorer.explore ~preemption_bound:2 ~cfg:Stm_core.Config.eager_weak ~make
      ()
  in
  check_bool "found x=1" true (Explorer.observed e (fun s -> s = "1"));
  check_bool "found x=2" true (Explorer.observed e (fun s -> s = "2"));
  check_bool "multiple runs" true (e.Explorer.runs > 1)

let explorer_stop_when () =
  let make () =
    let n = ref 0 in
    {
      Explorer.main =
        (fun () ->
          let t = Stm_runtime.Sched.spawn (fun () -> Stm_runtime.Sched.yield ()) in
          Stm_runtime.Sched.join t;
          incr n);
      observe = (fun () -> "done");
    }
  in
  let e =
    Explorer.explore ~stop_when:(fun s -> s = "done")
      ~cfg:Stm_core.Config.eager_weak ~make ()
  in
  check_bool "stopped after first hit" true (e.Explorer.runs = 1)

let explorer_bound_zero_single_default () =
  (* preemption bound 0: only the default schedule runs *)
  let make () =
    let log = ref [] in
    {
      Explorer.main =
        (fun () ->
          let mk id () =
            Stm_runtime.Sched.yield ();
            log := id :: !log
          in
          let a = Stm_runtime.Sched.spawn (mk 1) in
          let b = Stm_runtime.Sched.spawn (mk 2) in
          Stm_runtime.Sched.join a;
          Stm_runtime.Sched.join b);
      observe = (fun () -> String.concat "" (List.map string_of_int !log));
    }
  in
  let e =
    Explorer.explore ~preemption_bound:0 ~cfg:Stm_core.Config.eager_weak ~make
      ()
  in
  check_bool "one schedule" true (e.Explorer.runs = 1);
  check_bool "one outcome" true (List.length e.Explorer.outcomes = 1)

(* Contention management must not change which anomalies are expressible:
   the Figure 6 matrix is a golden image that every policy must
   reproduce. Policies only reorder who wins a conflict, never whether an
   isolation violation can happen. *)
let fig6_golden_under policy () =
  let cells = Matrix.fig6 ~cm:policy () in
  List.iter
    (fun cell ->
      if cell.Matrix.expected <> cell.Matrix.observed then
        Alcotest.failf "%s [%s] under %s: paper says %b, explorer found %b"
          cell.Matrix.program.Programs.name
          (Modes.name cell.Matrix.mode)
          (Stm_cm.Policy.to_string policy)
          cell.Matrix.expected cell.Matrix.observed)
    cells

let cm_golden_cases =
  List.filter_map
    (fun policy ->
      if policy = Stm_cm.Policy.Suicide then None
        (* the default; already covered cell-by-cell above *)
      else
        Some
          (Alcotest.test_case
             ("fig6 golden under " ^ Stm_cm.Policy.to_string policy)
             `Quick (fig6_golden_under policy)))
    Stm_cm.Policy.all

let explorer_counts_outcomes () =
  let make () =
    { Explorer.main = (fun () -> ()); observe = (fun () -> "only") }
  in
  let e = Explorer.explore ~cfg:Stm_core.Config.eager_weak ~make () in
  Alcotest.(check (list (pair string int)))
    "outcome table"
    [ ("only", e.Explorer.runs) ]
    e.Explorer.outcomes

let case name f = Alcotest.test_case name `Quick f

let suite =
  [
    ("litmus:fig6", fig6_cases);
    ("litmus:privatization", privatization_cases);
    ("litmus:extras", extras_cases);
    ("litmus:mvcc", mvcc_cases);
    ("litmus:timestamp", timestamp_cases);
    ("litmus:si", si_cases);
    ("litmus:cm-golden", cm_golden_cases);
    ( "litmus:ablations",
      [
        Alcotest.test_case "GLU gone at granule=1" `Quick
          (granule_ablation Programs.granular_lost_update
             (Modes.Weak Stm_core.Config.Eager));
        Alcotest.test_case "GIR gone at granule=1" `Quick
          (granule_ablation Programs.granular_inconsistent_read
             (Modes.Weak Stm_core.Config.Lazy));
        case "quiescence does not fix SDR" quiesce_does_not_fix_sdr;
        case "quiescence does not fix SLU" quiesce_does_not_fix_slu;
      ] );
    ( "litmus:explorer",
      [
        case "finds both orders" explorer_finds_both_orders;
        case "stop_when" explorer_stop_when;
        case "bound 0 = default schedule" explorer_bound_zero_single_default;
        case "outcome counting" explorer_counts_outcomes;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* PCT: an independent method must agree with the DFS on Figure 6      *)
(* ------------------------------------------------------------------ *)

let pct_cell program mode expected () =
  let cfg = Modes.config ~granule:program.Programs.needs_granule mode in
  let e =
    Explorer.explore_pct ~runs:800 ~depth:3
      ~stop_when:program.Programs.is_anomalous ~cfg
      ~make:(fun () -> program.Programs.build (Modes.harness mode cfg))
      ()
  in
  let observed = Explorer.observed e program.Programs.is_anomalous in
  check_bool
    (Printf.sprintf "PCT %s [%s]" program.Programs.name (Modes.name mode))
    expected observed

let pct_cases =
  (* a representative subset: one "yes" and one "no" per anomaly family *)
  [
    Alcotest.test_case "pct: nr yes under weak-eager" `Quick
      (pct_cell Programs.non_repeatable_read (Modes.Weak Stm_core.Config.Eager) true);
    Alcotest.test_case "pct: nr no under strong-eager" `Quick
      (pct_cell Programs.non_repeatable_read (Modes.Strong Stm_core.Config.Eager) false);
    Alcotest.test_case "pct: idr yes under weak-eager" `Quick
      (pct_cell Programs.intermediate_dirty_read (Modes.Weak Stm_core.Config.Eager) true);
    Alcotest.test_case "pct: idr no under weak-lazy" `Quick
      (pct_cell Programs.intermediate_dirty_read (Modes.Weak Stm_core.Config.Lazy) false);
    Alcotest.test_case "pct: slu yes under weak-eager" `Quick
      (pct_cell Programs.speculative_lost_update (Modes.Weak Stm_core.Config.Eager) true);
    Alcotest.test_case "pct: mi-rw yes under weak-lazy" `Quick
      (pct_cell Programs.overlapped_writes (Modes.Weak Stm_core.Config.Lazy) true);
    Alcotest.test_case "pct: mi-rw no under strong-lazy" `Quick
      (pct_cell Programs.overlapped_writes (Modes.Strong Stm_core.Config.Lazy) false);
    Alcotest.test_case "pct: glu yes under weak-eager" `Quick
      (pct_cell Programs.granular_lost_update (Modes.Weak Stm_core.Config.Eager) true);
  ]

(* ------------------------------------------------------------------ *)
(* DPOR certification                                                  *)
(* ------------------------------------------------------------------ *)

let check_int = Alcotest.(check int)

(* Every Figure 6 cell re-derived by both engines at the same bound:
   the verdicts must agree with each other and with the paper, every
   "no" must rest on a complete race-reduced walk, and the reduction
   must pay for itself. The >= 5x run-ratio is asserted over the whole
   grid, not per cell — a cell whose enumerative tree already sits near
   the Mazurkiewicz optimum leaves the DPOR walk nothing to prune. *)
let dpor_certifies_fig6 () =
  let enum_runs = ref 0 and dpor_runs = ref 0 in
  List.iter
    (fun program ->
      List.iter
        (fun mode ->
          let name =
            Printf.sprintf "%s [%s]" program.Programs.name (Modes.name mode)
          in
          let c = Matrix.certify_cell program mode in
          if not (Matrix.cell_certified c) then
            Alcotest.failf "%s: enum=%b dpor=%b complete=%b" name
              c.Matrix.enum.Matrix.observed c.Matrix.dpor.Matrix.observed
              c.Matrix.complete;
          if c.Matrix.dpor.Matrix.observed <> c.Matrix.dpor.Matrix.expected
          then
            Alcotest.failf "%s: paper says %b, certified %b" name
              c.Matrix.dpor.Matrix.expected c.Matrix.dpor.Matrix.observed;
          (* a "no" verdict must be a certificate, not a timeout *)
          if not c.Matrix.dpor.Matrix.observed then
            check_bool (name ^ ": no-cell walk complete") true
              c.Matrix.complete;
          enum_runs := !enum_runs + c.Matrix.enum.Matrix.runs;
          dpor_runs := !dpor_runs + c.Matrix.dpor.Matrix.runs)
        Modes.all_fig6)
    Programs.fig6_rows;
  check_bool
    (Printf.sprintf "aggregate reduction >= 5x (enum=%d dpor=%d)" !enum_runs
       !dpor_runs)
    true
    (!enum_runs >= 5 * !dpor_runs)

(* The engine is deterministic: identical inputs walk an identical
   backtrack tree, run for run. *)
let dpor_deterministic () =
  let program = Programs.speculative_lost_update in
  let mode = Modes.Weak Stm_core.Config.Eager in
  let cfg = Modes.config ~granule:program.Programs.needs_granule mode in
  let once () =
    Explorer.explore_dpor ~preemption_bound:2 ~cfg
      ~make:(fun () -> program.Programs.build (Modes.harness mode cfg))
      ()
  in
  let a = once () in
  let b = once () in
  check_int "same runs" a.Explorer.exploration.Explorer.runs
    b.Explorer.exploration.Explorer.runs;
  check_int "same races" a.Explorer.races b.Explorer.races;
  check_bool "same completeness" a.Explorer.complete b.Explorer.complete;
  Alcotest.(check (list (pair string int)))
    "same outcome table" a.Explorer.exploration.Explorer.outcomes
    b.Explorer.exploration.Explorer.outcomes

(* Fuel-exhausted schedules are accounted in [livelocks] only, never
   double-counted as outcomes. The conditional infinite spin makes both
   completing and spinning schedules reachable, so the books must
   balance with both sides non-zero. *)
let spin_make () =
  let xr = ref None in
  let main () =
    let x = Stm_core.Stm.alloc_public ~cls:"X" 1 in
    Stm_runtime.Heap.set x 0 (Stm_runtime.Heap.Vint 0);
    xr := Some x;
    let setter =
      Stm_runtime.Sched.spawn (fun () ->
          Stm_core.Stm.write x 0 (Stm_core.Stm.vint 1))
    in
    let reader =
      Stm_runtime.Sched.spawn (fun () ->
          if Stm_core.Stm.to_int (Stm_core.Stm.read x 0) = 0 then
            while true do
              Stm_runtime.Sched.yield ()
            done)
    in
    Stm_runtime.Sched.join setter;
    Stm_runtime.Sched.join reader
  in
  let observe () =
    "x="
    ^ string_of_int
        (match Stm_runtime.Heap.get (Option.get !xr) 0 with
        | Stm_runtime.Heap.Vint n -> n
        | _ -> min_int)
  in
  { Explorer.main; observe }

let outcome_total (e : Explorer.exploration) =
  List.fold_left (fun acc (_, n) -> acc + n) 0 e.Explorer.outcomes

let explore_accounts_livelocks () =
  let e =
    Explorer.explore ~preemption_bound:2 ~max_runs:2_000 ~max_steps:200
      ~cfg:Stm_core.Config.eager_weak ~make:spin_make ()
  in
  check_bool "some schedules complete" true (e.Explorer.outcomes <> []);
  check_bool "some schedules spin out" true (e.Explorer.livelocks > 0);
  check_int "runs = livelocks + outcome counts" e.Explorer.runs
    (e.Explorer.livelocks + outcome_total e)

let explore_dpor_accounts_livelocks () =
  let d =
    Explorer.explore_dpor ~preemption_bound:2 ~max_runs:2_000 ~max_steps:200
      ~cfg:Stm_core.Config.eager_weak ~make:spin_make ()
  in
  let e = d.Explorer.exploration in
  check_bool "some schedules complete" true (e.Explorer.outcomes <> []);
  check_bool "some schedules spin out" true (e.Explorer.livelocks > 0);
  check_int "runs = livelocks + outcome counts" e.Explorer.runs
    (e.Explorer.livelocks + outcome_total e)

(* A deadlocked run reaches a final state just as a completed one does,
   so outgrowing the 2,000-decision analysis horizon must clear
   [complete] for it too. H exits holding [m]; A and B each yield [n]
   times, then A writes x := 1 and B reads x and, on seeing 1, blocks on
   [m]. The race between A's write and B's read lies past the horizon
   once [n] is large, so only the first schedule (the deadlock) is run. *)
let deadlock_make n () =
  let xr = ref None in
  let main () =
    let m = Stm_runtime.Sim_mutex.create Stm_runtime.Cost.free in
    let x = Stm_core.Stm.alloc_public ~cls:"X" 1 in
    Stm_runtime.Heap.set x 0 (Stm_runtime.Heap.Vint 0);
    xr := Some x;
    Stm_runtime.Sched.join
      (Stm_runtime.Sched.spawn (fun () -> Stm_runtime.Sim_mutex.lock m));
    let waiter body =
      Stm_runtime.Sched.spawn (fun () ->
          for _ = 1 to n do
            Stm_runtime.Sched.yield ()
          done;
          body ())
    in
    let a = waiter (fun () -> Stm_core.Stm.write x 0 (Stm_core.Stm.vint 1)) in
    let b =
      waiter (fun () ->
          if Stm_core.Stm.to_int (Stm_core.Stm.read x 0) = 1 then
            Stm_runtime.Sim_mutex.lock m)
    in
    Stm_runtime.Sched.join a;
    Stm_runtime.Sched.join b
  in
  let observe () =
    match Stm_runtime.Heap.get (Option.get !xr) 0 with
    | Stm_runtime.Heap.Vint v -> "x=" ^ string_of_int v
    | _ -> "x=?"
  in
  { Explorer.main; observe }

let dpor_deadlock_past_horizon () =
  let dpor n =
    Explorer.explore_dpor ~cfg:Stm_core.Config.eager_weak
      ~make:(deadlock_make n) ()
  in
  let outcomes (d : Explorer.dpor) =
    List.map fst d.Explorer.exploration.Explorer.outcomes
  in
  let within = dpor 900 in
  Alcotest.(check (list string))
    "within the horizon: both final states" [ "<deadlock>"; "x=1" ]
    (outcomes within);
  check_bool "within the horizon: complete" true within.Explorer.complete;
  let past = dpor 1100 in
  Alcotest.(check (list string))
    "past the horizon: the first run only" [ "<deadlock>" ] (outcomes past);
  check_bool "past the horizon: not complete" false past.Explorer.complete

(* Whole exploration records, pinned: every engine must keep returning
   exactly these books (outcome counts, livelocks, deadlocks,
   truncation, and DPOR's completeness and races) for a program that
   spins out and for Figure 1 under a weak and a strong mode. *)
let exploration_t =
  let pp ppf (e : Explorer.exploration) =
    Fmt.pf ppf
      "{outcomes=%a; runs=%d; truncated=%b; livelocks=%d; deadlocks=%d}"
      Fmt.(Dump.list (Dump.pair string int))
      e.Explorer.outcomes e.Explorer.runs e.Explorer.truncated
      e.Explorer.livelocks e.Explorer.deadlocks
  in
  Alcotest.testable pp ( = )

let ex outcomes runs truncated livelocks deadlocks =
  { Explorer.outcomes; runs; truncated; livelocks; deadlocks }

let check_records name ~enum ~dpor:(dpor, complete, races) ~pct
    ?(max_steps = 60_000) ~cfg make =
  Alcotest.check exploration_t (name ^ " enum") enum
    (Explorer.explore ~max_steps ~cfg ~make ());
  let d = Explorer.explore_dpor ~preemption_bound:2 ~max_steps ~cfg ~make () in
  Alcotest.check exploration_t (name ^ " dpor") dpor d.Explorer.exploration;
  check_bool (name ^ " dpor complete") complete d.Explorer.complete;
  check_int (name ^ " dpor races") races d.Explorer.races;
  Alcotest.check exploration_t (name ^ " pct") pct
    (Explorer.explore_pct ~runs:300 ~max_steps ~cfg ~make ())

let pinned_records () =
  check_records "spin" ~max_steps:200 ~cfg:Stm_core.Config.eager_weak
    spin_make
    ~enum:(ex [ ("x=1", 5) ] 136 false 131 0)
    ~dpor:(ex [ ("x=1", 1) ] 2 false 1 0, true, 2)
    ~pct:(ex [ ("x=1", 144) ] 300 false 156 0);
  let privatization mode =
    let program = Programs.privatization in
    let cfg = Modes.config ~granule:program.Programs.needs_granule mode in
    (cfg, fun () -> program.Programs.build (Modes.harness mode cfg))
  in
  let cfg, make = privatization (Modes.Weak Stm_core.Config.Eager) in
  check_records "privatization weak-eager" ~cfg make
    ~enum:
      (ex
         [ ("r1=0 r2=0", 156); ("r1=1 r2=0", 3); ("r1=1 r2=1", 6) ]
         165 false 0 0)
    ~dpor:
      ( ex
          [ ("r1=0 r2=0", 11); ("r1=1 r2=0", 1); ("r1=1 r2=1", 2) ]
          14 false 0 0,
        true,
        26 )
    ~pct:
      (ex
         [ ("r1=0 r2=0", 163); ("r1=1 r2=0", 4); ("r1=1 r2=1", 133) ]
         300 false 0 0);
  let cfg, make = privatization (Modes.Strong Stm_core.Config.Eager) in
  check_records "privatization strong-eager" ~cfg make
    ~enum:(ex [ ("r1=0 r2=0", 170); ("r1=1 r2=1", 3) ] 173 false 0 0)
    ~dpor:(ex [ ("r1=0 r2=0", 13); ("r1=1 r2=1", 1) ] 14 false 0 0, true, 29)
    ~pct:(ex [ ("r1=0 r2=0", 178); ("r1=1 r2=1", 122) ] 300 false 0 0)

(* Random micro-programs: 2-3 threads of reads/writes (at most one
   wrapped in a transaction) over two shared fields. At preemption
   bound 8 — effectively unbounded for programs this small, every
   Mazurkiewicz class has a representative within the bound — the DPOR
   walk and the enumerative DFS must observe identical outcome {e sets}
   (counts differ by design: DPOR visits each class once). At small
   equal bounds the sets can legitimately differ, because the reduced
   tree's representative of a class may need more preemptions than the
   enumerative one — the BPOR pitfall the certification cross-check
   exists for. Cross-thread state lives in the simulated heap only:
   plain OCaml refs are invisible to the footprint sink, so the
   reduction is only sound for heap-mediated communication. *)
type qop = Q_read of int | Q_write of int * int

let qop_run x logs i = function
  | Q_read f ->
      logs.(i) <- Stm_core.Stm.to_int (Stm_core.Stm.read x f) :: logs.(i)
  | Q_write (f, v) -> Stm_core.Stm.write x f (Stm_core.Stm.vint v)

let qprog_make threads () =
  let logs = Array.make (List.length threads) [] in
  let xr = ref None in
  let main () =
    let x = Stm_core.Stm.alloc_public ~cls:"Q" 2 in
    Stm_runtime.Heap.set x 0 (Stm_runtime.Heap.Vint 0);
    Stm_runtime.Heap.set x 1 (Stm_runtime.Heap.Vint 0);
    xr := Some x;
    let handles =
      List.mapi
        (fun i (tx, ops) ->
          Stm_runtime.Sched.spawn (fun () ->
              let body () = List.iter (qop_run x logs i) ops in
              if tx then Stm_core.Stm.atomic body else body ()))
        threads
    in
    List.iter Stm_runtime.Sched.join handles
  in
  let observe () =
    let x = Option.get !xr in
    let fld f =
      match Stm_runtime.Heap.get x f with
      | Stm_runtime.Heap.Vint n -> n
      | _ -> min_int
    in
    Printf.sprintf "x=%d,%d logs=%s" (fld 0) (fld 1)
      (String.concat ";"
         (Array.to_list
            (Array.map
               (fun l -> String.concat "," (List.rev_map string_of_int l))
               logs)))
  in
  { Explorer.main; observe }

let qprog_gen =
  let open QCheck.Gen in
  let op =
    oneof
      [
        map (fun f -> Q_read f) (int_bound 1);
        map2 (fun f v -> Q_write (f, v + 1)) (int_bound 1) (int_bound 2);
      ]
  in
  let thread = pair bool (list_size (int_range 1 2) op) in
  (* two conflicting transactions explode the enumerative baseline (CM
     retries), so only the first atomic flag survives *)
  let at_most_one_atomic threads =
    let seen = ref false in
    List.map
      (fun (tx, ops) ->
        let tx = tx && not !seen in
        if tx then seen := true;
        (tx, ops))
      threads
  in
  map at_most_one_atomic (list_size (int_range 2 3) thread)

let qprog_print threads =
  String.concat " || "
    (List.map
       (fun (tx, ops) ->
         (if tx then "atomic " else "")
         ^ String.concat ";"
             (List.map
                (function
                  | Q_read f -> Printf.sprintf "r%d" f
                  | Q_write (f, v) -> Printf.sprintf "w%d=%d" f v)
                ops))
       threads)

let dpor_equiv_qcheck =
  let open QCheck in
  let arb = make ~print:qprog_print qprog_gen in
  [
    Test.make ~name:"dpor: outcome set matches enumerative explore" ~count:25
      arb (fun threads ->
        let cfg = Stm_core.Config.eager_weak in
        let e =
          Explorer.explore ~preemption_bound:8 ~cfg ~make:(qprog_make threads)
            ()
        in
        let d =
          Explorer.explore_dpor ~preemption_bound:8 ~cfg
            ~make:(qprog_make threads) ()
        in
        let keys ex = List.map fst ex.Explorer.outcomes in
        (* a truncated baseline decides nothing *)
        e.Explorer.truncated
        || keys e = keys d.Explorer.exploration
           && d.Explorer.complete);
  ]

(* Reference for [Explorer.races]: the original race pass, which tests a
   segment against every earlier access to each granule it touches
   (O(m^2) per run). The index-based pass must report the same races in
   the same order. *)
let races_reference ~chosen ~runnables ~(footprints : (int, int) Hashtbl.t array)
    ~start =
  let m = Array.length chosen in
  if m = 0 then []
  else begin
    let nt =
      1
      + Array.fold_left
          (fun acc rs -> List.fold_left max acc rs)
          (Array.fold_left max 0 chosen)
          runnables
    in
    let segs_of = Array.make nt [] in
    for j = m - 1 downto 0 do
      segs_of.(chosen.(j)) <- j :: segs_of.(chosen.(j))
    done;
    let cursor = Array.copy segs_of in
    let edges_into = Array.make m [] in
    for i = 0 to m - 2 do
      List.iter
        (fun t ->
          if not (List.mem t runnables.(i)) then begin
            let rec adv = function s :: rest when s <= i -> adv rest | l -> l in
            cursor.(t) <- adv cursor.(t);
            match cursor.(t) with
            | s :: _ -> edges_into.(s) <- i :: edges_into.(s)
            | [] -> ()
          end)
        runnables.(i + 1)
    done;
    let local = Array.make m 0 in
    let tindex = Array.make nt 0 in
    for j = 0 to m - 1 do
      let t = chosen.(j) in
      tindex.(t) <- tindex.(t) + 1;
      local.(j) <- tindex.(t)
    done;
    let by_oid : (int, (int * int) list ref) Hashtbl.t = Hashtbl.create 64 in
    let clocks = Array.make m [||] in
    let last_seg = Array.make nt (-1) in
    let found = ref [] in
    for j = 0 to m - 1 do
      let t = chosen.(j) in
      let c = Array.make nt 0 in
      let join src =
        Array.iteri (fun u v -> if v > c.(u) then c.(u) <- v) clocks.(src)
      in
      if last_seg.(t) >= 0 then join last_seg.(t);
      List.iter join edges_into.(j);
      let cands = Hashtbl.create 8 in
      Hashtbl.iter
        (fun oid lv ->
          match Hashtbl.find_opt by_oid oid with
          | None -> ()
          | Some l ->
              List.iter
                (fun (i, lvi) ->
                  if lv = 2 || lvi = 2 then
                    let race = lv + lvi >= 3 in
                    match Hashtbl.find_opt cands i with
                    | Some true -> ()
                    | Some false -> if race then Hashtbl.replace cands i true
                    | None -> Hashtbl.add cands i race)
                !l)
        footprints.(j);
      let sorted =
        Hashtbl.fold (fun i race acc -> (i, race) :: acc) cands []
        |> List.sort (fun (a, _) (b, _) -> compare b a)
      in
      List.iter
        (fun (i, race) ->
          if race && c.(chosen.(i)) < local.(i) && j >= start then
            found := (i, j) :: !found;
          join i)
        sorted;
      c.(t) <- local.(j);
      clocks.(j) <- c;
      last_seg.(t) <- j;
      Hashtbl.iter
        (fun oid lv ->
          match Hashtbl.find_opt by_oid oid with
          | Some l -> l := (j, lv) :: !l
          | None -> Hashtbl.add by_oid oid (ref [ (j, lv) ]))
        footprints.(j)
    done;
    List.rev !found
  end

(* One recorded run for the race pass: per segment, the chosen thread,
   the runnable set it was chosen from, and its footprint as
   (granule, level) pairs; plus the analysis start. *)
type race_run = {
  segs : (int * int list * (int * int) list) array;
  start : int;
}

let footprint pairs =
  let h = Hashtbl.create 8 in
  List.iter
    (fun (oid, lv) ->
      match Hashtbl.find_opt h oid with
      | Some l when l >= lv -> ()
      | Some _ | None -> Hashtbl.replace h oid lv)
    pairs;
  h

let fp_of pairs =
  let f = Explorer.Fp.create () in
  List.iter (fun (oid, lv) -> Explorer.Fp.add f oid lv) pairs;
  f

(* Apply a race pass to [run], building each footprint with [build]:
   [Explorer.races] takes [Explorer.Fp.t], the reference the [Hashtbl]
   model. *)
let pass_over run build f =
  f
    ~chosen:(Array.map (fun (t, _, _) -> t) run.segs)
    ~runnables:(Array.map (fun (_, rs, _) -> rs) run.segs)
    ~footprints:(Array.map (fun (_, _, fp) -> build fp) run.segs)
    ~start:run.start

let races_of run f = pass_over run fp_of f

(* 2-4 threads, up to 300 segments. Each runnable set holds the chosen
   thread plus a random subset of the others, so threads drop out and
   come back (enabledness edges). A footprint touches up to four
   granules at any of the three levels, mostly among four hot granules
   every thread shares. *)
let race_run_gen =
  let open QCheck.Gen in
  int_range 2 4 >>= fun nt ->
  let granule = frequency [ (4, int_bound 3); (1, int_bound 24) ] in
  let seg =
    int_bound (nt - 1) >>= fun t ->
    list_repeat nt bool >>= fun on ->
    list_size (int_range 0 4) (pair granule (int_bound 2)) >|= fun fp ->
    (t, List.filter (fun u -> u = t || List.nth on u) (List.init nt Fun.id), fp)
  in
  int_range 0 300 >>= fun m ->
  array_repeat m seg >>= fun segs ->
  int_range 0 m >|= fun start -> { segs; start }

let race_run_print run =
  Printf.sprintf "start=%d [%s]" run.start
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun (t, rs, fp) ->
               Printf.sprintf "%d/{%s}:%s" t
                 (String.concat "," (List.map string_of_int rs))
                 (String.concat ","
                    (List.map (fun (o, l) -> Printf.sprintf "g%d=%d" o l) fp)))
             run.segs)))

let races_qcheck =
  let open QCheck in
  [
    Test.make ~name:"races: granule index = all-pairs reference" ~count:300
      (make ~print:race_run_print race_run_gen) (fun run ->
        races_of run Explorer.races = pass_over run footprint races_reference);
  ]

(* The conflict test the footprint type replaces, over the [Hashtbl]
   model: a shared granule at least one side writes. *)
let model_conflicts a b =
  Hashtbl.fold
    (fun oid lv acc ->
      acc
      ||
      match Hashtbl.find_opt b oid with
      | Some lv' -> lv = 2 || lv' = 2
      | None -> false)
    a false

(* Two segments' accesses, up to 12 each (past the initial capacity of
   4), on granules that include the runtime's negative pseudo-oids. *)
let fp_pair_gen =
  let open QCheck.Gen in
  let granule = frequency [ (4, int_range (-6) 9); (1, int_bound 1_000_000) ] in
  let accesses = list_size (int_range 0 12) (pair granule (int_bound 2)) in
  pair accesses accesses

let fp_pair_print (a, b) =
  let one l = String.concat "," (List.map (fun (o, l) -> Printf.sprintf "g%d=%d" o l) l) in
  Printf.sprintf "a=[%s] b=[%s]" (one a) (one b)

let fp_qcheck =
  let open QCheck in
  [
    Test.make ~name:"footprint: merge and conflict = Hashtbl model" ~count:500
      (make ~print:fp_pair_print fp_pair_gen) (fun (a, b) ->
        let fa = fp_of a and fb = fp_of b in
        let ha = footprint a and hb = footprint b in
        let levels_agree f h accesses =
          Explorer.Fp.length f = Hashtbl.length h
          && List.for_all
               (fun (oid, _) ->
                 Explorer.Fp.level f oid
                 = Option.value ~default:(-1) (Hashtbl.find_opt h oid))
               accesses
          && Explorer.Fp.level f 1_000_001 = -1
        in
        levels_agree fa ha a && levels_agree fb hb b
        && Explorer.Fp.conflicts fa fb = model_conflicts ha hb
        && Explorer.Fp.conflicts fb fa = model_conflicts ha hb);
  ]

(* Hand-checked cases: a write/write pair races; a read/read pair does
   not; a write against a spin re-read orders but never races; a race
   hidden behind a nearer conflict of the same thread is not immediate. *)
let races_small () =
  let run segs = races_of { segs = Array.of_list segs; start = 0 } Explorer.races in
  let both = [ 0; 1 ] in
  let pairs = Alcotest.(list (pair int int)) in
  Alcotest.check pairs "w/w" [ (0, 1) ]
    (run [ (0, both, [ (7, 2) ]); (1, both, [ (7, 2) ]) ]);
  Alcotest.check pairs "r/r" [] (run [ (0, both, [ (7, 1) ]); (1, both, [ (7, 1) ]) ]);
  Alcotest.check pairs "w/spin" []
    (run [ (0, both, [ (7, 2) ]); (1, both, [ (7, 0) ]) ]);
  Alcotest.check pairs "nearest first" [ (1, 2) ]
    (run
       [
         (0, both, [ (7, 2) ]); (0, both, [ (7, 2) ]); (1, both, [ (7, 2) ]);
       ]);
  Alcotest.check pairs "start" [ (1, 2) ]
    (races_of
       {
         segs =
           [|
             (0, both, [ (7, 2) ]); (1, both, [ (7, 2) ]); (0, both, [ (7, 2) ]);
           |];
         start = 2;
       }
       Explorer.races)

let dpor_cases =
  [
    case "fig6 certified with >= 5x fewer runs" dpor_certifies_fig6;
    case "deterministic backtrack tree" dpor_deterministic;
    case "explore: runs = livelocks + outcomes" explore_accounts_livelocks;
    case "explore_dpor: runs = livelocks + outcomes"
      explore_dpor_accounts_livelocks;
    case "races: hand-checked cases" races_small;
    case "deadlock past the horizon is not complete" dpor_deadlock_past_horizon;
    case "pinned exploration records" pinned_records;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      (dpor_equiv_qcheck @ races_qcheck @ fp_qcheck)

(* quiescence orders write-backs but does not close the 4a read window *)
let quiesce_does_not_fix_mi_rw () =
  let cell =
    Matrix.run_cell Programs.overlapped_writes
      (Modes.Weak_quiesce Stm_core.Config.Lazy)
  in
  check_bool "MI(4a) still observable under quiescence" true
    cell.Matrix.observed

let suite =
  suite
  @ [
      ("litmus:pct", pct_cases);
      ("litmus:dpor", dpor_cases);
      ( "litmus:quiesce-limits",
        [
          Alcotest.test_case "quiescence does not fix mi-rw" `Quick
            quiesce_does_not_fix_mi_rw;
        ] );
    ]
