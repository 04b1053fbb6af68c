open Stm_core
open Stm_workloads

(* ------------------------------------------------------------------ *)
(* Shared plumbing                                                     *)
(* ------------------------------------------------------------------ *)

type variant = {
  v_label : string;
  v_jit : Stm_jit.Opt.level;
  v_atomicity : Point.atomicity;  (** [Strong] or [Dea] *)
  v_whole_prog : bool;
}

let overhead_variants =
  let v v_label v_jit v_atomicity v_whole_prog =
    { v_label; v_jit; v_atomicity; v_whole_prog }
  in
  Stm_jit.Opt.
    [
      v "NoOpts" O0 Point.Strong false;
      v "+BarrierElim" O1 Point.Strong false;
      v "+BarrierAggr" O2 Point.Strong false;
      v "+DEA" O2 Point.Dea false;
      v "+NAIT" O2 Point.Dea true;
    ]

let overhead_levels = List.map (fun v -> v.v_label) overhead_variants
let eager = Point.Eager Config.Incremental

(* Compile a fresh program, run the selected JIT + whole-program passes.
   Whole-program barrier removal runs before aggregation so that
   aggregation only spends acquires on barriers that must remain. *)
let prepare (w : Workload.t) ~jit ~whole_prog =
  let prog = Workload.program w in
  if whole_prog then begin
    ignore (Stm_jit.Opt.optimize Stm_jit.Opt.O1 prog);
    let pta = Stm_analysis.Pta.analyze prog in
    ignore (Stm_analysis.Nait.apply prog pta : int);
    ignore (Stm_analysis.Thread_local.apply prog pta : int);
    if jit = Stm_jit.Opt.O2 then
      ignore (Stm_jit.Aggregate.run prog : int)
  end
  else ignore (Stm_jit.Opt.optimize jit prog);
  prog

let run_workload ?(extra = []) prog (w : Workload.t) cfg =
  let params = extra @ w.Workload.params in
  let out = Stm_ir.Interp.run ~cfg ~params prog in
  (match out.Stm_ir.Interp.result.Stm_runtime.Sched.exns with
  | [] -> ()
  | (tid, e) :: _ ->
      Fmt.failwith "workload %s (cfg %s): thread %d raised %s" w.Workload.name
        (Config.describe cfg) tid (Printexc.to_string e));
  (match out.Stm_ir.Interp.result.Stm_runtime.Sched.status with
  | Stm_runtime.Sched.Completed -> ()
  | Stm_runtime.Sched.Deadlock tids ->
      Fmt.failwith "workload %s: deadlock of threads %a" w.Workload.name
        Fmt.(Dump.list int)
        tids
  | Stm_runtime.Sched.Fuel_exhausted ->
      Fmt.failwith "workload %s: out of scheduler fuel" w.Workload.name);
  out

(* ------------------------------------------------------------------ *)
(* Figures 15-17                                                       *)
(* ------------------------------------------------------------------ *)

type overhead_row = {
  bench : string;
  weak_cycles : int;
  levels : (string * float) list;
}

let strong_cfg ~reads ~writes base =
  { base with Config.strong = true; strong_reads = reads; strong_writes = writes }

let overhead_fig ~reads ~writes ?(scale = 1.0) () =
  List.map
    (fun w ->
      let w = Workload.scaled w scale in
      let weak_prog = prepare w ~jit:Stm_jit.Opt.O0 ~whole_prog:false in
      let weak =
        run_workload weak_prog w (Point.config (Point.v eager Point.Weak))
      in
      let weak_cycles =
        weak.Stm_ir.Interp.result.Stm_runtime.Sched.makespan
      in
      let levels =
        List.map
          (fun v ->
            let prog = prepare w ~jit:v.v_jit ~whole_prog:v.v_whole_prog in
            let cfg =
              strong_cfg ~reads ~writes
                (Point.config (Point.v eager v.v_atomicity))
            in
            let out = run_workload prog w cfg in
            if out.Stm_ir.Interp.prints <> weak.Stm_ir.Interp.prints then
              Fmt.failwith "workload %s: output diverged under %s"
                w.Workload.name v.v_label;
            let cycles =
              out.Stm_ir.Interp.result.Stm_runtime.Sched.makespan
            in
            (v.v_label, float_of_int cycles /. float_of_int weak_cycles))
          overhead_variants
      in
      { bench = w.Workload.name; weak_cycles; levels })
    Jvm98.all

let fig15 ?scale () = overhead_fig ~reads:true ~writes:true ?scale ()
let fig16 ?scale () = overhead_fig ~reads:true ~writes:false ?scale ()
let fig17 ?scale () = overhead_fig ~reads:false ~writes:true ?scale ()

let pp_overhead ppf rows =
  Fmt.pf ppf "%-10s %12s" "bench" "weak-cycles";
  List.iter (fun l -> Fmt.pf ppf " %12s" l) overhead_levels;
  Fmt.pf ppf "@.";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-10s %12d" r.bench r.weak_cycles;
      List.iter (fun (_, f) -> Fmt.pf ppf " %11.2fx" f) r.levels;
      Fmt.pf ppf "@.")
    rows

(* ------------------------------------------------------------------ *)
(* Figure 13                                                           *)
(* ------------------------------------------------------------------ *)

let fig13 () =
  let count (name, progs) =
    (* aggregate counts over a benchmark group, like the JVM98 row of the
       paper's table *)
    let rows =
      List.concat_map
        (fun w -> Stm_analysis.Barrier_stats.count ~name (Workload.program w))
        progs
    in
    List.map
      (fun kind ->
        let sel = List.filter (fun (r : Stm_analysis.Barrier_stats.row) -> r.kind = kind) rows in
        let sum f = List.fold_left (fun a r -> a + f r) 0 sel in
        {
          Stm_analysis.Barrier_stats.program = name;
          kind;
          total = sum (fun r -> r.Stm_analysis.Barrier_stats.total);
          nait_only = sum (fun r -> r.Stm_analysis.Barrier_stats.nait_only);
          tl_only = sum (fun r -> r.Stm_analysis.Barrier_stats.tl_only);
          combined = sum (fun r -> r.Stm_analysis.Barrier_stats.combined);
        })
      [ `Read; `Write ]
  in
  List.concat_map count
    [
      ("jvm98", Jvm98.all);
      ("tsp", [ Tsp.tsp ]);
      ("oo7", [ Oo7.oo7 ]);
      ("jbb", [ Jbb.jbb ]);
    ]

(* ------------------------------------------------------------------ *)
(* Figures 18-20                                                       *)
(* ------------------------------------------------------------------ *)

type series = {
  label : string;
  points : (int * int) list;
  aborts : (int * int) list;  (* threads -> transaction aborts *)
}

type scaling = {
  bench : string;
  series : series list;
  outputs_consistent : bool;
}

type sconf = {
  s_label : string;
  s_mode : Mode.t;
  s_jit : Stm_jit.Opt.level;
  s_whole_prog : bool;
}

let scaling_confs =
  let c s_label s_mode s_jit s_whole_prog = { s_label; s_mode; s_jit; s_whole_prog } in
  let stm a = Mode.Stm (Point.v eager a) in
  Stm_jit.Opt.
    [
      c "Synch" Mode.Locks O0 false;
      c "WeakAtom" (stm Point.Weak) O0 false;
      c "StrongNoOpts" (stm Point.Strong) O0 false;
      c "+JitOpts" (stm Point.Strong) O2 false;
      c "+DEA" (stm Point.Dea) O2 false;
      c "+WholeProg" (stm Point.Dea) O2 true;
    ]

let scaling_fig (w : Workload.t) ?(threads = [ 1; 2; 4; 8; 16 ]) ?(scale = 1.0)
    () =
  let w = Workload.scaled w scale in
  (* reference outputs per thread count: checksums are deterministic for
     a given thread count but may legitimately differ across counts
     (work partitioning differs) *)
  let reference_output : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let consistent = ref true in
  let series =
    List.map
      (fun sc ->
        let prog = prepare w ~jit:sc.s_jit ~whole_prog:sc.s_whole_prog in
        let cfg = Mode.config sc.s_mode in
        let use_locks = match sc.s_mode with Mode.Locks -> 1 | Mode.Stm _ -> 0 in
        let measured =
          List.map
            (fun nt ->
              let extra = [ ("threads", nt); ("use_locks", use_locks) ] in
              let out = run_workload ~extra prog w cfg in
              (* deterministic workloads print schedule-independent
                 checksums; compare across all configurations *)
              (match Hashtbl.find_opt reference_output nt with
              | None ->
                  Hashtbl.replace reference_output nt out.Stm_ir.Interp.prints
              | Some r ->
                  if r <> out.Stm_ir.Interp.prints then consistent := false);
              ( nt,
                out.Stm_ir.Interp.result.Stm_runtime.Sched.makespan,
                out.Stm_ir.Interp.stats.Stm_core.Stats.aborts ))
            threads
        in
        {
          label = sc.s_label;
          points = List.map (fun (nt, c, _) -> (nt, c)) measured;
          aborts = List.map (fun (nt, _, a) -> (nt, a)) measured;
        })
      scaling_confs
  in
  { bench = w.Workload.name; series; outputs_consistent = !consistent }

let fig18 ?threads ?scale () = scaling_fig Tsp.tsp ?threads ?scale ()
let fig19 ?threads ?scale () = scaling_fig Oo7.oo7 ?threads ?scale ()
let fig20 ?threads ?scale () = scaling_fig Jbb.jbb ?threads ?scale ()

let pp_scaling ppf s =
  Fmt.pf ppf "%s (cycles; outputs consistent: %b)@." s.bench
    s.outputs_consistent;
  let threads = List.map fst (List.hd s.series).points in
  Fmt.pf ppf "%-14s" "threads";
  List.iter (fun t -> Fmt.pf ppf " %10d" t) threads;
  Fmt.pf ppf "@.";
  List.iter
    (fun ser ->
      Fmt.pf ppf "%-14s" ser.label;
      List.iter (fun (_, c) -> Fmt.pf ppf " %10d" c) ser.points;
      Fmt.pf ppf "@.")
    s.series;
  (* contention detail: transaction aborts per point (zero for the lock
     baseline by construction) *)
  Fmt.pf ppf "aborts:@.";
  List.iter
    (fun ser ->
      if List.exists (fun (_, a) -> a > 0) ser.aborts then begin
        Fmt.pf ppf "%-14s" ser.label;
        List.iter (fun (_, a) -> Fmt.pf ppf " %10d" a) ser.aborts;
        Fmt.pf ppf "@."
      end)
    s.series

(* ------------------------------------------------------------------ *)
(* Figure 6                                                            *)
(* ------------------------------------------------------------------ *)

let fig6 ?preemption_bound ?max_runs ?cm () =
  Stm_litmus.Matrix.fig6 ?preemption_bound ?max_runs ?cm ()

let pp_fig6 = Stm_litmus.Matrix.pp_table
