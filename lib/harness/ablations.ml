open Stm_core
open Stm_workloads

type row = { label : string; cycles : int; note : string }

let run_raw ?(extra = []) prog (w : Workload.t) cfg =
  let out =
    Stm_ir.Interp.run ~cfg ~params:(extra @ w.Workload.params) prog
  in
  (match out.Stm_ir.Interp.result.Stm_runtime.Sched.exns with
  | [] -> ()
  | (tid, e) :: _ ->
      Fmt.failwith "ablation %s: thread %d raised %s" w.Workload.name tid
        (Printexc.to_string e));
  out

let dea_read_privacy ?(scale = 1.0) () =
  let w = Workload.scaled Jvm98.compress scale in
  let measure cfg =
    let prog = Workload.program w in
    (run_raw prog w cfg).Stm_ir.Interp.result.Stm_runtime.Sched.makespan
  in
  let base = Config.(with_dea eager_strong) in
  [
    {
      label = "strong+dea, privacy check in read barrier";
      cycles = measure base;
      note = "private reads skip validation (Fig 10a fast path)";
    };
    {
      label = "strong+dea, no read privacy check";
      cycles = measure { base with Config.read_privacy_check = false };
      note = "private reads still run the full two-load validation";
    };
    {
      label = "strong, no dea at all";
      cycles = measure Config.eager_strong;
      note = "every barrier synchronizes";
    };
  ]

let quiescence_cost () =
  let w = Oo7.oo7 in
  let measure cfg =
    let prog = Workload.program w in
    (run_raw ~extra:[ ("threads", 8); ("use_locks", 0) ] prog w cfg)
      .Stm_ir.Interp.result.Stm_runtime.Sched.makespan
  in
  [
    {
      label = "weak atomicity";
      cycles = measure Config.eager_weak;
      note = "no privatization safety";
    };
    {
      label = "weak + quiescence";
      cycles = measure Config.(with_quiescence eager_weak);
      note = "commits wait for concurrent txns to reach consistency";
    };
    {
      label = "strong atomicity";
      cycles = measure Config.eager_strong;
      note = "full isolation via barriers";
    };
  ]

let txn_read_removal () =
  let w = Tsp.tsp in
  let measure ~remove =
    let prog = Workload.program w in
    if remove then begin
      let pta = Stm_analysis.Pta.analyze prog in
      ignore (Stm_analysis.Nait.apply_txn_reads prog pta : int)
    end;
    let out =
      run_raw ~extra:[ ("threads", 4); ("use_locks", 0) ] prog w
        Config.eager_weak
    in
    ( out.Stm_ir.Interp.result.Stm_runtime.Sched.makespan,
      out.Stm_ir.Interp.stats.Stats.txn_reads )
  in
  let c0, r0 = measure ~remove:false in
  let c1, r1 = measure ~remove:true in
  [
    {
      label = "weak, all txn reads logged";
      cycles = c0;
      note = Fmt.str "%d open-for-read barriers executed" r0;
    };
    {
      label = "weak + 5.2 txn-read removal";
      cycles = c1;
      note = Fmt.str "%d open-for-read barriers executed" r1;
    };
  ]

let versioning_granularity ?(scale = 1.0) () =
  (* granularity only matters for transactional undo/copy, so measure a
     transaction-heavy workload *)
  let w = Workload.scaled Jbb.jbb scale in
  let measure granule =
    let prog = Workload.program w in
    (run_raw ~extra:[ ("threads", 4); ("use_locks", 0) ] prog w
       Config.(with_granule granule eager_weak))
      .Stm_ir.Interp.result.Stm_runtime.Sched.makespan
  in
  List.map
    (fun g ->
      {
        label = Fmt.str "weak-eager, granule %d (jbb, 4 threads)" g;
        cycles = measure g;
        note =
          (if g = 1 then "exact field granularity (anomaly-free)"
           else "coarse granules: GLU/GIR possible, bigger undo copies");
      })
    [ 1; 2; 4 ]

let contention_management () =
  let measure cfg =
    let result, stats =
      Stm.run ~cfg (fun () ->
          let o = Stm.alloc_public ~cls:"Ctr" 1 in
          Stm.write o 0 (Stm.vint 0);
          let worker () =
            for _ = 1 to 40 do
              Stm.atomic (fun () ->
                  Stm.write o 0 (Stm.vint (Stm.to_int (Stm.read o 0) + 1)))
            done
          in
          let ts = List.init 8 (fun _ -> Stm_runtime.Sched.spawn worker) in
          List.iter Stm_runtime.Sched.join ts;
          assert (Stm.to_int (Stm.read o 0) = 320))
    in
    (result.Stm_runtime.Sched.makespan, stats)
  in
  let c0, s0 = measure Config.eager_weak in
  let c1, s1 = measure Config.(with_cm Stm_cm.Policy.Wound_wait eager_weak) in
  [
    {
      label = "suicide (McRT default), hot counter x8 threads";
      cycles = c0;
      note = Fmt.str "%d aborts" s0.Stats.aborts;
    };
    {
      label = "wound-wait, hot counter x8 threads";
      cycles = c1;
      note = Fmt.str "%d aborts, %d wounds" s1.Stats.aborts s1.Stats.wounds;
    };
  ]

let pp ppf rows =
  List.iter
    (fun r -> Fmt.pf ppf "%-46s %10d cycles   %s@." r.label r.cycles r.note)
    rows
