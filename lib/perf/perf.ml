open Bechamel
open Toolkit

type sample = {
  name : string;
  ns_per_op : float;
  alloc_words_per_op : float;
}

type report = {
  quick : bool;
  backend : Stm_core.Point.backend;
  samples : sample list;
}

(* ------------------------------------------------------------------ *)
(* Benchmark bodies                                                    *)
(* ------------------------------------------------------------------ *)

(* Every body is a self-contained [Stm.run] (or explorer / fuzz-campaign
   invocation): heap, site table and STM state are reset per call, so
   repeated invocations are identical work. All virtual-time results are
   deterministic; only the host wall-clock varies. *)

let cell = "PerfCell"

module Point = Stm_core.Point

let eager = Point.Eager Stm_core.Config.Incremental

(* Re-read the same granule many times inside one transaction. Before the
   dedup-on-insert read set this grew the read set by one entry per read
   and made every periodic validation walk the whole list - the quadratic
   hot path this suite exists to ratchet. *)
let revalidate cfg () =
  ignore
    (Stm_core.Stm.run ~cfg (fun () ->
         let o = Stm_core.Stm.alloc ~cls:cell 1 in
         Stm_core.Stm.atomic (fun () ->
             for _ = 1 to 4096 do
               ignore (Stm_core.Stm.read o 0)
             done)))

(* A large read set kept hot by re-reads: 1024 distinct granules, then
   re-reads to 8192 total observations, with a tight validation cadence
   (every 16 accesses, the knob a long-transaction workload would turn
   up for opacity). Incremental validation walks all 1024 entries at
   every periodic checkpoint — 512 full walks per run; the
   global-commit-clock scheme answers each checkpoint in O(1) while the
   clock is unchanged — the headline win of timestamp validation. *)
let revalidate_heavy cfg () =
  let cfg = { cfg with Stm_core.Config.validate_every = 16 } in
  ignore
    (Stm_core.Stm.run ~cfg (fun () ->
         let objs =
           Array.init 1024 (fun _ -> Stm_core.Stm.alloc ~cls:cell 1)
         in
         Stm_core.Stm.atomic (fun () ->
             for round = 0 to 7 do
               ignore round;
               Array.iter (fun o -> ignore (Stm_core.Stm.read o 0)) objs
             done)))

(* Read-only transactions over a shared structure: under the timestamp
   scheme each commit skips the commit-time validation walk entirely and
   serializes at its begin snapshot. *)
let read_only_commit cfg () =
  ignore
    (Stm_core.Stm.run ~cfg (fun () ->
         let objs =
           Array.init 512 (fun _ -> Stm_core.Stm.alloc ~cls:cell 1)
         in
         for _ = 1 to 8 do
           Stm_core.Stm.atomic (fun () ->
               Array.iter (fun o -> ignore (Stm_core.Stm.read o 0)) objs)
         done))

(* Open-for-read of many distinct objects: read-set insertion cost. *)
let read_distinct cfg () =
  ignore
    (Stm_core.Stm.run ~cfg (fun () ->
         let objs =
           Array.init 128 (fun _ -> Stm_core.Stm.alloc ~cls:cell 1)
         in
         for _ = 1 to 8 do
           Stm_core.Stm.atomic (fun () ->
               Array.iter (fun o -> ignore (Stm_core.Stm.read o 0)) objs)
         done))

(* Open-for-write + commit-time release under the selected backend:
   undo log (eager), write buffer (lazy), or version install (mvcc). *)
let write_commit cfg () =
  ignore
    (Stm_core.Stm.run ~cfg (fun () ->
         let objs =
           Array.init 64 (fun _ -> Stm_core.Stm.alloc ~cls:cell 1)
         in
         for i = 1 to 8 do
           Stm_core.Stm.atomic (fun () ->
               Array.iter
                 (fun o -> Stm_core.Stm.write o 0 (Stm_core.Stm.vint i))
                 objs)
         done))

(* Same shape under lazy versioning: write-buffer slots + write-back. *)
let lazy_write_commit () =
  ignore
    (Stm_core.Stm.run ~cfg:Stm_core.Config.lazy_weak (fun () ->
         let objs =
           Array.init 64 (fun _ -> Stm_core.Stm.alloc ~cls:cell 1)
         in
         for i = 1 to 8 do
           Stm_core.Stm.atomic (fun () ->
               Array.iter
                 (fun o -> Stm_core.Stm.write o 0 (Stm_core.Stm.vint i))
                 objs)
         done))

(* Eight threads whose transactions overlap (each yields inside its
   read), so the run holds eight descriptors at once. Descriptors outlive
   runs: after the warm-up call every one comes from the pool with its
   read, ownership and undo sets already sized, so this is a run's reset
   and release of the STM state plus the run itself, and no descriptor
   is built. What a descriptor costs the first time is what [core:trace]
   "fresh descriptor words" pins. *)
let fresh_descriptor cfg () =
  ignore
    (Stm_core.Stm.run ~cfg (fun () ->
         let threads =
           List.init 8 (fun _ ->
               let o = Stm_core.Stm.alloc ~cls:cell 2 in
               Stm_runtime.Sched.spawn (fun () ->
                   Stm_core.Stm.atomic (fun () ->
                       ignore (Stm_core.Stm.read o 0);
                       Stm_core.Stm.write o 1 (Stm_core.Stm.vint 1))))
         in
         List.iter Stm_runtime.Sched.join threads))

(* Deliberate abort/retry churn: descriptor, table and log turnover. *)
let abort_retry cfg () =
  ignore
    (Stm_core.Stm.run ~cfg (fun () ->
         let o = Stm_core.Stm.alloc ~cls:cell 1 in
         for _ = 1 to 32 do
           let tries = ref 0 in
           Stm_core.Stm.atomic (fun () ->
               ignore (Stm_core.Stm.read o 0);
               Stm_core.Stm.write o 0 (Stm_core.Stm.vint !tries);
               incr tries;
               if !tries < 8 then Stm_core.Stm.abort_and_retry ())
         done))

(* One thread reading one public field outside any transaction, under
   Min_clock. Under the backend's strong configuration each read is its
   read barrier (Figure 9a under eager), under the weak one a plain load
   after a preemption point. Each access charges its cycles and yields
   without switching, so this is the per-access cost of the barrier
   layer; it is reported per access. *)
let barrier_reads = 4_096

let barrier_read cfg () =
  ignore
    (Stm_core.Stm.run ~policy:Stm_runtime.Sched.Min_clock ~cfg (fun () ->
         let o = Stm_core.Stm.alloc_public ~cls:cell 1 in
         for _ = 1 to barrier_reads do
           ignore (Stm_core.Stm.read o 0)
         done))

(* Eight threads that tick one cycle and yield, in lockstep: each tick
   lifts the yielder's clock above its peers', so every yield switches
   to another thread under Min_clock. The effect round trip, the fused
   heap push-pop and the bookkeeping around them are all there is, so
   this is the scheduler's own cost per context switch; it is reported
   per switching yield. *)
let switch_threads = 8
let switch_yields = 1_000

let sched_switch () =
  ignore
    (Stm_runtime.Sched.run ~policy:Stm_runtime.Sched.Min_clock (fun () ->
         let ts =
           List.init switch_threads (fun _ ->
               Stm_runtime.Sched.spawn (fun () ->
                   for _ = 1 to switch_yields do
                     Stm_runtime.Sched.tick 1;
                     Stm_runtime.Sched.yield ()
                   done))
         in
         List.iter Stm_runtime.Sched.join ts))

(* A reference beside [sched/switch]: bare perform/continue round trips
   through one handler with preallocated closures, the continuation kept
   in a mutable slot, and each perform's handler returning to a loop
   that resumes the slot - a scheduler loop with no scheduling in it.
   [Sched] resumes the next thread from inside the handler, in tail
   position, and skips that return, so [sched/switch] can read below
   this. Reported per round trip. *)
type _ Effect.t += Floor_yield : unit Effect.t

let floor_yields = 8_000

let effect_floor () =
  let open Effect.Deep in
  let slot = ref Stm_runtime.Cont.none and parked = ref false in
  let on_yield =
    Some
      (fun k ->
        slot := k;
        parked := true)
  in
  match_with
    (fun () ->
      for _ = 1 to floor_yields do
        Effect.perform Floor_yield
      done)
    ()
    {
      retc = ignore;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
          match eff with Floor_yield -> on_yield | _ -> None);
    };
  while !parked do
    parked := false;
    continue !slot ()
  done

(* A transaction spinning on a record another thread's transaction
   holds, under [Controlled]: the owner runs until it holds the record,
   then the spinner keeps the processor until the fuel runs out. Each
   decision after the first few is one conflict-and-pause iteration -
   the contention manager's decision, the trace guard and the pause -
   so this is the cost of a spin-wait, the bulk of a certification
   pass's decisions. The retry budget outlasts the run. Pinned to the
   eager backend: under mvcc a writer owns no record before commit, so
   there is no spin. Reported per iteration. *)
let conflict_spins = 4_096

let conflict_spin =
  let cfg = { Stm_core.Config.eager_weak with Stm_core.Config.max_txn_retries = max_int } in
  let contested = ref Stm_runtime.Heap.dummy in
  let choose current ready =
    if Stm_core.Txrec.is_exclusive (Stm_runtime.Heap.txrec_peek !contested) then 0
    else match ready with [ t ] -> t | _ -> if current = 0 then 1 else current
  in
  fun () ->
    ignore
      (Stm_core.Stm.run ~policy:(Stm_runtime.Sched.Controlled choose)
         ~max_steps:conflict_spins ~cfg (fun () ->
           let o = Stm_core.Stm.alloc_public ~cls:cell 1 in
           contested := o;
           ignore
             (Stm_runtime.Sched.spawn (fun () ->
                  Stm_core.Stm.atomic (fun () ->
                      Stm_core.Stm.write o 0 (Stm_core.Stm.vint 1)))
               : int);
           Stm_runtime.Sched.yield ();
           Stm_core.Stm.atomic (fun () -> Stm_core.Stm.write o 0 (Stm_core.Stm.vint 2))))

(* One systematic-explorer cell of the Figure 6 matrix: scheduler pick
   rate under the Controlled policy. *)
let fig6_explorer () =
  ignore
    (Stm_litmus.Matrix.run_cell ~max_runs:500
       Stm_litmus.Programs.speculative_lost_update
       (Stm_litmus.Modes.Stm (Point.v eager Point.Weak)))

(* One DPOR walk of a fixed Figure-6 cell, the DPOR half of what the
   [certify] workload does per cell: speculative lost update under
   strong-eager at preemption bound 2, which no schedule breaks, so the
   walk runs to the end (43 schedules, 99 races). The race pass, the
   segment footprints, the sleep sets and the [Controlled] picks are
   what it exercises beside the simulation itself. *)
let dpor_cell =
  let program = Stm_litmus.Programs.speculative_lost_update in
  let mode = Stm_litmus.Modes.Stm (Point.v eager Point.Strong) in
  let cfg =
    Stm_litmus.Modes.config ~granule:program.Stm_litmus.Programs.needs_granule mode
  in
  let make () = program.Stm_litmus.Programs.build (Stm_litmus.Modes.harness mode cfg) in
  fun () ->
    ignore
      (Stm_litmus.Explorer.explore_dpor ~preemption_bound:2
         ~stop_when:program.Stm_litmus.Programs.is_anomalous ~cfg ~make ())

(* End-to-end Tsp at 4 simulated processors (the fig18 unit): IR
   interpreter dispatch + Min_clock scheduler + full STM protocol. *)
let fig18_tsp =
  let w = Stm_workloads.Workload.scaled Stm_workloads.Tsp.tsp 0.25 in
  let prog = Stm_workloads.Workload.program w in
  let params =
    [ ("threads", 4); ("use_locks", 0) ] @ w.Stm_workloads.Workload.params
  in
  fun () ->
    ignore
      (Stm_ir.Interp.run ~cfg:Stm_core.Config.eager_strong ~params prog)

(* The interpreter on its own: one thread, so no switch runs and every
   access is to a thread-local object. [ir/alu-loop] is arithmetic,
   compares and branches over registers; [ir/call-loop] adds a static
   and a virtual call per iteration, each with a field load. Both are
   reported per interpreted instruction. *)
let ir_alu_src =
  {|class Main { static void main() {
  int s = 0;
  for (int i = 0; i < 2000; i++) { s = (s + i * 3) % 1000003; if (s > 500000) { s = s - 1; } }
  print(s);
} }|}

let ir_call_src =
  {|class Acc { int k; int add(int x) { return x + k; } }
class Main {
  static int twice(int x) { return x * 2; }
  static void main() {
    Acc a = new Acc(); a.k = 3;
    int s = 0;
    for (int i = 0; i < 500; i++) { s = a.add(s) % 1000003; s = twice(s) % 1000003; }
    print(s);
  }
}|}

let ir_bench src =
  let prog = Stm_jtlang.Jt.compile src in
  let run () = Stm_ir.Interp.run ~cfg:Stm_core.Config.eager_strong prog in
  ((fun () -> ignore (run ())), lazy (run ()).Stm_ir.Interp.instrs)

let ir_alu_loop, ir_alu_instrs = ir_bench ir_alu_src
let ir_call_loop, ir_call_instrs = ir_bench ir_call_src

(* One small expect-clean fuzz campaign: generation + random-schedule
   execution + serializability oracle. *)
let fuzz_campaign =
  let budget =
    {
      Stm_check.Fuzz.default_budget with
      Stm_check.Fuzz.programs = 6;
      seeds = 2;
      base_seed = 7;
    }
  in
  let campaign = List.hd Stm_check.Fuzz.clean_campaigns in
  fun () -> ignore (Stm_check.Fuzz.run_campaign budget campaign)

(* One fuzz execution, the [fuzz] workload's unit: a fixed mixed-profile
   program (plain accesses racing transactions) run once on a random
   schedule under the backend's strong configuration, its history
   collected at the History trace level and certified by the oracle. *)
let check_exec_prog = Stm_check.Gen.generate (Stm_check.Gen.default Stm_check.Gen.Mixed) ~seed:1

let check_exec cfg () =
  ignore
    (Stm_check.Exec.run ~policy:(Stm_runtime.Sched.Random 8191) ~cfg check_exec_prog)

(* Two threads incrementing one public counter: the conflict/abort event
   shape the diagnosis layer exists for. Measured once bare and once with
   the full pipeline (heatmap + causality + flight recorder) attached as
   a Debug sink - the difference is the live cost of [--diag]. The
   *disabled* cost (diag code merged but no sink installed) is what the
   [--diag-gate] ratchet bounds on the txn/fig6 benches. *)
let diag_churn cfg () =
  ignore
    (Stm_core.Stm.run ~cfg (fun () ->
         let o = Stm_core.Stm.alloc_public ~cls:cell 1 in
         let worker () =
           for i = 1 to 64 do
             Stm_core.Stm.atomic (fun () ->
                 let v = Stm_core.Stm.to_int (Stm_core.Stm.read o 0) in
                 Stm_core.Stm.write o 0 (Stm_core.Stm.vint (v + i)))
           done
         in
         let t = Stm_runtime.Sched.spawn worker in
         worker ();
         Stm_runtime.Sched.join t))

let diag_churn_on cfg () =
  let d = Stm_diag.Diag.create () in
  Stm_core.Trace.with_sinks
    [ (Stm_core.Trace.Debug, Stm_diag.Diag.consumer d) ]
    (diag_churn cfg)

(* End-to-end store engine runs (KV shards + YCSB-style clients + full
   STM protocol + Min_clock scheduler), sized to finish in host
   microseconds: host cost per simulated store operation. *)
let store_bench mode profile =
  let p =
    {
      Stm_store.Engine.default with
      Stm_store.Engine.profile;
      mode;
      shards = 4;
      clients = 4;
      keys = 256;
      buckets = 32;
      ops_per_client = 32;
    }
  in
  fun () -> ignore (Stm_store.Engine.run p)

(* The backend-sensitive txn/diag benches run under the backend's weak
   configuration, the barrier, check and store benches under its strong
   one.
   The [lazy-write-commit] bench stays pinned to the lazy backend as a
   fixed cross-backend reference point. *)
let bodies backend : (string * (unit -> unit)) list =
  let cfg = Point.config (Point.v backend Point.Weak) in
  let strong = Point.v backend Point.Strong in
  let strong_cfg = Point.config strong in
  let store_mode = Stm_core.Mode.Stm strong in
  [
    ("txn/revalidate", revalidate cfg);
    ("txn/revalidate-heavy", revalidate_heavy cfg);
    ("txn/read-only-commit", read_only_commit cfg);
    ("txn/read-distinct", read_distinct cfg);
    ("txn/write-commit", write_commit cfg);
    ("txn/lazy-write-commit", lazy_write_commit);
    ("txn/abort-retry", abort_retry cfg);
    ("txn/fresh-descriptor", fresh_descriptor cfg);
    ("barrier/strong-read", barrier_read strong_cfg);
    ("barrier/weak-read", barrier_read cfg);
    ("sched/switch", sched_switch);
    ("sched/effect-floor", effect_floor);
    ("cm/conflict-spin", conflict_spin);
    ("fig6/explorer-cell", fig6_explorer);
    ("explore/dpor-cell", dpor_cell);
    ("fig18/tsp-4t", fig18_tsp);
    ("ir/alu-loop", ir_alu_loop);
    ("ir/call-loop", ir_call_loop);
    ("fuzz/clean-campaign", fuzz_campaign);
    ("check/exec", check_exec strong_cfg);
    ("diag/churn-off", diag_churn cfg);
    ("diag/churn-on", diag_churn_on cfg);
    ("store/read-heavy", store_bench store_mode Stm_store.Profile.read_heavy);
    ("store/write-heavy", store_bench store_mode Stm_store.Profile.write_heavy);
    ("store/batch", store_bench store_mode Stm_store.Profile.batch_mix);
  ]

let bench_names = List.map fst (bodies eager)

(* Operations per invocation, for the benches reported per operation
   rather than per call. *)
let ops_per_call = function
  | "barrier/strong-read" | "barrier/weak-read" -> float_of_int barrier_reads
  | "sched/switch" -> float_of_int (switch_threads * switch_yields)
  | "sched/effect-floor" -> float_of_int floor_yields
  | "cm/conflict-spin" -> float_of_int conflict_spins
  | "ir/alu-loop" -> float_of_int (Lazy.force ir_alu_instrs)
  | "ir/call-loop" -> float_of_int (Lazy.force ir_call_instrs)
  | _ -> 1.

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

(* Words allocated by one invocation, after one warm-up call so one-time
   setup is excluded. Under OCaml 5 the counters behind
   [Gc.allocated_bytes] miss what is still in the minor heap (a lockstep
   [sched/switch] call read 2,044 words of its 16,353), so each reading
   follows a minor collection, which makes it exact. *)
let alloc_words_of f =
  f ();
  Gc.minor ();
  let b0 = Gc.allocated_bytes () in
  f ();
  Gc.minor ();
  let b1 = Gc.allocated_bytes () in
  (b1 -. b0) /. float_of_int (Sys.word_size / 8)

let group_name = "perf"

let suite ?(quick = false) ?(backend = eager) () =
  let bodies = bodies backend in
  let tests =
    Test.make_grouped ~name:group_name
      (List.map (fun (n, f) -> Test.make ~name:n (Staged.stage f)) bodies)
  in
  let cfg =
    if quick then Benchmark.cfg ~limit:10 ~quota:(Time.second 0.1) ~kde:None ()
    else Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let ns_of name =
    match Hashtbl.find_opt results (group_name ^ "/" ^ name) with
    | Some est -> (
        match Analyze.OLS.estimates est with
        | Some [ ns ] -> ns
        | Some _ | None -> nan)
    | None -> nan
  in
  let samples =
    List.map
      (fun (name, f) ->
        {
          name;
          ns_per_op = ns_of name /. ops_per_call name;
          alloc_words_per_op = alloc_words_of f /. ops_per_call name;
        })
      bodies
    |> List.sort (fun a b -> compare a.name b.name)
  in
  { quick; backend; samples }

(* ------------------------------------------------------------------ *)
(* JSON, baseline comparison                                           *)
(* ------------------------------------------------------------------ *)

let to_json r =
  let open Stm_obs in
  Json.Obj
    [
      ("schema", Json.Str "stm-perf/1");
      ("quick", Json.Bool r.quick);
      ( "backend",
        Json.Str
          (Stm_core.Config.versioning_to_string (Point.versioning r.backend)) );
      ( "validation",
        Json.Str
          (Stm_core.Config.validation_to_string (Point.validation r.backend)) );
      ( "benches",
        Json.Obj
          (List.map
             (fun s ->
               ( s.name,
                 Json.Obj
                   [
                     ("ns_per_op", Json.Float s.ns_per_op);
                     ("alloc_words_per_op", Json.Float s.alloc_words_per_op);
                   ] ))
             r.samples) );
    ]

let json_float = function
  | Stm_obs.Json.Float f -> Some f
  | Stm_obs.Json.Int i -> Some (float_of_int i)
  | _ -> None

type baseline = { b_ns : float; b_words : float option }

let baseline_of_json json =
  match Stm_obs.Json.member "benches" json with
  | Some (Stm_obs.Json.Obj benches) ->
      List.filter_map
        (fun (name, v) ->
          match Option.bind (Stm_obs.Json.member "ns_per_op" v) json_float with
          | Some ns ->
              Some
                ( name,
                  {
                    b_ns = ns;
                    b_words =
                      Option.bind
                        (Stm_obs.Json.member "alloc_words_per_op" v)
                        json_float;
                  } )
          | None -> None)
        benches
  | Some _ | None -> []

type comparison = {
  c_name : string;
  c_ns : float;
  c_baseline_ns : float;
  c_speedup : float;
  c_words : float;
  c_baseline_words : float option;
}

let compare_to_baseline ~baseline r =
  List.filter_map
    (fun s ->
      match List.assoc_opt s.name baseline with
      | Some b when b.b_ns > 0. && not (Float.is_nan s.ns_per_op) ->
          Some
            {
              c_name = s.name;
              c_ns = s.ns_per_op;
              c_baseline_ns = b.b_ns;
              c_speedup = b.b_ns /. s.ns_per_op;
              c_words = s.alloc_words_per_op;
              c_baseline_words = b.b_words;
            }
      | Some _ | None -> None)
    r.samples

(* Words per operation repeat exactly from run to run: five --quick and
   five full-quota runs per backend read the same count on every bench.
   So a small fixed bound catches a new per-operation allocation without
   tripping on noise. *)
let alloc_bound_pct = 2.

let alloc_regressed c =
  match c.c_baseline_words with
  | Some b -> c.c_words > b *. (1. +. (alloc_bound_pct /. 100.))
  | None -> false

let ns_regressed ~threshold_pct c =
  c.c_ns > c.c_baseline_ns *. (1. +. (threshold_pct /. 100.))

let regressions ~threshold_pct comps =
  List.filter (fun c -> ns_regressed ~threshold_pct c || alloc_regressed c) comps

let pp_report ppf r =
  Fmt.pf ppf "%-24s %14s %16s@." "bench" "ns/op" "alloc words/op";
  List.iter
    (fun s ->
      Fmt.pf ppf "%-24s %14.0f %16.0f@." s.name s.ns_per_op
        s.alloc_words_per_op)
    r.samples

let pp_comparison ppf comps =
  Fmt.pf ppf "%-24s %14s %14s %9s %14s %14s@." "bench" "ns/op" "baseline"
    "speedup" "words/op" "baseline";
  List.iter
    (fun c ->
      Fmt.pf ppf "%-24s %14.0f %14.0f %8.2fx %14.2f %14s@." c.c_name c.c_ns
        c.c_baseline_ns c.c_speedup c.c_words
        (match c.c_baseline_words with
        | Some w -> Printf.sprintf "%.2f" w
        | None -> "-"))
    comps
