(* stm_e2e: whole-job benchmark on both clocks.

   One process runs one workload: a fixed job of independent units (a
   simulated figure run, a store run, a certified litmus cell, a fuzz
   execution), repeated pass after pass for --seconds of host time. Host
   time and allocation are measured from outside the layer calls, and host
   times are scaled to a nominal host speed (see "Host-speed reference");
   virtual time and the per-layer counts are read from what those calls
   return. Every pass must reproduce the first one bit for bit, and every
   unit must pass its correctness gate.

   Usage: stm_e2e --workload NAME [--seed S] [--seconds N] [--trace 0|1]
                  [--trace-out FILE] [--smoke]

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 (or --trace-out) the run
   measures untraced for half the time, then traced for the other half,
   and the metrics are the per-layer ones. See README.md. *)

open Stm_core
module Sched = Stm_runtime.Sched
module Json = Stm_obs.Json
module Hist = Stm_obs.Hist
module Metrics = Stm_obs.Metrics
module Workload = Stm_workloads.Workload
module Opt = Stm_jit.Opt
module Engine = Stm_store.Engine
module Profile = Stm_store.Profile
module Matrix = Stm_litmus.Matrix
module Fuzz = Stm_check.Fuzz
module History = Stm_check.History

let now = Unix.gettimeofday

(* nearest-rank percentile; 0 for no samples *)
let percentile_a p a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median_a a =
  let n = Array.length a in
  if n mod 2 = 1 || n = 0 then percentile_a 0.5 a
  else
    let a = Array.copy a in
    Array.sort Float.compare a;
    (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median xs = median_a (Array.of_list xs)

(* mean of the samples ranked between quantiles lo and hi; at least one *)
let band_mean lo hi a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  let i0 = min (n - 1) (int_of_float (lo *. float_of_int n)) in
  let i1 = max (i0 + 1) (int_of_float (Float.ceil (hi *. float_of_int n))) in
  if n = 0 then 0.
  else Array.fold_left ( +. ) 0. (Array.sub a i0 (i1 - i0)) /. float_of_int (i1 - i0)

(* ------------------------------------------------------------------ *)
(* Per-pass counters                                                   *)
(* ------------------------------------------------------------------ *)

(* Counts summed over one pass, and per-unit samples (per-run latency
   quantiles, fairness) reduced by median or max at the end. *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 64
let samples : (string, float list) Hashtbl.t = Hashtbl.create 16
let get name = Option.value (Hashtbl.find_opt counters name) ~default:0.
let count name v = Hashtbl.replace counters name (get name +. v)
let count_i name n = count name (float_of_int n)
let set name v = Hashtbl.replace counters name v

let sample name v =
  Hashtbl.replace samples name
    (v :: Option.value (Hashtbl.find_opt samples name) ~default:[])

let samples_of name = Option.value (Hashtbl.find_opt samples name) ~default:[]

let count_stats (s : Stats.t) =
  count_i "barriers.reads" s.Stats.barrier_reads;
  count_i "barriers.writes" s.Stats.barrier_writes;
  count_i "barriers.private_hits" s.Stats.barrier_private_hits;
  count_i "txn.reads" s.Stats.txn_reads;
  count_i "txn.writes" s.Stats.txn_writes;
  count_i "txn.commits" s.Stats.commits;
  count_i "txn.aborts" s.Stats.aborts;
  count_i "txn.validations" s.Stats.validations;
  count_i "cm.conflicts" s.Stats.conflicts;
  count_i "cm.wounds" s.Stats.wounds;
  count "cm.backoff_mcycles" (float_of_int s.Stats.backoff_cycles /. 1e6)

let abort_causes =
  Trace.
    [
      (Cause_conflict, "conflict");
      (Cause_validation, "validation");
      (Cause_stale_lock, "stale-lock");
      (Cause_wounded, "wounded");
      (Cause_snapshot, "snapshot");
    ]

let count_metrics m =
  List.iter
    (fun (c, name) ->
      count_i ("txn.aborts." ^ name) (Metrics.abort_cause_count m c))
    abort_causes;
  let f = Metrics.fairness m in
  if Stm_cm.Fairness.total_commits f > 0 then
    sample "cm.jain_index" (Stm_cm.Fairness.jain f);
  sample "cm.max_consec_aborts"
    (float_of_int (Stm_cm.Fairness.max_consec_aborts f))

let stats_fingerprint s =
  String.concat ","
    (List.map (fun (k, v) -> k ^ "=" ^ string_of_int v) (Stats.to_assoc s))

(* ------------------------------------------------------------------ *)
(* Jobs                                                                *)
(* ------------------------------------------------------------------ *)

type outcome = {
  fingerprint : string;  (* everything the unit computed; passes must agree *)
  failure : string option;
}

type job = {
  units : (unit -> outcome) array;  (* one pass, in order *)
  check : unit -> string list;  (* cross-unit gate, after each pass *)
}

let no_check () = []

(* ------------------------------------------------------------------ *)
(* figs-sweep: the simulated runs behind Figures 15-20                 *)
(* ------------------------------------------------------------------ *)

(* The optimisation ladders of lib/harness/figures.ml, restated so each
   simulated run is one timed unit. *)
type variant = { label : string; jit : Opt.level; dea : bool; whole_prog : bool }

let overhead_variants =
  [
    { label = "NoOpts"; jit = Opt.O0; dea = false; whole_prog = false };
    { label = "+BarrierElim"; jit = Opt.O1; dea = false; whole_prog = false };
    { label = "+BarrierAggr"; jit = Opt.O2; dea = false; whole_prog = false };
    { label = "+DEA"; jit = Opt.O2; dea = true; whole_prog = false };
    { label = "+NAIT"; jit = Opt.O2; dea = true; whole_prog = true };
  ]

let scaling_confs =
  let v label jit dea whole_prog = { label; jit; dea; whole_prog } in
  [
    (true, Config.eager_weak, v "Synch" Opt.O0 false false);
    (false, Config.eager_weak, v "WeakAtom" Opt.O0 false false);
    (false, Config.eager_strong, v "StrongNoOpts" Opt.O0 false false);
    (false, Config.eager_strong, v "+JitOpts" Opt.O2 false false);
    (false, Config.(with_dea eager_strong), v "+DEA" Opt.O2 true false);
    (false, Config.(with_dea eager_strong), v "+WholeProg" Opt.O2 true true);
  ]

let optimize level prog =
  let r = Span.with_ "jit.optimize" (fun () -> Opt.optimize level prog) in
  count_i "jit.aggregated" r.Opt.aggregated

(* Compile, then run the variant's JIT and whole-program passes; NAIT and
   thread-local removal run before aggregation, as in the figure harness. *)
let prepare w v =
  let prog = Span.with_ "workload.program" (fun () -> Workload.program w) in
  if v.whole_prog then begin
    optimize Opt.O1 prog;
    Span.with_ "analysis.pta_nait" (fun () ->
        let pta = Stm_analysis.Pta.analyze prog in
        count_i "analysis.removed"
          (Stm_analysis.Nait.apply prog pta
          + Stm_analysis.Thread_local.apply prog pta));
    if v.jit = Opt.O2 then
      count_i "jit.aggregated"
        (Span.with_ "jit.optimize" (fun () -> Stm_jit.Aggregate.run prog))
  end
  else optimize v.jit prog;
  prog

(* One simulated run. The traced run also feeds a metrics sink, for the
   abort causes and fairness the interpreter does not return. *)
let sim prog cfg params =
  let m = if !Span.enabled then Some (Metrics.create ()) else None in
  Option.iter (fun m -> Metrics.install m) m;
  let out =
    Fun.protect
      ~finally:(fun () -> if m <> None then Trace.set_sink None)
      (fun () ->
        Span.with_ "ir.run" (fun () -> Stm_ir.Interp.run ~cfg ~params prog))
  in
  Option.iter count_metrics m;
  let r = out.Stm_ir.Interp.result in
  count_i "ir.instrs" out.Stm_ir.Interp.instrs;
  count_i "sched.switches" r.Sched.switches;
  count_i "sim.cycles" r.Sched.makespan;
  count_stats out.Stm_ir.Interp.stats;
  let failure =
    match (r.Sched.status, r.Sched.exns) with
    | Sched.Completed, [] -> None
    | Sched.Completed, (tid, e) :: _ ->
        Some (Printf.sprintf "thread %d raised %s" tid (Printexc.to_string e))
    | Sched.Deadlock _, _ -> Some "deadlock"
    | Sched.Fuel_exhausted, _ -> Some "out of scheduler fuel"
  in
  let fingerprint =
    Printf.sprintf "%d %d %d [%s] %s" r.Sched.makespan out.Stm_ir.Interp.instrs
      r.Sched.switches
      (String.concat "|" out.Stm_ir.Interp.prints)
      (stats_fingerprint out.Stm_ir.Interp.stats)
  in
  (out, { fingerprint; failure })

let figs_job ~smoke =
  let module W = Stm_workloads in
  let scaled w = if smoke then Workload.scaled w 0.05 else w in
  let kernels =
    List.map scaled (if smoke then [ W.Jvm98.compress ] else W.Jvm98.all)
  in
  let barrier_sets =
    if smoke then [ ("fig15", true, true) ]
    else [ ("fig15", true, true); ("fig16", true, false); ("fig17", false, true) ]
  in
  let scaling =
    List.map scaled
      (if smoke then [ W.Tsp.tsp ] else [ W.Tsp.tsp; W.Oo7.oo7; W.Jbb.jbb ])
  in
  let threads = if smoke then [ 1; 2 ] else [ 1; 2; 4; 8; 16 ] in
  (* per pass: the prints of every group (all configurations of one kernel,
     or of one benchmark at one thread count, must print the same) and the
     Figure 15 makespans behind strong_overhead_x *)
  let prints : (string, string list) Hashtbl.t = Hashtbl.create 64 in
  let diverged = ref [] in
  let fig15 : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let point ~group ?key prog cfg params () =
    let out, o = sim prog cfg params in
    let p = out.Stm_ir.Interp.prints in
    (match Hashtbl.find_opt prints group with
    | None -> Hashtbl.replace prints group p
    | Some ref_ -> if ref_ <> p then diverged := group :: !diverged);
    Option.iter
      (fun k ->
        Hashtbl.replace fig15 k out.Stm_ir.Interp.result.Sched.makespan)
      key;
    o
  in
  let overhead =
    List.concat_map
      (fun (fig, reads, writes) ->
        List.concat_map
          (fun (w : Workload.t) ->
            let group = w.Workload.name and params = w.Workload.params in
            let key l = if fig = "fig15" then Some (group ^ "/" ^ l) else None in
            let weak =
              point ~group ?key:(key "weak")
                (prepare w (List.hd overhead_variants))
                Config.eager_weak params
            in
            weak
            :: List.map
                 (fun v ->
                   let cfg =
                     {
                       Config.eager_strong with
                       Config.strong = true;
                       strong_reads = reads;
                       strong_writes = writes;
                     }
                   in
                   let cfg = if v.dea then Config.with_dea cfg else cfg in
                   point ~group ?key:(key v.label) (prepare w v) cfg params)
                 overhead_variants)
          kernels)
      barrier_sets
  in
  let scaling_points =
    List.concat_map
      (fun (w : Workload.t) ->
        List.concat_map
          (fun (locks, cfg, v) ->
            let prog = prepare w v in
            List.map
              (fun nt ->
                let params =
                  [ ("threads", nt); ("use_locks", if locks then 1 else 0) ]
                  @ w.Workload.params
                in
                point
                  ~group:(Printf.sprintf "%s/%d" w.Workload.name nt)
                  prog cfg params)
              threads)
          scaling_confs)
      scaling
  in
  let units = Array.of_list (overhead @ scaling_points) in
  let check () =
    let failures =
      List.sort_uniq compare !diverged
      |> List.map (fun g -> "figs-sweep: prints differ across configurations of " ^ g)
    in
    (* geomean over kernels of the Figure 15 +NAIT strong/weak makespan *)
    let logs =
      List.filter_map
        (fun (w : Workload.t) ->
          let m l = Hashtbl.find_opt fig15 (w.Workload.name ^ "/" ^ l) in
          match (m "+NAIT", m "weak") with
          | Some s, Some w -> Some (log (float_of_int s /. float_of_int w))
          | _ -> None)
        kernels
    in
    if logs <> [] then
      set "strong_overhead_x"
        (exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length logs)));
    Hashtbl.reset prints;
    Hashtbl.reset fig15;
    diverged := [];
    failures
  in
  { units; check }

(* ------------------------------------------------------------------ *)
(* store-read / store-write: YCSB runs on the KV store                 *)
(* ------------------------------------------------------------------ *)

(* The stock write-heavy profile's 10% inserts lose client threads on
   some seeds (see README.md); the benchmark's write mix moves that share
   to transactional read-modify-writes, so no operation fails. *)
let write_mix =
  {
    Profile.pname = "write-heavy-noinsert";
    aliases = [];
    pdescr = "10% get / 40% put / 50% rmw";
    mix = Profile.[ (10, Get); (40, Put); (50, Rmw) ];
  }

let store_classes = Profile.[ Get; Put; Multi_get; Rmw ]
let store_failures : (string, int list) Hashtbl.t = Hashtbl.create 4

let store_job ~profile ~runs ~seed ~smoke =
  let runs = if smoke then 4 else runs in
  (* seeds S*runs .. S*runs+runs-1, so no two seeds share a store run *)
  let unit_of i =
    let p = { Engine.default with Engine.profile; seed = (seed * runs) + i } in
    fun () ->
      if !Span.enabled then
        (* the store's set-up share: creation and preload, one op per client *)
        ignore
          (Span.with_ ~extra:true "store.preload" (fun () ->
               Engine.run { p with Engine.ops_per_client = 1 }));
      let r = Span.with_ "store.run" (fun () -> Engine.run p) in
      count_i "store.ops" r.Engine.r_total_ops;
      count_i "store.ops_expected" (p.Engine.clients * p.Engine.ops_per_client);
      count_i "sim.cycles" r.Engine.r_makespan;
      count_stats r.Engine.r_stats;
      count_metrics r.Engine.r_metrics;
      List.iter
        (fun (op, c) ->
          let q name x =
            sample
              (Printf.sprintf "store.%s_%s_cycles" (Profile.op_name op) name)
              (float_of_int (Hist.quantile c.Engine.cs_hist x))
          in
          q "p50" 0.5;
          q "p99" 0.99)
        r.Engine.r_classes;
      let problems =
        (if r.Engine.r_completed then []
         else
           [
             Printf.sprintf "run did not complete (%s)"
               (match r.Engine.r_status with
               | Sched.Completed -> "a client thread raised"
               | Sched.Deadlock _ -> "deadlock"
               | Sched.Fuel_exhausted -> "out of scheduler fuel");
           ])
        @ List.map (fun v -> "invariant violated: " ^ v) r.Engine.r_invariants
        @
        match r.Engine.r_deviation with
        | Some d when d <> 0 -> [ Printf.sprintf "update deviation %d" d ]
        | _ -> []
      in
      List.iter
        (fun msg ->
          let seeds = Option.value (Hashtbl.find_opt store_failures msg) ~default:[] in
          if not (List.mem p.Engine.seed seeds) then
            Hashtbl.replace store_failures msg (p.Engine.seed :: seeds))
        problems;
      let fingerprint =
        Printf.sprintf "%d %d %s %s" r.Engine.r_makespan r.Engine.r_total_ops
          (stats_fingerprint r.Engine.r_stats)
          (String.concat ","
             (List.map
                (fun (op, c) ->
                  Printf.sprintf "%s:%d/%d/%d" (Profile.op_name op)
                    c.Engine.cs_ops (Hist.sum c.Engine.cs_hist)
                    (Hist.max_value c.Engine.cs_hist))
                r.Engine.r_classes))
      in
      {
        fingerprint;
        failure =
          (match problems with
          | [] -> None
          | ps ->
              Some
                (Printf.sprintf "store seed %d: %s" p.Engine.seed
                   (String.concat "; " ps)));
      }
  in
  { units = Array.init runs unit_of; check = no_check }

(* ------------------------------------------------------------------ *)
(* certify: full-matrix DPOR certification                             *)
(* ------------------------------------------------------------------ *)

(* certify_cell's own default budget, restated so the enumeration-only
   split below runs the same walk *)
let certify_max_runs = 40_000

let certify_job ~smoke =
  let cells = Matrix.full_matrix () in
  let cells = if smoke then List.filteri (fun i _ -> i < 3) cells else cells in
  let unit_of (p, m, b) () =
    if !Span.enabled then
      ignore
        (Span.with_ ~extra:true "litmus.enum" (fun () ->
             Matrix.run_cell ~preemption_bound:b ~max_runs:certify_max_runs p m));
    let c =
      Span.with_ "litmus.certify" (fun () ->
          Matrix.certify_cell ~preemption_bound:b ~max_runs:certify_max_runs p m)
    in
    let e = c.Matrix.enum and d = c.Matrix.dpor in
    let certified = Matrix.cell_certified c in
    count_i "explorer.enum_runs" e.Matrix.runs;
    count_i "explorer.dpor_runs" d.Matrix.runs;
    count_i "explorer.races" c.Matrix.races;
    if certified then count "explorer.certified_cells" 1.;
    if not c.Matrix.complete then count "explorer.incomplete_cells" 1.;
    let name =
      Printf.sprintf "%s/%s" p.Stm_litmus.Programs.name (Stm_litmus.Modes.name m)
    in
    {
      fingerprint =
        Printf.sprintf "%b %d %b %b %d %b %b %d" e.Matrix.observed e.Matrix.runs
          e.Matrix.truncated d.Matrix.observed d.Matrix.runs d.Matrix.truncated
          c.Matrix.complete c.Matrix.races;
      failure =
        (if not certified then Some ("certify: cell not certified: " ^ name)
         else if e.Matrix.observed <> e.Matrix.expected then
           Some ("certify: cell disagrees with the paper: " ^ name)
         else None);
    }
  in
  { units = Array.of_list (List.map unit_of cells); check = no_check }

(* ------------------------------------------------------------------ *)
(* fuzz: every expect-clean campaign of the default plan               *)
(* ------------------------------------------------------------------ *)

(* Each campaign gets programs of its own, and no two seeds share one: the
   job's cost is then a sum over ~20k independent programs, and moves by
   under 0.5% from one seed to another. A few programs shared by every
   campaign made it move by ~10%. *)
let fuzz_programs = 200
let fuzz_schedules = 5

let fuzz_job ~seed ~smoke =
  let campaigns =
    if smoke then List.filteri (fun i _ -> i < 3) Fuzz.clean_campaigns
    else Fuzz.clean_campaigns
  in
  let programs = if smoke then 1 else fuzz_programs in
  let schedules = if smoke then 1 else fuzz_schedules in
  let ncampaigns = List.length campaigns in
  let units =
    List.concat_map
      (fun (ci, (c : Fuzz.campaign)) ->
        let gcfg = Stm_check.Gen.default c.Fuzz.profile in
        List.concat_map
          (fun i ->
            let prog_seed = (((seed * ncampaigns) + ci) * programs) + i in
            let prog =
              Span.with_ "check.gen" (fun () ->
                  Stm_check.Gen.generate gcfg ~seed:prog_seed)
            in
            List.init schedules (fun s () ->
                (* the fuzzer's own random-schedule driver *)
                let sched_seed = (prog_seed * 8191) + s in
                let cfg = Stm_check.Combo.to_config ~cm_seed:sched_seed c.Fuzz.combo in
                let backend = Config.versioning_to_string cfg.Config.versioning in
                let verdict, history =
                  Span.with_ ("check.exec." ^ backend) (fun () ->
                      Stm_check.Exec.run ~policy:(Sched.Random sched_seed) ~cfg prog)
                in
                (if !Span.enabled then
                   let level =
                     match cfg.Config.versioning with
                     | Config.Mvcc -> cfg.Config.isolation
                     | Config.Eager | Config.Lazy -> Config.Serializable
                   in
                   Option.iter
                     (fun h ->
                       ignore
                         (Span.with_ ~extra:true "check.oracle" (fun () ->
                              History.check_at level prog h)))
                     history);
                count "check.executions" 1.;
                (match verdict with
                | History.Inconclusive _ -> count "check.inconclusive" 1.
                | _ -> ());
                {
                  fingerprint = Json.to_string (History.verdict_to_json verdict);
                  failure =
                    (if History.is_anomalous verdict then
                       Some
                         (Printf.sprintf "fuzz %s: anomaly on program %d schedule %d"
                            (Fuzz.campaign_name c) prog_seed sched_seed)
                     else None);
                }))
          (List.init programs Fun.id))
      (List.mapi (fun ci c -> (ci, c)) campaigns)
  in
  { units = Array.of_list units; check = no_check }

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* name, the scaled host seconds one pass takes (measured; it sets how many
   passes fit in --seconds), and the job *)
let workloads =
  [
    ("figs-sweep", 6.6, fun ~seed:_ ~smoke -> figs_job ~smoke);
    ( "store-read",
      3.25,
      fun ~seed ~smoke ->
        store_job ~profile:Profile.read_heavy ~runs:600 ~seed ~smoke );
    ( "store-write",
      2.25,
      fun ~seed ~smoke -> store_job ~profile:write_mix ~runs:300 ~seed ~smoke );
    ("certify", 2.15, fun ~seed:_ ~smoke -> certify_job ~smoke);
    ("fuzz", 3.5, fun ~seed ~smoke -> fuzz_job ~seed ~smoke);
  ]

let workload_names = String.concat ", " (List.map (fun (n, _, _) -> n) workloads)

(* ------------------------------------------------------------------ *)
(* Host-speed reference                                                *)
(* ------------------------------------------------------------------ *)

(* The host shares its cores with other machines, and its speed swings by
   tens of percent within a minute. So every host time is scaled to a
   nominal host: a fixed reference chunk of work is timed between units,
   and a time t is reported as t * reference_s / (median of the chunks
   timed around it). On an idle 2-vCPU VM of the kind the bounds were set
   on, one chunk takes about reference_s, so the scaled times read as
   seconds there. The chunk
   is hashtable updates and short lists, like the simulator's own work,
   and it allocates only in the minor heap, so the benchmark's heap does
   not slow it down. *)
let reference_s = 0.0035
let reference_chunks = 16

let reference_table =
  lazy
    (let h = Hashtbl.create 4096 in
     for i = 0 to 4095 do
       Hashtbl.replace h i i
     done;
     h)

(* minor-heap words the reference chunks allocated, kept out of the
   workload's allocation counts *)
let reference_words = ref 0.

let reference_chunk () =
  let h = Lazy.force reference_table in
  let w = Gc.minor_words () in
  let t = now () in
  for i = 0 to 100_000 do
    Hashtbl.replace h (i land 4095) (i * 7)
  done;
  let acc = ref 0 in
  for _ = 1 to 20 do
    acc := !acc + List.fold_left ( + ) 0 (List.rev (List.init 1000 Fun.id))
  done;
  ignore (Sys.opaque_identity !acc);
  let dt = now () -. t in
  reference_words := !reference_words +. Gc.minor_words () -. w;
  dt

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

type pass = {
  pass_s : float;  (* scaled; minus the reference chunks and extra calls *)
  unit_s : float array;  (* scaled *)
  chunk_s : float;  (* median reference chunk, unscaled *)
  alloc_words : float;  (* minor + direct-major words *)
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  failures : string list;
}

(* the first pass's unit fingerprints; every later pass must match them *)
let reference : string array option ref = ref None

let run_pass job =
  Hashtbl.reset counters;
  Hashtbl.reset samples;
  (* the allocation counters lag by up to one minor heap until a minor
     collection *)
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  let chunk_words0 = !reference_words in
  let collections0 = (Gc.quick_stat ()).Gc.major_collections in
  let n = Array.length job.units in
  let every = max 1 (n / reference_chunks) in
  let chunks = ref [] and failures = ref [] in
  let unit_s = Array.make n 0. in
  let extra0 = Span.extra_time () in
  let t0 = now () in
  let fingerprints =
    Span.with_ "pass" (fun () ->
        Array.mapi
          (fun i u ->
            if i mod every = 0 then chunks := reference_chunk () :: !chunks;
            let e = Span.extra_time () and t = now () in
            let o =
              try Span.in_unit i u
              with exn ->
                let msg = Printf.sprintf "unit %d raised %s" i (Printexc.to_string exn) in
                { fingerprint = msg; failure = Some msg }
            in
            unit_s.(i) <- now () -. t -. (Span.extra_time () -. e);
            let differs =
              match !reference with
              | Some r when r.(i) <> o.fingerprint ->
                  Some (Printf.sprintf "unit %d differs from the first pass" i)
              | _ -> None
            in
            (match (o.failure, differs) with
            | Some f, _ | None, Some f -> failures := f :: !failures
            | None, None -> ());
            o.fingerprint)
          job.units)
  in
  chunks := reference_chunk () :: !chunks;
  let failures = List.rev !failures @ job.check () in
  let wall = now () -. t0 in
  Gc.minor ();
  let minor1, promoted1, major1 = Gc.counters () in
  let minor1 = minor1 -. (!reference_words -. chunk_words0) in
  if !reference = None then reference := Some fingerprints;
  (* a unit is scaled by the chunks around its segment, the rest of the
     pass (the cross-unit check, the loop) by the pass's median chunk *)
  let c = Array.of_list (List.rev !chunks) in
  let local k =
    median
      (List.filter_map
         (fun j -> if j >= 0 && j < Array.length c then Some c.(j) else None)
         [ k - 1; k; k + 1; k + 2 ])
  in
  let scaled = Array.mapi (fun i t -> t *. reference_s /. local (i / every)) unit_s in
  let chunk_s = median (Array.to_list c) in
  let other =
    wall -. Array.fold_left ( +. ) 0. c -. Array.fold_left ( +. ) 0. unit_s
    -. (Span.extra_time () -. extra0)
  in
  {
    pass_s = Array.fold_left ( +. ) 0. scaled +. (other *. reference_s /. chunk_s);
    unit_s = scaled;
    chunk_s;
    alloc_words = minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0);
    minor_words = minor1 -. minor0;
    promoted_words = promoted1 -. promoted0;
    major_collections = (Gc.quick_stat ()).Gc.major_collections - collections0;
    failures;
  }

let warmup_units = 8

(* Build the job, then run its first units once so lazy set-up and caches
   are warm before timing. Returns the job, the counts the build made (JIT,
   analysis and generation counts live there, not in passes), the set-up's
   unscaled host time, and the reference chunks timed around it. *)
let setup make =
  Hashtbl.reset counters;
  let before = reference_chunk () in
  let t = now () in
  let job, counts =
    Span.with_ "setup" (fun () ->
        let job = make () in
        let counts = Hashtbl.copy counters in
        for i = 0 to min warmup_units (Array.length job.units) - 1 do
          ignore (Span.in_unit i job.units.(i))
        done;
        (job, counts))
  in
  let wall = now () -. t in
  (job, counts, wall, [ before; reference_chunk () ])

let setup_reps = 5

(* As many passes as fit in [seconds] at the workload's nominal pass time,
   and at least [min_passes]. The count does not depend on how fast this
   run happens to go, so every run takes its medians over the same number
   of passes; on a slower host the run just takes longer. *)
let run_for job ~nominal ~seconds ~min_passes =
  let k = max min_passes (int_of_float (seconds /. nominal)) in
  let rec go acc n = if n = k then List.rev acc else go (run_pass job :: acc) (n + 1) in
  go [] 0

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6

(* Host time is taken per unit as its median across passes, so that a
   slow spell of the host during one pass does not move the result: the
   unit percentiles are over these medians, and host_s is the pass they
   make up (plus the median time of the rest of a pass). *)
let end_to_end ~setup_s passes =
  let sum = Array.fold_left ( +. ) 0. in
  let units =
    Array.mapi
      (fun i _ -> median (List.map (fun p -> p.unit_s.(i)) passes))
      (List.hd passes).unit_s
  in
  let rest = median (List.map (fun p -> p.pass_s -. sum p.unit_s) passes) in
  [
    ("setup_s", setup_s, "s");
    ("host_s", sum units +. rest, "s");
    (* means of the units ranked around the 50th and 95th percentiles, not
       of one unit each: units of a job differ in size, and a single rank
       jumps between neighbours that can lie ~10% apart *)
    ("unit_p50_ms", 1e3 *. band_mean 0.40 0.60 units, "ms");
    ("unit_p95_ms", 1e3 *. band_mean 0.93 0.97 units, "ms");
    ("alloc_mwords", median (List.map (fun p -> p.alloc_words) passes) /. 1e6, "Mwords");
    ("peak_heap_mb", mb_of_words (float_of_int (Gc.quick_stat ()).Gc.top_heap_words), "MB");
  ]

(* span -> its layer, the end-to-end metrics its time should move, the
   workload where that shows, and where the prediction is no change *)
let layer_map =
  [
    ("workload.program", "jtlang: setup_s on figs-sweep; ~0 on all others");
    ("jit.optimize", "jit: setup_s, sim_mcycles on figs-sweep; ~0 on all others");
    ("analysis.pta_nait", "analysis: setup_s, sim_mcycles on figs-sweep; ~0 on all others");
    ( "ir.run",
      "ir+runtime+core: host_s, unit_p95_ms on figs-sweep; ~0 on store-*, certify, fuzz" );
    ("store.run", "store+core+cm: host_s, unit_p95_ms on store-*; ~0 on all others");
    ("store.preload", "store: host_s on store-*; ~0 on all others");
    ("litmus.certify", "litmus: host_s, unit_p95_ms on certify; ~0 on all others");
    ("litmus.enum", "litmus (enumeration share): host_s on certify");
    ("check.gen", "check: setup_s on fuzz; ~0 on all others");
    ("check.exec.eager", "check+core: host_s on fuzz; ~0 on all others");
    ("check.exec.lazy", "check+core: host_s on fuzz; ~0 on all others");
    ("check.exec.mvcc", "check+mvcc: host_s on fuzz; ~0 on all others");
    ("check.oracle", "check (oracle share): host_s on fuzz");
    ("pass", "benchmark harness: host_s");
    ("setup", "benchmark harness: setup_s");
  ]

(* Span self times come from the traced set-up and passes, scaled like
   every other host time. *)
let per_layer ~setup_counts ~setup_self ~pass_self ~pass_spans ~traced ~untraced
    ~failed ~attempted =
  let n = float_of_int (List.length traced) in
  let last = List.nth untraced (List.length untraced - 1) in
  let c name =
    get name +. Option.value (Hashtbl.find_opt setup_counts name) ~default:0.
  in
  let self times name = Option.value (List.assoc_opt name times) ~default:0. in
  let per_pass name = self pass_self name /. n in
  let calls name =
    List.length (List.filter (fun s -> s.Span.name = name) pass_spans)
  in
  let ratio a b = if b > 0. then a /. b else 0. in
  let med name = median (samples_of name) in
  let counts unit names = List.map (fun name -> (name, c name, unit)) names in
  let ir_s = per_pass "ir.run" and instrs = c "ir.instrs" in
  let certify_s = per_pass "litmus.certify" in
  let host passes = median (List.map (fun p -> p.pass_s) passes) in
  [
    ("ir.run_s", ir_s, "s");
    ("ir.instrs", instrs, "count");
    ("ir.ns_per_instr", 1e9 *. ratio ir_s instrs, "ns");
    ("sched.switches", c "sched.switches", "count");
    ("sched.switches_per_kinstr", 1e3 *. ratio (c "sched.switches") instrs, "count/kinstr");
    ("jit.opt_ms", 1e3 *. self setup_self "jit.optimize", "ms");
    ("jit.aggregated", c "jit.aggregated", "count");
    ("analysis.pta_nait_ms", 1e3 *. self setup_self "analysis.pta_nait", "ms");
    ("analysis.removed", c "analysis.removed", "count");
  ]
  @ counts "count"
      [
        "barriers.reads"; "barriers.writes"; "barriers.private_hits";
        "txn.reads"; "txn.writes"; "txn.commits"; "txn.aborts";
      ]
  @ [
      ( "txn.commit_frac",
        ratio (c "txn.commits") (c "txn.commits" +. c "txn.aborts"),
        "ratio" );
      ("txn.validations", c "txn.validations", "count");
    ]
  @ counts "count" (List.map (fun (_, name) -> "txn.aborts." ^ name) abort_causes)
  @ [
      ("cm.conflicts", c "cm.conflicts", "count");
      ("cm.backoff_mcycles", c "cm.backoff_mcycles", "Mcycles");
      ("cm.wounds", c "cm.wounds", "count");
      ("cm.jain_index", med "cm.jain_index", "ratio");
      ( "cm.max_consec_aborts",
        List.fold_left Float.max 0. (samples_of "cm.max_consec_aborts"),
        "count" );
      ("store.run_s", per_pass "store.run", "s");
      ( "store.preload_ms",
        1e3
        *. ratio (self pass_self "store.preload")
             (float_of_int (calls "store.preload")),
        "ms" );
      ("store.ops", c "store.ops", "count");
      ("store.ops_failed", c "store.ops_expected" -. c "store.ops", "count");
    ]
  @ List.concat_map
      (fun op ->
        List.map
          (fun q ->
            let name = Printf.sprintf "store.%s_%s_cycles" (Profile.op_name op) q in
            (name, med name, "cycles"))
          [ "p50"; "p99" ])
      store_classes
  @ [
      ("explorer.certify_s", certify_s, "s");
      ("explorer.enum_s", per_pass "litmus.enum", "s");
    ]
  @ counts "count"
      [
        "explorer.enum_runs"; "explorer.dpor_runs"; "explorer.races";
        "explorer.certified_cells"; "explorer.incomplete_cells";
      ]
  @ [
      ( "explorer.us_per_schedule",
        1e6 *. ratio certify_s (c "explorer.enum_runs" +. c "explorer.dpor_runs"),
        "us" );
      ("check.gen_s", self setup_self "check.gen", "s");
      ("check.exec_s.eager", per_pass "check.exec.eager", "s");
      ("check.exec_s.lazy", per_pass "check.exec.lazy", "s");
      ("check.exec_s.mvcc", per_pass "check.exec.mvcc", "s");
      ("check.oracle_s", per_pass "check.oracle", "s");
      ("check.executions", c "check.executions", "count");
      ("check.inconclusive", c "check.inconclusive", "count");
      ("gc.minor_mwords", last.minor_words /. 1e6, "Mwords");
      ("gc.promoted_mwords", last.promoted_words /. 1e6, "Mwords");
      ("gc.major_collections", float_of_int last.major_collections, "count");
      ("sim_mcycles", c "sim.cycles" /. 1e6, "Mcycles");
      ("sim_ops_per_mcycle", 1e6 *. ratio (c "store.ops") (c "sim.cycles"), "ops/Mcycle");
      ("strong_overhead_x", c "strong_overhead_x", "x");
      ("failed_frac", ratio (float_of_int failed) (float_of_int attempted), "ratio");
      ( "host.raw_s",
        median (List.map (fun p -> p.pass_s *. p.chunk_s /. reference_s) untraced),
        "s" );
      ("host.ref_chunk_ms", 1e3 *. median (List.map (fun p -> p.chunk_s) untraced), "ms");
      ("bench.harness_s", per_pass "pass", "s");
      ("trace.overhead_frac", ratio (host traced) (host untraced) -. 1., "ratio");
    ]

let print_layer_table ~setup_self ~pass_self ~passes =
  let row scope (name, s) =
    Printf.printf "  %-18s %12.6f  %-9s %s\n" name s scope
      (Option.value (List.assoc_opt name layer_map) ~default:"-")
  in
  Printf.printf "\nself time by span (span minus its child spans):\n";
  Printf.printf "  %-18s %12s  %-9s %s\n" "span" "self_s" "scope" "layer: moves ... on";
  List.iter (row "setup") setup_self;
  List.iter
    (fun (name, s) -> row "per pass" (name, s /. float_of_int passes))
    pass_self

let finite v = if Float.is_finite v then v else 0.

let result_json ~correct ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, v, u) ->
               ( name,
                 Json.Obj [ ("value", Json.Float (finite v)); ("unit", Json.Str u) ] ))
             metrics) );
    ]

let main ~workload ~seed ~seconds ~trace ~trace_out ~smoke =
  let nominal, make =
    match List.find_opt (fun (name, _, _) -> name = workload) workloads with
    | Some (_, nominal, f) -> (nominal, fun () -> f ~seed ~smoke)
    | None ->
        Printf.eprintf "unknown workload %s (expected one of: %s)\n" workload
          workload_names;
        exit 2
  in
  let trace = trace || trace_out <> None in
  let seconds = if smoke then 0. else seconds in
  (* set-up, several times; the median is setup_s. Only the last job is
     kept, so earlier ones do not swell the heap. *)
  let last_job = ref None in
  let setups =
    List.init (if smoke then 1 else setup_reps) (fun _ ->
        last_job := None;
        let job, _, t, chunks = setup make in
        last_job := Some job;
        (t, chunks))
  in
  let setup_s =
    median (List.map fst setups) *. reference_s /. median (List.concat_map snd setups)
  in
  let job = Option.get !last_job in
  Gc.compact ();
  let budget = if trace then seconds /. 2. else seconds in
  (* three, so that a unit's median across passes drops one slow pass *)
  let min_passes = if trace then 1 else if smoke then 2 else 3 in
  let untraced = run_for job ~nominal ~seconds:budget ~min_passes in
  let e2e = end_to_end ~setup_s untraced in
  let traced, setup_counts, setup_spans, setup_scale, pass_spans =
    if not trace then ([], Hashtbl.create 1, [], 1., [])
    else begin
      Span.enabled := true;
      let job, setup_counts, _, chunks = setup make in
      let setup_spans = Span.spans () in
      Span.reset ();
      let traced = run_for job ~nominal ~seconds:budget ~min_passes:1 in
      Span.enabled := false;
      (traced, setup_counts, setup_spans, reference_s /. median chunks, Span.spans ())
    end
  in
  (* correctness gate: every unit, every cross-unit check, and every pass
     reproducing the first bit for bit *)
  let passes = untraced @ traced in
  let units = Array.length job.units in
  let failures = List.concat_map (fun p -> p.failures) passes in
  let attempted = units * List.length passes in
  let failed = min attempted (List.length failures) in
  let correct = failed = 0 in
  let distinct = List.sort_uniq compare failures in
  List.iteri (fun i f -> if i < 20 then Printf.eprintf "FAILED: %s\n" f) distinct;
  if List.length distinct > 20 then
    Printf.eprintf "FAILED: ... and %d more\n" (List.length distinct - 20);
  Hashtbl.iter
    (fun msg seeds ->
      Printf.eprintf "store failure \"%s\" on seeds %s\n" msg
        (String.concat " " (List.map string_of_int (List.sort compare seeds))))
    store_failures;
  Printf.printf "workload %s  seed %d  passes %d untraced + %d traced  units/pass %d\n"
    workload seed (List.length untraced) (List.length traced) units;
  List.iteri
    (fun i p ->
      Printf.printf
        "  pass %d%s: %.4f s scaled (reference chunk %.3f ms), %.6f Mwords, %d failures\n"
        (i + 1)
        (if i >= List.length untraced then " (traced)" else "")
        p.pass_s (1e3 *. p.chunk_s) (p.alloc_words /. 1e6) (List.length p.failures))
    passes;
  let scaled k = List.map (fun (name, t) -> (name, t *. k)) in
  let setup_self = scaled setup_scale (Span.self_times setup_spans) in
  let pass_self =
    scaled
      (reference_s /. median (List.map (fun p -> p.chunk_s) traced))
      (Span.self_times pass_spans)
  in
  let metrics =
    if trace then
      per_layer ~setup_counts ~setup_self ~pass_self ~pass_spans ~traced ~untraced
        ~failed ~attempted
    else e2e
  in
  List.iter
    (fun (name, v, u) -> Printf.printf "  %-28s %16.6f %s\n" name v u)
    (if trace then e2e @ metrics else e2e);
  if trace then begin
    print_layer_table ~setup_self ~pass_self ~passes:(List.length traced);
    Option.iter
      (fun path ->
        let doc = Span.to_chrome ~workload (setup_spans @ pass_spans) in
        try
          Out_channel.with_open_text path (fun oc ->
              output_string oc (Json.to_string doc))
        with Sys_error msg ->
          Printf.eprintf "cannot write %s: %s\n" path msg;
          exit 2)
      trace_out
  end;
  print_endline (Json.to_string (result_json ~correct ~attempted ~failed metrics));
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. in
  let trace = ref 0 and trace_out = ref None and smoke = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ workload_names);
      ("--seed", Arg.Set_int seed, "S input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "N host seconds to measure (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics from a traced run");
      ( "--trace-out",
        Arg.String (fun f -> trace_out := Some f),
        "FILE also write the spans as Chrome-trace JSON" );
      ("--smoke", Arg.Set smoke, " a few units, two passes, through the correctness gate");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "stm_e2e --workload NAME [options]";
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    ~trace_out:!trace_out ~smoke:!smoke
