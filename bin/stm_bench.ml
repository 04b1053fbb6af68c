(* CLI: regenerate individual evaluation figures and run contention
   stress scenarios.

   Examples:
     stm_bench fig6
     stm_bench fig15 --scale 0.5
     stm_bench fig18 --threads 1,2,4,8,16
     stm_bench all
     stm_bench --stress all --cm timestamp --seed 7 --metrics-out m.json *)

open Cmdliner

let parse_threads s =
  String.split_on_char ',' s |> List.map int_of_string

(* Returns false when a figure's built-in check fails (only fig6 has
   one); the caller turns any failure into a non-zero exit. *)
let run_figure name scale threads cm =
  let threads = Option.map parse_threads threads in
  match name with
  | "fig6" ->
      let cells = Stm_harness.Figures.fig6 ?cm () in
      Fmt.pr "%a" Stm_harness.Figures.pp_fig6 cells;
      let ok = Stm_litmus.Matrix.all_match cells in
      Fmt.pr "matches the paper: %b@." ok;
      ok
  | "privatization" ->
      let cells = Stm_litmus.Matrix.privatization_row () in
      Fmt.pr "%a" Stm_litmus.Matrix.pp_table cells;
      true
  | "fig13" ->
      Fmt.pr "%a" Stm_analysis.Barrier_stats.pp_table
        (Stm_harness.Figures.fig13 ());
      true
  | "fig15" ->
      Fmt.pr "%a" Stm_harness.Figures.pp_overhead
        (Stm_harness.Figures.fig15 ?scale ());
      true
  | "fig16" ->
      Fmt.pr "%a" Stm_harness.Figures.pp_overhead
        (Stm_harness.Figures.fig16 ?scale ());
      true
  | "fig17" ->
      Fmt.pr "%a" Stm_harness.Figures.pp_overhead
        (Stm_harness.Figures.fig17 ?scale ());
      true
  | "fig18" ->
      Fmt.pr "%a" Stm_harness.Figures.pp_scaling
        (Stm_harness.Figures.fig18 ?threads ?scale ());
      true
  | "fig19" ->
      Fmt.pr "%a" Stm_harness.Figures.pp_scaling
        (Stm_harness.Figures.fig19 ?threads ?scale ());
      true
  | "fig20" ->
      Fmt.pr "%a" Stm_harness.Figures.pp_scaling
        (Stm_harness.Figures.fig20 ?threads ?scale ());
      true
  | other -> Fmt.failwith "unknown figure %s" other

let all_figures =
  [ "fig6"; "privatization"; "fig13"; "fig15"; "fig16"; "fig17"; "fig18";
    "fig19"; "fig20" ]

let write_json path json =
  try
    Out_channel.with_open_text path (fun oc ->
        output_string oc (Stm_obs.Json.to_string json);
        output_char oc '\n')
  with Sys_error msg ->
    Fmt.epr "cannot write %s: %s@." path msg;
    exit 2

(* ------------------------------------------------------------------ *)
(* Stress mode                                                         *)
(* ------------------------------------------------------------------ *)

let stress_report_json (r : Stm_harness.Stress.report) =
  let open Stm_obs in
  Json.Obj
    [
      ( "status",
        Json.Str
          (match r.Stm_harness.Stress.status with
          | Stm_runtime.Sched.Completed -> "completed"
          | Stm_runtime.Sched.Fuel_exhausted -> "fuel-exhausted"
          | Stm_runtime.Sched.Deadlock _ -> "deadlock") );
      ("completed", Json.Bool r.Stm_harness.Stress.completed);
      ("passed", Json.Bool (Stm_harness.Stress.passed r));
      ("makespan", Json.Int r.Stm_harness.Stress.makespan);
      ( "starved",
        Json.List
          (List.map (fun t -> Json.Int t) r.Stm_harness.Stress.starved) );
      ( "metrics",
        Metrics.to_json ~stats:r.Stm_harness.Stress.stats
          r.Stm_harness.Stress.metrics );
    ]

(* --diag-out's subscribers: the live conflict-diagnosis pipeline, and a
   recorder whose raw entries make the file a JSONL trace that `stm_diag`
   replays to the same conclusions *)
let diag_create diag_out =
  Option.map
    (fun _ -> (Stm_diag.Diag.create (), Stm_obs.Recorder.create ()))
    diag_out

let diag_sinks = function
  | None -> []
  | Some (d, rec_) ->
      Stm_core.Trace.
        [
          (Debug, Stm_obs.Recorder.record rec_);
          (Debug, Stm_diag.Diag.consumer d);
        ]

let run_stress which versioning isolation validation cm seed fuel metrics_out
    diag_out =
  let scenarios =
    if which = "all" then Stm_harness.Stress.all_scenarios
    else
      match Stm_harness.Stress.scenario_of_string which with
      | Some s -> [ s ]
      | None -> Fmt.failwith "unknown stress scenario %s" which
  in
  let diag = diag_create diag_out in
  let reports =
    List.map
      (fun s ->
        let r =
          Stm_core.Trace.with_sinks (diag_sinks diag) (fun () ->
              Stm_harness.Stress.run ?seed ?fuel ~versioning ~isolation
                ~validation ~cm s)
        in
        Fmt.pr "%a@." Stm_harness.Stress.pp_report r;
        (match (diag, r.Stm_harness.Stress.starved) with
        | Some (d, _), (_ :: _ as tids) ->
            Stm_diag.Diag.force_incident d
              ~reason:
                (Fmt.str "starvation verdict: %s under %s starved threads [%s]"
                   (Stm_harness.Stress.scenario_name s)
                   (Stm_cm.Policy.to_string cm)
                   (String.concat "; " (List.map string_of_int tids)))
        | _ -> ());
        r)
      scenarios
  in
  Option.iter
    (fun (d, rec_) ->
      let path = Option.get diag_out in
      (try
         Out_channel.with_open_text path (fun oc ->
             Stm_obs.Export.write_jsonl oc (Stm_obs.Recorder.entries rec_))
       with Sys_error msg ->
         Fmt.epr "cannot write %s: %s@." path msg;
         exit 2);
      if Stm_obs.Recorder.dropped rec_ > 0 then
        Fmt.epr "diag trace: ring full, dropped %d oldest events@."
          (Stm_obs.Recorder.dropped rec_);
      Fmt.pr "@.=== conflict diagnosis ===@.%a"
        (fun ppf -> Stm_diag.Diag.report ppf)
        d;
      Fmt.pr "diag trace written to %s (replay with stm_diag)@." path)
    diag;
  Option.iter
    (fun path ->
      write_json path
        (Stm_obs.Json.Obj
           [
             ("policy", Stm_obs.Json.Str (Stm_cm.Policy.to_string cm));
             ( "backend",
               Stm_obs.Json.Str
                 (Stm_core.Config.versioning_to_string versioning) );
             ( "isolation",
               Stm_obs.Json.Str
                 (Stm_core.Config.isolation_to_string isolation) );
             ( "validation",
               Stm_obs.Json.Str
                 (Stm_core.Config.validation_to_string validation) );
             ("seed", Stm_obs.Json.Int (Option.value ~default:0 seed));
             ( "threshold",
               Stm_obs.Json.Int Stm_harness.Stress.starvation_threshold );
             ( "scenarios",
               Stm_obs.Json.Obj
                 (List.map
                    (fun r ->
                      ( Stm_harness.Stress.scenario_name
                          r.Stm_harness.Stress.scenario,
                        stress_report_json r ))
                    reports) );
           ]))
    metrics_out;
  if List.for_all (fun r -> r.Stm_harness.Stress.completed) reports then 0
  else 1

(* ------------------------------------------------------------------ *)
(* Fuzz mode                                                           *)
(* ------------------------------------------------------------------ *)

let sanitize_name s =
  String.map
    (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.') as c -> c | _ -> '_')
    s

let run_fuzz ~programs ~seeds ~driver ~dir ~seed ~fuel ~validation ~metrics_out
    ~diag_out =
  let open Stm_check in
  let budget =
    {
      Fuzz.default_budget with
      Fuzz.programs;
      seeds;
      base_seed = Option.value seed ~default:Fuzz.default_budget.Fuzz.base_seed;
      max_steps = Option.value fuel ~default:Fuzz.default_budget.Fuzz.max_steps;
      driver;
    }
  in
  Option.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    dir;
  (* Fuzz mode feeds the flight recorder through [on_anomaly] alone:
     each unexpected anomaly freezes an incident naming the campaign,
     program seed and schedule seed. *)
  let diag = Option.map (fun _ -> Stm_diag.Diag.create ()) diag_out in
  let on_anomaly =
    Option.map
      (fun d c ~prog_seed ~sched_seed ->
        Stm_diag.Diag.force_incident d
          ~reason:
            (Printf.sprintf "%s: unexpected anomaly on program %d schedule %d"
               (Fuzz.campaign_name c) prog_seed sched_seed))
      diag
  in
  let log msg = Fmt.pr "    %s@." msg in
  let results =
    List.map
      (fun c ->
        let r = Fuzz.run_campaign ~log ?on_anomaly budget c in
        Fmt.pr "%-40s %4d runs %3d anomalies %3d inconclusive  %s@."
          (Fuzz.campaign_name c) r.Fuzz.runs r.Fuzz.anomalies
          r.Fuzz.inconclusive
          (if r.Fuzz.ok then "ok" else "FAIL");
        (match (r.Fuzz.repro, dir) with
        | Some repro, Some d ->
            let path =
              Filename.concat d (sanitize_name (Fuzz.campaign_name c) ^ ".json")
            in
            Repro.save path repro;
            Fmt.pr "    repro written to %s@." path
        | Some repro, None ->
            if not r.Fuzz.ok then
              Fmt.pr "    repro: %s@." (Repro.to_string repro)
        | None, _ -> ());
        r)
      (* --validation timestamp swaps in the timestamp certification
         plan: expect-clean campaigns over the 24-combo timestamp grid *)
      (match validation with
      | Stm_core.Config.Incremental -> Fuzz.default_plan
      | Stm_core.Config.Timestamp -> Fuzz.timestamp_plan)
  in
  let summary = Fuzz.summary_json budget results in
  Option.iter (fun path -> write_json path summary) metrics_out;
  Option.iter
    (fun d ->
      let path = Option.get diag_out in
      write_json path (Stm_diag.Diag.to_json d);
      Fmt.pr "fuzz diag report written to %s@." path)
    diag;
  let ok = Fuzz.passed results in
  Fmt.pr "fuzz sweep: %d campaigns, %d runs, %s@." (List.length results)
    (List.fold_left (fun a r -> a + r.Stm_check.Fuzz.runs) 0 results)
    (if ok then "all expectations met" else "EXPECTATIONS VIOLATED");
  if ok then 0 else 1

(* --fuzz-differential: the same seeded programs and schedules run on
   every backend in the grid (eager, lazy, mvcc-serializable, all
   certified serializable, plus mvcc-snapshot certified at snapshot
   isolation); any member certifying anomalous at its own level is a
   cross-backend divergence, saved as a replayable repro. *)
let run_fuzz_differential ~programs ~seeds ~dir ~seed ~fuel ~validation
    ~metrics_out =
  let open Stm_check in
  let budget =
    {
      Fuzz.default_budget with
      Fuzz.programs;
      seeds;
      base_seed = Option.value seed ~default:Fuzz.default_budget.Fuzz.base_seed;
      max_steps = Option.value fuel ~default:Fuzz.default_budget.Fuzz.max_steps;
    }
  in
  Option.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    dir;
  let log msg = Fmt.pr "    %s@." msg in
  (* --validation timestamp widens the grid with eager-ts and lazy-ts:
     the same programs and schedules under both validation schemes *)
  let combos =
    match validation with
    | Stm_core.Config.Incremental -> Fuzz.backend_grid
    | Stm_core.Config.Timestamp -> Fuzz.timestamp_backend_grid
  in
  let r = Fuzz.run_differential ~log ~combos budget in
  Fmt.pr "backend grid:@.";
  List.iter
    (fun c -> Fmt.pr "  %s@." (Combo.name c))
    r.Fuzz.diff_combos;
  List.iter
    (fun (d : Fuzz.divergence) ->
      Fmt.pr "DIVERGENCE program seed %d, schedule seed %d:@."
        d.Fuzz.div_prog_seed d.Fuzz.div_sched_seed;
      List.iter
        (fun (combo, v) ->
          Fmt.pr "  %-32s %a@." combo Stm_check.History.pp_verdict v)
        d.Fuzz.div_verdicts;
      List.iteri
        (fun i repro ->
          match dir with
          | Some dd ->
              let path =
                Filename.concat dd
                  (Fmt.str "divergence-p%d-s%d-%d.json" d.Fuzz.div_prog_seed
                     d.Fuzz.div_sched_seed i)
              in
              Repro.save path repro;
              Fmt.pr "  repro written to %s@." path
          | None -> Fmt.pr "  repro: %s@." (Repro.to_string repro))
        d.Fuzz.div_repros)
    r.Fuzz.divergences;
  Option.iter
    (fun path -> write_json path (Fuzz.differential_to_json r))
    metrics_out;
  let ok = Fuzz.differential_passed r in
  Fmt.pr
    "differential sweep: %d backends x %d programs, %d executions, %d \
     divergences — %s@."
    (List.length r.Fuzz.diff_combos)
    r.Fuzz.diff_programs r.Fuzz.diff_executions
    (List.length r.Fuzz.divergences)
    (if ok then "backends agree" else "BACKENDS DIVERGED");
  if ok then 0 else 1

(* ------------------------------------------------------------------ *)
(* Perf mode: host wall-clock microbenchmarks                          *)
(* ------------------------------------------------------------------ *)

(* --diag-gate: the diagnosis layer must be free when disabled. The STM
   hot paths (the txn/ benches) and the explorer cell (fig6/) run with no
   trace sink installed, so merging the diag code must not move them:
   hold those benches to a tighter budget than the general ratchet. *)
let diag_gate_pct = 5.0

let diag_gated c =
  let pre p =
    String.length c.Stm_perf.Perf.c_name >= String.length p
    && String.sub c.Stm_perf.Perf.c_name 0 (String.length p) = p
  in
  pre "txn/" || pre "fig6/"

(* Each backend (and validation scheme) ratchets against its own
   checked-in baseline; an explicit --perf-baseline overrides the
   choice. *)
let default_baseline backend validation =
  match (backend, validation) with
  | Stm_core.Config.Mvcc, _ -> "bench/baseline-mvcc.json"
  | ( (Stm_core.Config.Eager | Stm_core.Config.Lazy),
      Stm_core.Config.Timestamp ) ->
      "bench/baseline-timestamp.json"
  | ( (Stm_core.Config.Eager | Stm_core.Config.Lazy),
      Stm_core.Config.Incremental ) ->
      "bench/baseline.json"

let run_perf ~quick ~backend ~validation ~out ~baseline ~threshold ~diag_gate =
  let baseline =
    Option.value baseline ~default:(default_baseline backend validation)
  in
  let report = Stm_perf.Perf.suite ~quick ~backend ~validation () in
  Fmt.pr "backend: %s (%s validation)@."
    (Stm_core.Config.versioning_to_string backend)
    (Stm_core.Config.validation_to_string validation);
  Fmt.pr "%a" Stm_perf.Perf.pp_report report;
  write_json out (Stm_perf.Perf.to_json report);
  Fmt.pr "perf results written to %s@." out;
  if not (Sys.file_exists baseline) then begin
    Fmt.pr "no baseline at %s; skipping regression check@." baseline;
    0
  end
  else
    let doc = In_channel.with_open_text baseline In_channel.input_all in
    match Stm_obs.Json.of_string doc with
    | Error msg ->
        Fmt.epr "cannot parse baseline %s: %s@." baseline msg;
        2
    | Ok json ->
        let base = Stm_perf.Perf.baseline_of_json json in
        let comps = Stm_perf.Perf.compare_to_baseline ~baseline:base report in
        Fmt.pr "vs %s:@.%a" baseline Stm_perf.Perf.pp_comparison comps;
        let regressed =
          Stm_perf.Perf.regressions ~threshold_pct:threshold comps
        in
        let diag_regressed =
          if not diag_gate then []
          else
            Stm_perf.Perf.regressions ~threshold_pct:diag_gate_pct
              (List.filter diag_gated comps)
        in
        if diag_gate then
          Fmt.pr "diag overhead gate: %d txn/fig6 benches held to %.0f%%@."
            (List.length (List.filter diag_gated comps))
            diag_gate_pct;
        if regressed = [] && diag_regressed = [] then begin
          Fmt.pr "no microbench regressed more than %.0f%%@." threshold;
          0
        end
        else begin
          List.iter
            (fun c ->
              Fmt.epr "REGRESSION %s: %.0f ns/op vs baseline %.0f (>%g%%)@."
                c.Stm_perf.Perf.c_name c.Stm_perf.Perf.c_ns
                c.Stm_perf.Perf.c_baseline_ns threshold)
            regressed;
          List.iter
            (fun c ->
              Fmt.epr
                "DIAG OVERHEAD %s: %.0f ns/op vs baseline %.0f (>%g%% with \
                 diagnosis disabled)@."
                c.Stm_perf.Perf.c_name c.Stm_perf.Perf.c_ns
                c.Stm_perf.Perf.c_baseline_ns diag_gate_pct)
            diag_regressed;
          1
        end

(* ------------------------------------------------------------------ *)
(* Store mode: KV workload engine                                      *)
(* ------------------------------------------------------------------ *)

type store_opts = {
  so_mode : Stm_store.Kv.mode;
  so_shards : int;
  so_clients : int;
  so_keys : int;
  so_ops : int;
  so_batch : int;
  so_value_size : int;
  so_dist : string;
  so_theta : float;
  so_check : bool;
}

let store_dist so =
  match Stm_store.Keydist.dist_of_string ~theta:so.so_theta so.so_dist with
  | Some d -> d
  | None ->
      Fmt.failwith "unknown key distribution %s (expected zipfian or uniform)"
        so.so_dist

let store_params so profile ~record ~mode ~shards cm seed fuel =
  {
    Stm_store.Engine.default with
    Stm_store.Engine.mode;
    shards;
    clients = so.so_clients;
    keys = so.so_keys;
    value_size = so.so_value_size;
    batch = so.so_batch;
    ops_per_client = so.so_ops;
    dist = store_dist so;
    profile;
    seed = Option.value seed ~default:0;
    cm;
    record;
    fuel =
      Option.value fuel
        ~default:Stm_store.Engine.default.Stm_store.Engine.fuel;
  }

(* One profile run, with the optional diagnosis pipeline attached the
   same way --stress attaches it; the heatmap's hot granules are joined
   back to store keys through the report's oid resolver. *)
let run_store_profile so profile cm seed fuel metrics_out diag_out =
  let p =
    store_params so profile ~record:so.so_check ~mode:so.so_mode
      ~shards:so.so_shards cm seed fuel
  in
  let diag = diag_create diag_out in
  let r =
    Stm_core.Trace.with_sinks (diag_sinks diag) (fun () ->
        Stm_store.Engine.run p)
  in
  Fmt.pr "%a@." Stm_store.Engine.pp_report r;
  Option.iter
    (fun (d, rec_) ->
      let path = Option.get diag_out in
      (try
         Out_channel.with_open_text path (fun oc ->
             Stm_obs.Export.write_jsonl oc (Stm_obs.Recorder.entries rec_))
       with Sys_error msg ->
         Fmt.epr "cannot write %s: %s@." path msg;
         exit 2);
      Fmt.pr "@.=== conflict diagnosis ===@.%a"
        (fun ppf -> Stm_diag.Diag.report ppf)
        d;
      Fmt.pr "hot keys (heatmap granules resolved to store keys):@.";
      List.iter
        (fun (c : Stm_diag.Heatmap.cell) ->
          match r.Stm_store.Engine.r_resolve_oid c.Stm_diag.Heatmap.oid with
          | Some (k, sh) ->
              Fmt.pr "  key %-6d shard %-3d heat %d@." k sh
                (Stm_diag.Heatmap.heat c)
          | None ->
              Fmt.pr "  oid %-6d (store structure)  heat %d@."
                c.Stm_diag.Heatmap.oid
                (Stm_diag.Heatmap.heat c))
        (Stm_diag.Heatmap.top (Stm_diag.Diag.heatmap d) ~k:10);
      Fmt.pr "diag trace written to %s (replay with stm_diag)@." path)
    diag;
  Option.iter
    (fun path -> write_json path (Stm_store.Engine.to_json r))
    metrics_out;
  let failures = ref [] in
  let fail fmt = Fmt.kstr (fun s -> failures := s :: !failures) fmt in
  if not r.Stm_store.Engine.r_completed then fail "run did not complete";
  List.iter (fun v -> fail "invariant violated: %s" v)
    r.Stm_store.Engine.r_invariants;
  (* Weak mode is *expected* to misbehave on mixed traffic — its verdict
     and deviation are findings, not failures. *)
  (match (so.so_mode, r.Stm_store.Engine.r_verdict) with
  | (Stm_store.Kv.Strong | Stm_store.Kv.Lock | Stm_store.Kv.Mvcc), Some verdict
    -> (
      match verdict with
      | Stm_check.History.Serializable -> ()
      | v ->
          fail "oracle rejected a %s-mode run: %a"
            (Stm_store.Kv.mode_to_string so.so_mode)
            Stm_check.History.pp_verdict v)
  | _ -> ());
  (match (so.so_mode, r.Stm_store.Engine.r_deviation) with
  | (Stm_store.Kv.Strong | Stm_store.Kv.Lock | Stm_store.Kv.Mvcc), Some d
    when d <> 0 ->
      fail "update deviation %d in %s mode" d
        (Stm_store.Kv.mode_to_string so.so_mode)
  | _ -> ());
  match !failures with
  | [] -> 0
  | fs ->
      List.iter (fun f -> Fmt.epr "STORE FAILURE: %s@." f) (List.rev fs);
      1

(* The acceptance sweep: shard scaling on read-heavy Zipfian traffic,
   then strong-vs-weak barrier overhead on the same traffic. *)
let sweep_shards = [ 1; 2; 4; 8 ]

let run_store_sweep so cm seed fuel metrics_out =
  let profile = Stm_store.Profile.read_heavy in
  let mk mode shards =
    store_params so profile ~record:false ~mode ~shards cm seed fuel
  in
  Fmt.pr "== shard scaling: %s, %s, %d clients ==@."
    profile.Stm_store.Profile.pname
    (Stm_store.Keydist.dist_to_string (store_dist so))
    so.so_clients;
  let points =
    List.map
      (fun s ->
        let r = Stm_store.Engine.run (mk Stm_store.Kv.Strong s) in
        Fmt.pr "%a@." Stm_store.Engine.pp_report r;
        (s, r))
      sweep_shards
  in
  let thr (_, r) = r.Stm_store.Engine.r_throughput in
  let first = List.hd points and last = List.nth points (List.length points - 1) in
  let scaling_ok = thr last > thr first in
  Fmt.pr "shard scaling %d -> %d: %.1f -> %.1f ops/Mcycle (%s)@.@." (fst first)
    (fst last) (thr first) (thr last)
    (if scaling_ok then "ok" else "NOT SCALING");
  Fmt.pr "== barrier overhead: strong vs weak, %d shards ==@." so.so_shards;
  let rs = Stm_store.Engine.run (mk Stm_store.Kv.Strong so.so_shards) in
  Fmt.pr "%a@." Stm_store.Engine.pp_report rs;
  let rw = Stm_store.Engine.run (mk Stm_store.Kv.Weak so.so_shards) in
  Fmt.pr "%a@." Stm_store.Engine.pp_report rw;
  (* Overhead is measured where barriers live: the per-op latency of the
     non-transactional classes. Makespan would fold in contention-manager
     timing noise (abort/backoff divergence between the two runs). *)
  let lat_strong = Stm_store.Engine.nontxn_mean_latency rs in
  let lat_weak = Stm_store.Engine.nontxn_mean_latency rw in
  let overhead_pct =
    if lat_weak > 0. then (lat_strong -. lat_weak) /. lat_weak *. 100. else 0.
  in
  Fmt.pr
    "strong-atomicity barrier overhead at %d shards: %+.1f%% per \
     non-transactional op (%.1f vs %.1f cycles)@."
    so.so_shards overhead_pct lat_strong lat_weak;
  let runs = List.map snd points @ [ rs; rw ] in
  let completed =
    List.for_all (fun r -> r.Stm_store.Engine.r_completed) runs
  in
  let invariants_ok =
    List.for_all (fun r -> r.Stm_store.Engine.r_invariants = []) runs
  in
  Option.iter
    (fun path ->
      let open Stm_obs in
      write_json path
        (Json.Obj
           [
             ("schema", Json.Str "stm-store/1");
             ("kind", Json.Str "sweep");
             ( "scaling",
               Json.Obj
                 [
                   ("profile", Json.Str profile.Stm_store.Profile.pname);
                   ( "dist",
                     Json.Str (Stm_store.Keydist.dist_to_string (store_dist so))
                   );
                   ("clients", Json.Int so.so_clients);
                   ( "points",
                     Json.List
                       (List.map
                          (fun (s, r) ->
                            Json.Obj
                              [
                                ("shards", Json.Int s);
                                ( "throughput_ops_per_mcycle",
                                  Json.Float r.Stm_store.Engine.r_throughput );
                                ( "makespan",
                                  Json.Int r.Stm_store.Engine.r_makespan );
                              ])
                          points) );
                   ("scaling_ok", Json.Bool scaling_ok);
                 ] );
             ( "barrier_overhead",
               Json.Obj
                 [
                   ("shards", Json.Int so.so_shards);
                   ("strong_makespan", Json.Int rs.Stm_store.Engine.r_makespan);
                   ("weak_makespan", Json.Int rw.Stm_store.Engine.r_makespan);
                   ( "strong_throughput",
                     Json.Float rs.Stm_store.Engine.r_throughput );
                   ( "weak_throughput",
                     Json.Float rw.Stm_store.Engine.r_throughput );
                   ("strong_nontxn_latency", Json.Float lat_strong);
                   ("weak_nontxn_latency", Json.Float lat_weak);
                   ("overhead_pct", Json.Float overhead_pct);
                   ("overhead_positive", Json.Bool (overhead_pct > 0.));
                 ] );
             ( "runs",
               Json.List (List.map Stm_store.Engine.to_json runs) );
           ]))
    metrics_out;
  if completed && invariants_ok && scaling_ok && overhead_pct > 0. then 0
  else begin
    if not completed then Fmt.epr "STORE FAILURE: a sweep run did not complete@.";
    if not invariants_ok then Fmt.epr "STORE FAILURE: invariant violations@.";
    if not scaling_ok then
      Fmt.epr "STORE FAILURE: throughput did not increase with shard count@.";
    if overhead_pct <= 0. then
      Fmt.epr "STORE FAILURE: strong-atomicity barrier overhead not measurable@.";
    1
  end

let run_store which so cm seed fuel metrics_out diag_out =
  match which with
  | "sweep" -> run_store_sweep so cm seed fuel metrics_out
  | name -> (
      match Stm_store.Profile.of_string name with
      | Some profile ->
          run_store_profile so profile cm seed fuel metrics_out diag_out
      | None ->
          Fmt.failwith
            "unknown store profile %s (try --list; or --store sweep)" name)

(* ------------------------------------------------------------------ *)
(* List mode                                                           *)
(* ------------------------------------------------------------------ *)

let run_list () =
  Fmt.pr "figures (positional FIGURE argument):@.";
  List.iter (fun f -> Fmt.pr "  %s@." f) all_figures;
  Fmt.pr "@.workloads (Jt programs behind the figures):@.";
  List.iter
    (fun fam ->
      Fmt.pr "  %-8s %s@." fam.Stm_workloads.Catalog.fam_name
        fam.Stm_workloads.Catalog.fam_descr;
      List.iter
        (fun (w : Stm_workloads.Workload.t) ->
          Fmt.pr "    %-12s %s@." w.Stm_workloads.Workload.name
            w.Stm_workloads.Workload.descr)
        fam.Stm_workloads.Catalog.members)
    Stm_workloads.Catalog.families;
  Fmt.pr "@.store profiles (--store PROFILE, or --store sweep):@.";
  List.iter
    (fun (p : Stm_store.Profile.t) ->
      Fmt.pr "  %-12s %-10s %s@." p.Stm_store.Profile.pname
        (match p.Stm_store.Profile.aliases with
        | [] -> ""
        | a -> "(" ^ String.concat ", " a ^ ")")
        p.Stm_store.Profile.pdescr)
    Stm_store.Profile.all;
  Fmt.pr "@.stress scenarios (--stress SCENARIO):@.";
  List.iter
    (fun s -> Fmt.pr "  %s@." (Stm_harness.Stress.scenario_name s))
    Stm_harness.Stress.all_scenarios;
  Fmt.pr "@.fuzz campaigns (--fuzz):@.";
  List.iter
    (fun c -> Fmt.pr "  %s@." (Stm_check.Fuzz.campaign_name c))
    Stm_check.Fuzz.default_plan;
  Fmt.pr
    "@.validation modes (--validation; selects the fuzz plan, the \
     differential grid, stress/perf configs and the perf baseline):@.";
  List.iter
    (fun (v, descr) ->
      Fmt.pr "  %-12s %s@." (Stm_core.Config.validation_to_string v) descr)
    [
      ( Stm_core.Config.Incremental,
        "per-checkpoint read-set walk (the default)" );
      ( Stm_core.Config.Timestamp,
        "global commit clock: O(1) revalidation, timestamp extension, \
         read-only fast-path commits" );
    ];
  Fmt.pr "@.timestamp fuzz campaigns (--fuzz --validation timestamp):@.";
  List.iter
    (fun c -> Fmt.pr "  %s@." (Stm_check.Fuzz.campaign_name c))
    Stm_check.Fuzz.timestamp_plan;
  Fmt.pr "@.exploration engines (--explore; re-derive the litmus matrix):@.";
  List.iter
    (fun (e, descr) -> Fmt.pr "  %-6s %s@." e descr)
    [
      ( "dpor",
        "certification: race-reduced DPOR walk cross-checked against the \
         enumerative DFS at the same preemption bound; verdict flips and \
         incomplete \"no\" cells are fatal" );
      ("enum", "enumerative preemption-bounded DFS, held to the paper");
      ( "pct",
        "probabilistic sampling; conclusive only for unexpected anomalies" );
    ];
  Fmt.pr "@.perf benches (--perf):@.";
  List.iter (fun n -> Fmt.pr "  %s@." n) Stm_perf.Perf.bench_names;
  0

(* ------------------------------------------------------------------ *)
(* Exploration-engine certification mode                               *)
(* ------------------------------------------------------------------ *)

(* --explore ENGINE: re-derive the litmus matrix with a chosen schedule
   engine. "dpor" is the certification mode: every cell is decided by
   both the enumerative DFS and the race-reduced DPOR walk at the same
   preemption bound, and a verdict flip — or a DPOR walk that fails to
   complete where the enumerative baseline finished — is fatal. "enum"
   re-derives the cells with the DFS alone; "pct" samples them with
   probabilistic concurrency testing, where only an anomaly on an
   expected-"no" cell is conclusive (a sampler's silence certifies
   nothing, so missed "yes" cells are reported, not fatal). *)

let explore_cells ~bound rows =
  let all = Stm_litmus.Matrix.full_matrix ~bound () in
  match rows with
  | "fig6" ->
      List.filter
        (fun (p, m, _) ->
          List.mem_assoc p.Stm_litmus.Programs.name
            Stm_litmus.Matrix.expected_fig6
          && List.mem m Stm_litmus.Modes.all_fig6)
        all
  | "all" -> all
  | other ->
      Fmt.failwith "unknown --explore-rows %s (expected fig6 or all)" other

let cell_json (c : Stm_litmus.Matrix.cell) =
  let open Stm_obs in
  [
    ("program", Json.Str c.Stm_litmus.Matrix.program.Stm_litmus.Programs.name);
    ("mode", Json.Str (Stm_litmus.Modes.name c.Stm_litmus.Matrix.mode));
    ("expected", Json.Bool c.Stm_litmus.Matrix.expected);
    ("observed", Json.Bool c.Stm_litmus.Matrix.observed);
    ("runs", Json.Int c.Stm_litmus.Matrix.runs);
    ("truncated", Json.Bool c.Stm_litmus.Matrix.truncated);
  ]

let run_explore_dpor ~bound ~max_runs ~rows ~cells_out =
  let open Stm_obs in
  let cells = explore_cells ~bound rows in
  Fmt.pr "certifying %d cells at preemption bound %d (dpor vs enum)@."
    (List.length cells) bound;
  let results =
    List.map
      (fun (p, m, b) ->
        let c =
          Stm_litmus.Matrix.certify_cell ~preemption_bound:b ?max_runs p m
        in
        Fmt.pr "%a@." Stm_litmus.Matrix.pp_certified c;
        c)
      cells
  in
  let total f = List.fold_left (fun a c -> a + f c) 0 results in
  let enum_total =
    total (fun c -> c.Stm_litmus.Matrix.enum.Stm_litmus.Matrix.runs)
  in
  let dpor_total =
    total (fun c -> c.Stm_litmus.Matrix.dpor.Stm_litmus.Matrix.runs)
  in
  let flips =
    List.filter
      (fun c ->
        c.Stm_litmus.Matrix.dpor.Stm_litmus.Matrix.observed
        <> c.Stm_litmus.Matrix.enum.Stm_litmus.Matrix.observed)
      results
  in
  let incomplete =
    List.filter (fun c -> not (Stm_litmus.Matrix.cell_certified c)) results
  in
  let mismatches =
    List.filter
      (fun c ->
        c.Stm_litmus.Matrix.enum.Stm_litmus.Matrix.observed
        <> c.Stm_litmus.Matrix.enum.Stm_litmus.Matrix.expected)
      results
  in
  let ratio =
    if dpor_total = 0 then 0.
    else float_of_int enum_total /. float_of_int dpor_total
  in
  Fmt.pr
    "total runs: enum %d, dpor %d (%.2fx reduction); %d verdict flips, %d \
     uncertified, %d paper mismatches@."
    enum_total dpor_total ratio (List.length flips) (List.length incomplete)
    (List.length mismatches);
  let ok = incomplete = [] && mismatches = [] in
  Option.iter
    (fun path ->
      write_json path
        (Json.Obj
           [
             ("engine", Json.Str "dpor");
             ("preemption_bound", Json.Int bound);
             ( "cells",
               Json.List
                 (List.map
                    (fun c ->
                      Json.Obj
                        (cell_json c.Stm_litmus.Matrix.dpor
                        @ [
                            ( "enum_observed",
                              Json.Bool
                                c.Stm_litmus.Matrix.enum
                                  .Stm_litmus.Matrix.observed );
                            ( "enum_runs",
                              Json.Int
                                c.Stm_litmus.Matrix.enum.Stm_litmus.Matrix.runs
                            );
                            ("complete", Json.Bool c.Stm_litmus.Matrix.complete);
                            ("races", Json.Int c.Stm_litmus.Matrix.races);
                            ( "certified",
                              Json.Bool (Stm_litmus.Matrix.cell_certified c) );
                          ]))
                    results) );
             ("enum_runs_total", Json.Int enum_total);
             ("dpor_runs_total", Json.Int dpor_total);
             ("run_ratio", Json.Float ratio);
             ("flips", Json.Int (List.length flips));
             ("passed", Json.Bool ok);
           ]))
    cells_out;
  if ok then 0 else 1

let run_explore_cells ~engine ~bound ~runner ~rows ~cells_out =
  let open Stm_obs in
  let cells = explore_cells ~bound rows in
  Fmt.pr "re-deriving %d cells with the %s engine@." (List.length cells) engine;
  let results =
    List.map
      (fun (p, m, b) ->
        let (c : Stm_litmus.Matrix.cell) = runner ~bound:b p m in
        Fmt.pr "%-14s %-14s %s expected=%b runs=%d@."
          c.Stm_litmus.Matrix.program.Stm_litmus.Programs.name
          (Stm_litmus.Modes.name c.Stm_litmus.Matrix.mode)
          (if c.Stm_litmus.Matrix.observed then "yes" else "no ")
          c.Stm_litmus.Matrix.expected c.Stm_litmus.Matrix.runs;
        c)
      cells
  in
  let false_yes =
    List.filter
      (fun (c : Stm_litmus.Matrix.cell) ->
        c.Stm_litmus.Matrix.observed && not c.Stm_litmus.Matrix.expected)
      results
  in
  let missed =
    List.filter
      (fun (c : Stm_litmus.Matrix.cell) ->
        c.Stm_litmus.Matrix.expected && not c.Stm_litmus.Matrix.observed)
      results
  in
  (* The enumerative DFS at the standard bound must reproduce the paper
     exactly; a sampler is only held to the one-sided check. *)
  let ok =
    match engine with
    | "pct" ->
        if missed <> [] then
          Fmt.pr "note: %d expected-yes cells not reached by sampling@."
            (List.length missed);
        false_yes = []
    | _ -> false_yes = [] && missed = []
  in
  Fmt.pr "%d cells, %d unexpected anomalies, %d missed witnesses: %s@."
    (List.length results) (List.length false_yes) (List.length missed)
    (if ok then "ok" else "FAIL");
  Option.iter
    (fun path ->
      write_json path
        (Json.Obj
           [
             ("engine", Json.Str engine);
             ( "cells",
               Json.List (List.map (fun c -> Json.Obj (cell_json c)) results)
             );
             ("passed", Json.Bool ok);
           ]))
    cells_out;
  if ok then 0 else 1

let run_explore ~engine ~bound ~max_runs ~rows ~cells_out =
  match engine with
  | "dpor" -> run_explore_dpor ~bound ~max_runs ~rows ~cells_out
  | "enum" ->
      run_explore_cells ~engine ~bound ~rows ~cells_out
        ~runner:(fun ~bound p m ->
          Stm_litmus.Matrix.run_cell ~preemption_bound:bound ?max_runs p m)
  | "pct" ->
      run_explore_cells ~engine ~bound ~rows ~cells_out
        ~runner:(fun ~bound:_ p m ->
          Stm_litmus.Matrix.run_cell_pct ?runs:max_runs p m)
  | other ->
      Fmt.failwith "unknown --explore engine %s (expected dpor, enum, or pct)"
        other

(* ------------------------------------------------------------------ *)
(* Entry                                                               *)
(* ------------------------------------------------------------------ *)

let main list store store_opts name scale threads backend isolation validation
    cm stress seed fuel metrics_out diag_out fuzz fuzz_differential
    fuzz_programs fuzz_seeds fuzz_driver fuzz_dir explore explore_bound
    explore_runs explore_rows cells_out perf quick perf_out perf_baseline
    perf_threshold diag_gate =
  if list then run_list ()
  else
  match store with
  | Some which -> (
      try run_store which store_opts cm seed fuel metrics_out diag_out
      with Failure m | Invalid_argument m ->
        Fmt.epr "%s@." m;
        exit 2)
  | None ->
  match explore with
  | Some engine -> (
      try
        run_explore ~engine ~bound:explore_bound ~max_runs:explore_runs
          ~rows:explore_rows ~cells_out
      with Failure m ->
        Fmt.epr "%s@." m;
        exit 2)
  | None ->
  if perf then
    run_perf ~quick ~backend ~validation ~out:perf_out
      ~baseline:perf_baseline ~threshold:perf_threshold ~diag_gate
  else if fuzz_differential then
    run_fuzz_differential ~programs:fuzz_programs ~seeds:fuzz_seeds
      ~dir:fuzz_dir ~seed ~fuel ~validation ~metrics_out
  else if fuzz then
    let driver =
      match fuzz_driver with
      | "random" -> Stm_check.Fuzz.Drv_random
      | "explore" -> Stm_check.Fuzz.Drv_explore
      | "dpor" -> Stm_check.Fuzz.Drv_dpor
      | other ->
          Fmt.epr "unknown fuzz driver %s (expected random, explore, or dpor)@."
            other;
          exit 2
    in
    run_fuzz ~programs:fuzz_programs ~seeds:fuzz_seeds ~driver ~dir:fuzz_dir
      ~seed ~fuel ~validation ~metrics_out ~diag_out
  else
  match stress with
  | Some which -> (
      try
        run_stress which backend isolation validation cm seed fuel metrics_out
          diag_out
      with Failure m ->
        Fmt.epr "%s@." m;
        exit 2)
  | None ->
      let name =
        match name with
        | Some n -> n
        | None ->
            Fmt.epr "a FIGURE argument or --stress is required@.";
            exit 2
      in
      (* Collect run metrics across every figure executed by this
         invocation; an Info-level subscriber keeps the per-access Debug
         events unforced, so figure timings are unaffected on the fast
         paths. *)
      let metrics = Option.map (fun _ -> Stm_obs.Metrics.create ()) metrics_out in
      let ok =
        try
          Stm_core.Trace.with_sinks
            (Option.fold metrics ~none:[] ~some:(fun m ->
                 [ (Stm_core.Trace.Info, Stm_obs.Metrics.handle m) ]))
            (fun () ->
              if name = "all" then
                List.fold_left
                  (fun acc f ->
                    Fmt.pr "== %s ==@." f;
                    run_figure f scale threads (Some cm) && acc)
                  true all_figures
              else run_figure name scale threads (Some cm))
        with Failure m ->
          Fmt.epr "%s@." m;
          exit 2
      in
      Option.iter
        (fun m ->
          write_json (Option.get metrics_out) (Stm_obs.Metrics.to_json m))
        metrics;
      if ok then 0 else 1

let cm_conv =
  let parse s =
    match Stm_cm.Policy.of_string s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
            (Fmt.str "unknown contention-management policy %s (expected %s)" s
               (String.concat ", "
                  (List.map Stm_cm.Policy.to_string Stm_cm.Policy.all))))
  in
  Arg.conv (parse, Stm_cm.Policy.pp)

let name_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"FIGURE"
        ~doc:"One of fig6, privatization, fig13, fig15, fig16, fig17, fig18, fig19, fig20, all. Optional when $(b,--stress) or $(b,--fuzz) is given.")

let scale_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "scale" ] ~docv:"F" ~doc:"Workload scale factor (default 1.0).")

let threads_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "threads" ] ~docv:"LIST"
        ~doc:"Comma-separated simulated processor counts for fig18-20.")

let backend_conv =
  let parse s =
    match Stm_core.Config.versioning_of_string s with
    | Some v -> Ok v
    | None ->
        Error
          (`Msg (Fmt.str "unknown backend %s (expected eager, lazy, or mvcc)" s))
  in
  Arg.conv
    ( parse,
      fun ppf v -> Fmt.string ppf (Stm_core.Config.versioning_to_string v) )

let backend_arg =
  Arg.(
    value
    & opt backend_conv Stm_core.Config.Eager
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Versioning backend: $(b,eager) (in-place + undo log, the \
           default), $(b,lazy) (write buffer), or $(b,mvcc) (bounded \
           per-granule version chains; read-only transactions run \
           abort-free against consistent snapshots). Applies to \
           $(b,--stress) runs and selects which benches/baseline \
           $(b,--perf) uses; $(b,--store) has its own $(b,--store-mode \
           mvcc).")

let isolation_conv =
  let parse s =
    match Stm_core.Config.isolation_of_string s with
    | Some i -> Ok i
    | None ->
        Error
          (`Msg
            (Fmt.str "unknown isolation level %s (expected serializable or \
                      snapshot)" s))
  in
  Arg.conv
    (parse, fun ppf i -> Fmt.string ppf (Stm_core.Config.isolation_to_string i))

let isolation_arg =
  Arg.(
    value
    & opt isolation_conv Stm_core.Config.Serializable
    & info [ "isolation" ] ~docv:"LEVEL"
        ~doc:
          "Isolation level for $(b,--backend mvcc): $(b,serializable) \
           (commit-time read revalidation, the default) or $(b,snapshot) \
           (first-committer-wins only — write skew and long fork are \
           admitted). The single-version backends ignore it.")

let validation_conv =
  let parse s =
    match Stm_core.Config.validation_of_string s with
    | Some v -> Ok v
    | None ->
        Error
          (`Msg
            (Fmt.str "unknown validation scheme %s (expected incremental or \
                      timestamp)" s))
  in
  Arg.conv
    ( parse,
      fun ppf v -> Fmt.string ppf (Stm_core.Config.validation_to_string v) )

let validation_arg =
  Arg.(
    value
    & opt validation_conv Stm_core.Config.Incremental
    & info [ "validation" ] ~docv:"SCHEME"
        ~doc:
          "Read-set validation scheme for the single-version backends: \
           $(b,incremental) (walk the read set at every checkpoint, the \
           default) or $(b,timestamp) (global commit clock: O(1) \
           revalidation while the clock is unchanged, timestamp extension \
           on reads past the snapshot, read-only fast-path commits). \
           Applies to $(b,--stress) and $(b,--perf) configurations, swaps \
           the $(b,--fuzz) plan for the timestamp certification grid, and \
           widens $(b,--fuzz-differential) with the eager-ts/lazy-ts \
           members. mvcc has its own commit clock and ignores it.")

let cm_arg =
  Arg.(
    value
    & opt cm_conv Stm_cm.Policy.Suicide
    & info [ "cm" ] ~docv:"POLICY"
        ~doc:
          "Contention-management policy: suicide, wound-wait, exp-backoff, karma, or timestamp. Applies to --stress runs and to fig6.")

let stress_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stress" ] ~docv:"SCENARIO"
        ~doc:
          "Run a contention stress scenario instead of a figure: long-vs-short, livelock-pair, inversion-chain, or all.")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Random-scheduler seed for --stress runs (also seeds randomized backoff); runs are reproducible per seed. Default 0.")

let fuel_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"STEPS"
        ~doc:
          "Scheduler step bound for --stress runs (default 2000000); exceeding it reports fuel-exhausted.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write aggregate STM metrics (transaction counters, abort causes, latency histograms, per-thread fairness incl. the Jain index) as JSON to $(docv).")

let diag_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "diag-out" ] ~docv:"FILE"
        ~doc:
          "For --stress runs: attach the conflict-diagnosis pipeline (contention heatmap, abort-causality graph, flight recorder) live, print its report after the scenario reports, and write the full Debug-level event stream as a JSONL trace to $(docv) for offline replay with $(b,stm_diag). A starvation verdict forces a flight-recorder incident.")

let fuzz_arg =
  Arg.(
    value & flag
    & info [ "fuzz" ]
        ~doc:
          "Run the property-based differential fuzz sweep: random programs per (configuration combo, profile) campaign, checked against the serializability oracle; counterexamples are shrunk and printed (or saved with $(b,--fuzz-dir)) as replayable JSON. Non-zero exit when any campaign misses its expectation. $(b,--seed) sets the base seed, $(b,--fuel) the per-run scheduler budget, $(b,--metrics-out) the JSON summary path.")

let fuzz_differential_arg =
  Arg.(
    value & flag
    & info [ "fuzz-differential" ]
        ~doc:
          "Run the cross-backend differential fuzz sweep: the same seeded \
           transaction-only programs under the same schedule seeds on every \
           backend in the grid (eager, lazy, mvcc at serializable — all \
           certified serializable — plus mvcc at snapshot isolation, \
           certified at snapshot level). Any member certifying anomalous at \
           its own level is a divergence: its verdicts are printed, a \
           replayable repro per anomalous member is saved with \
           $(b,--fuzz-dir), and the exit status is non-zero. \
           $(b,--fuzz-programs), $(b,--fuzz-seeds), $(b,--seed), $(b,--fuel) \
           and $(b,--metrics-out) apply as for $(b,--fuzz).")

let fuzz_programs_arg =
  Arg.(
    value & opt int Stm_check.Fuzz.default_budget.Stm_check.Fuzz.programs
    & info [ "fuzz-programs" ] ~docv:"N"
        ~doc:"Generated programs per fuzz campaign.")

let fuzz_seeds_arg =
  Arg.(
    value & opt int Stm_check.Fuzz.default_budget.Stm_check.Fuzz.seeds
    & info [ "fuzz-seeds" ] ~docv:"N"
        ~doc:"Random schedules per generated program.")

let fuzz_driver_arg =
  Arg.(
    value & opt string "random"
    & info [ "fuzz-driver" ] ~docv:"DRIVER"
        ~doc:
          "Schedule source: $(b,random) (seeded random scheduler), \
           $(b,explore) (the litmus explorer's preemption-bounded DFS, one \
           search per program), or $(b,dpor) (the race-reduced DPOR walk, \
           same bound, far fewer runs).")

let explore_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "explore" ] ~docv:"ENGINE"
        ~doc:
          "Re-derive the litmus behaviour matrix with a schedule engine: \
           $(b,dpor) (certification mode — every cell decided by both the \
           race-reduced DPOR walk and the enumerative DFS at the same \
           preemption bound; any verdict flip, or a DPOR walk less complete \
           than a finished enumerative baseline, is a non-zero exit), \
           $(b,enum) (enumerative DFS alone, held to the paper's \
           expectations), or $(b,pct) (probabilistic sampling; only an \
           anomaly on an expected-\"no\" cell is fatal). See also \
           $(b,--explore-bound), $(b,--explore-runs), $(b,--explore-rows), \
           $(b,--cells-out).")

let explore_bound_arg =
  Arg.(
    value & opt int 2
    & info [ "explore-bound" ] ~docv:"N"
        ~doc:"Preemption bound for --explore dpor and enum (default 2).")

let explore_runs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "explore-runs" ] ~docv:"N"
        ~doc:
          "Run budget per cell: max explored schedules for $(b,dpor)/\
           $(b,enum) (default 40000 resp. 6000), sampling quota for \
           $(b,pct) (default 2000).")

let explore_rows_arg =
  Arg.(
    value & opt string "all"
    & info [ "explore-rows" ] ~docv:"ROWS"
        ~doc:
          "Cell set for --explore: $(b,all) (every matrix cell — Figure 6, \
           extras, privatization, SI, mvcc and timestamp columns) or \
           $(b,fig6) (the 45 Figure 6 cells, the CI smoke set).")

let cells_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cells-out" ] ~docv:"FILE"
        ~doc:
          "Write the per-cell --explore results (verdicts, run counts, \
           completeness, races) as JSON to $(docv) — the nightly CI \
           artifact.")

let perf_arg =
  Arg.(
    value & flag
    & info [ "perf" ]
        ~doc:
          "Run the host wall-clock performance suite (Bechamel): txn \
           read/write/commit/abort microbenches, the fig6 explorer cell, \
           the fig18 Tsp end-to-end unit and a fuzz-campaign throughput \
           unit. Writes JSON to $(b,--perf-out) and, when \
           $(b,--perf-baseline) exists, fails with non-zero exit if any \
           bench regresses more than $(b,--perf-threshold) percent.")

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:
          "Shrink the Bechamel sampling quota for CI smoke runs of \
           $(b,--perf) (same operations, fewer samples).")

let perf_out_arg =
  Arg.(
    value & opt string "BENCH_PR4.json"
    & info [ "perf-out" ] ~docv:"FILE"
        ~doc:"Where $(b,--perf) writes its JSON report.")

let perf_baseline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "perf-baseline" ] ~docv:"FILE"
        ~doc:
          "Baseline report to ratchet against (same schema as \
           $(b,--perf-out); refresh it by pointing $(b,--perf-out) here). \
           Defaults to $(b,bench/baseline.json), \
           $(b,bench/baseline-mvcc.json) under $(b,--backend mvcc), or \
           $(b,bench/baseline-timestamp.json) under $(b,--validation \
           timestamp). Missing file skips the check.")

let perf_threshold_arg =
  Arg.(
    value & opt float 25.0
    & info [ "perf-threshold" ] ~docv:"PCT"
        ~doc:"Allowed per-bench slowdown vs the baseline, in percent.")

let diag_gate_arg =
  Arg.(
    value & flag
    & info [ "diag-gate" ]
        ~doc:
          "With $(b,--perf): additionally hold the txn/* and fig6/* benches \
           (which run with no trace sink, i.e. diagnosis disabled) to a 5% \
           budget vs the baseline — the conflict-diagnosis layer must be \
           free when off.")

let list_arg =
  Arg.(
    value & flag
    & info [ "list" ]
        ~doc:
          "List everything this binary can run — figures, workloads, store \
           profiles, stress scenarios, fuzz campaigns, and perf benches — \
           then exit.")

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"PROFILE"
        ~doc:
          "Run the KV-store workload engine with the given operation-mix \
           profile (see $(b,--list); YCSB letter aliases accepted), or \
           $(b,sweep) for the acceptance sweep: shard scaling on read-heavy \
           Zipfian traffic plus strong-vs-weak barrier overhead on the same \
           traffic. Knobs: $(b,--store-mode), $(b,--shards), $(b,--clients), \
           $(b,--keys), $(b,--store-ops), $(b,--batch), $(b,--value-size), \
           $(b,--dist), $(b,--theta); $(b,--seed), $(b,--cm), $(b,--fuel), \
           $(b,--metrics-out) and $(b,--diag-out) apply as for --stress. \
           $(b,--store-check) records the run and audits it against the \
           serializability oracle.")

let store_mode_conv =
  let parse s =
    match Stm_store.Kv.mode_of_string s with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
            (Fmt.str
               "unknown store mode %s (expected strong, weak, lock, or mvcc)"
               s))
  in
  Arg.conv (parse, fun ppf m -> Fmt.string ppf (Stm_store.Kv.mode_to_string m))

let store_mode_arg =
  Arg.(
    value
    & opt store_mode_conv Stm_store.Kv.Strong
    & info [ "store-mode" ] ~docv:"MODE"
        ~doc:
          "Concurrency discipline for --store: $(b,strong) (STM, strong \
           atomicity barriers), $(b,weak) (STM, weak atomicity — mixed \
           traffic may exhibit Figure-6 anomalies), $(b,lock) (shard \
           mutexes, no barriers), or $(b,mvcc) (multi-version STM with \
           strong barriers; held to the same zero-deviation bar as strong \
           and lock).")

let shards_arg =
  Arg.(
    value & opt int 4
    & info [ "shards" ] ~docv:"N" ~doc:"Store shard count for --store.")

let clients_arg =
  Arg.(
    value & opt int 8
    & info [ "clients" ] ~docv:"N"
        ~doc:"Closed-loop client threads for --store.")

let keys_arg =
  Arg.(
    value & opt int 1024
    & info [ "keys" ] ~docv:"N" ~doc:"Preloaded key-space size for --store.")

let store_ops_arg =
  Arg.(
    value & opt int 128
    & info [ "store-ops" ] ~docv:"N"
        ~doc:"Operations per client for --store.")

let batch_arg =
  Arg.(
    value & opt int 8
    & info [ "batch" ] ~docv:"N"
        ~doc:"Keys per multi-get (and per scan) for --store.")

let value_size_arg =
  Arg.(
    value & opt int 4
    & info [ "value-size" ] ~docv:"WORDS"
        ~doc:"Heap words per store value; writes touch all of them.")

let dist_arg =
  Arg.(
    value & opt string "zipfian"
    & info [ "dist" ] ~docv:"DIST"
        ~doc:"Key distribution for --store: $(b,zipfian) or $(b,uniform).")

let theta_arg =
  Arg.(
    value & opt float 0.99
    & info [ "theta" ] ~docv:"F"
        ~doc:"Zipfian skew exponent in (0, 1) for --dist zipfian.")

let store_check_arg =
  Arg.(
    value & flag
    & info [ "store-check" ]
        ~doc:
          "With --store: rewrite stored values to globally-unique tokens, \
           record the value-access history, and check it against the \
           serializability oracle. Non-zero exit if a strong- or lock-mode \
           run is rejected (a weak-mode anomaly is reported, not fatal). \
           Only non-structural profiles (no insert/delete) can be checked.")

let store_opts_term =
  let mk so_mode so_shards so_clients so_keys so_ops so_batch so_value_size
      so_dist so_theta so_check =
    {
      so_mode;
      so_shards;
      so_clients;
      so_keys;
      so_ops;
      so_batch;
      so_value_size;
      so_dist;
      so_theta;
      so_check;
    }
  in
  Term.(
    const mk $ store_mode_arg $ shards_arg $ clients_arg $ keys_arg
    $ store_ops_arg $ batch_arg $ value_size_arg $ dist_arg $ theta_arg
    $ store_check_arg)

let fuzz_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fuzz-dir" ] ~docv:"DIR"
        ~doc:
          "Write every minimized counterexample as a replayable repro JSON file into $(docv) (created if missing); replay with $(b,stm_run --repro FILE).")

let cmd =
  let doc =
    "regenerate the PLDI 2007 evaluation figures, run contention stress \
     scenarios, and fuzz the STM against a serializability oracle"
  in
  Cmd.v
    (Cmd.info "stm_bench" ~doc)
    Term.(
      const main $ list_arg $ store_arg $ store_opts_term $ name_arg
      $ scale_arg $ threads_arg $ backend_arg $ isolation_arg $ validation_arg
      $ cm_arg $ stress_arg $ seed_arg $ fuel_arg $ metrics_arg $ diag_out_arg
      $ fuzz_arg $ fuzz_differential_arg $ fuzz_programs_arg $ fuzz_seeds_arg
      $ fuzz_driver_arg $ fuzz_dir_arg $ explore_arg $ explore_bound_arg
      $ explore_runs_arg $ explore_rows_arg $ cells_out_arg $ perf_arg
      $ quick_arg $ perf_out_arg $ perf_baseline_arg $ perf_threshold_arg
      $ diag_gate_arg)

let () = exit (Cmd.eval' cmd)
