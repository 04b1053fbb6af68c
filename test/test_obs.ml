(* Tests for the observability layer: JSON emitter, ring buffer,
   histograms, sink level filtering, the event recorder, the per-site
   barrier profiler (whose column sums must equal the run's global
   Stats), metrics snapshot/diff, and the exporters. *)

open Stm_runtime
open Stm_core
open Stm_obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let case name f = Alcotest.test_case name `Quick f

let in_sim f =
  let result = Sched.run f in
  (match result.Sched.exns with
  | [] -> ()
  | (tid, e) :: _ ->
      Alcotest.failf "thread %d raised %s" tid (Printexc.to_string e));
  Alcotest.(check bool) "completed" true (result.Sched.status = Sched.Completed)

let with_stm ?(cfg = Config.eager_weak) f =
  Heap.reset ();
  Stm.install cfg;
  Fun.protect ~finally:Stm.uninstall (fun () -> in_sim f)

let vi = Stm.vint

let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let json_basics () =
  check_string "null" "null" (Json.to_string Json.Null);
  check_string "int" "42" (Json.to_string (Json.Int 42));
  check_string "neg" "-7" (Json.to_string (Json.Int (-7)));
  check_string "bool" "true" (Json.to_string (Json.Bool true));
  check_string "list" "[1,2,3]"
    (Json.to_string (Json.List [ Json.Int 1; Json.Int 2; Json.Int 3 ]));
  check_string "obj" {|{"a":1,"b":[true,null]}|}
    (Json.to_string
       (Json.Obj
          [
            ("a", Json.Int 1);
            ("b", Json.List [ Json.Bool true; Json.Null ]);
          ]))

let json_escaping () =
  check_string "quotes and backslash" {|"a\"b\\c"|}
    (Json.to_string (Json.Str {|a"b\c|}));
  check_string "newline tab" {|"a\nb\tc"|}
    (Json.to_string (Json.Str "a\nb\tc"));
  check_string "control char" "\"\\u0001\"" (Json.to_string (Json.Str "\001"))

let json_of_assoc () =
  check_string "counters" {|{"x":1,"y":2}|}
    (Json.to_string (Json.of_assoc [ ("x", 1); ("y", 2) ]))

let json_unicode_escapes () =
  (* BMP code points decode to UTF-8 *)
  (match Json.of_string {|"caf\u00e9"|} with
  | Ok (Json.Str s) -> check_string "latin-1 supplement" "caf\xc3\xa9" s
  | _ -> Alcotest.fail "BMP escape did not parse");
  (match Json.of_string {|"\u2713"|} with
  | Ok (Json.Str s) -> check_string "3-byte BMP" "\xe2\x9c\x93" s
  | _ -> Alcotest.fail "U+2713 did not parse");
  (* a surrogate pair is one supplementary-plane code point: U+1F600 *)
  (match Json.of_string {|"\ud83d\ude00"|} with
  | Ok (Json.Str s) -> check_string "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "surrogate pair did not parse");
  (* decoded non-BMP text round-trips: the emitter passes raw UTF-8 *)
  (match Json.of_string {|"\ud83d\ude00"|} with
  | Ok j -> (
      match Json.of_string (Json.to_string j) with
      | Ok j' -> check_string "round trip" (Json.to_string j) (Json.to_string j')
      | Error e -> Alcotest.failf "re-parse failed: %s" e)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (* lone surrogates are rejected, not silently mangled *)
  check_bool "lone high surrogate rejected" true
    (Result.is_error (Json.of_string {|"\ud83d"|}));
  check_bool "lone low surrogate rejected" true
    (Result.is_error (Json.of_string {|"\ude00x"|}));
  check_bool "high surrogate before non-escape rejected" true
    (Result.is_error (Json.of_string {|"\ud83dZ"|}))

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)
(* ------------------------------------------------------------------ *)

let ring_basics () =
  let r = Ring.create ~capacity:4 in
  check_int "empty" 0 (Ring.length r);
  Ring.push r 1;
  Ring.push r 2;
  check_int "two" 2 (Ring.length r);
  check_bool "order" true (Ring.to_list r = [ 1; 2 ]);
  check_int "no drops" 0 (Ring.dropped r)

let ring_wraps () =
  let r = Ring.create ~capacity:3 in
  List.iter (Ring.push r) [ 1; 2; 3; 4; 5 ];
  check_int "full" 3 (Ring.length r);
  check_int "dropped oldest" 2 (Ring.dropped r);
  check_bool "keeps newest, oldest first" true (Ring.to_list r = [ 3; 4; 5 ]);
  Ring.clear r;
  check_int "cleared" 0 (Ring.length r);
  check_int "drop count cleared" 0 (Ring.dropped r)

(* ------------------------------------------------------------------ *)
(* Hist                                                                *)
(* ------------------------------------------------------------------ *)

let hist_basics () =
  let h = Hist.create () in
  List.iter (Hist.add h) [ 1; 2; 3; 100; 1000 ];
  check_int "count" 5 (Hist.count h);
  check_int "sum" 1106 (Hist.sum h);
  check_int "min" 1 (Hist.min_value h);
  check_int "max" 1000 (Hist.max_value h);
  check_bool "p50 bounds the median sample" true (Hist.quantile h 0.5 >= 3);
  check_bool "p100 covers max" true (Hist.quantile h 1.0 >= 1000)

let hist_quantile_empty () =
  let h = Hist.create () in
  check_int "empty p50" 0 (Hist.quantile h 0.5);
  check_int "empty p100" 0 (Hist.quantile h 1.0);
  check_int "empty p0" 0 (Hist.quantile h 0.0)

let hist_quantile_single_sample () =
  (* 5 lands in the (4, 8] bucket; without the min/max clamp every
     quantile would read the bucket bound 8. *)
  let h = Hist.create () in
  Hist.add h 5;
  List.iter
    (fun q ->
      check_int (Printf.sprintf "single-sample q=%.2f" q) 5 (Hist.quantile h q))
    [ 0.0; 0.5; 0.99; 1.0 ]

let hist_quantile_saturated_top_bucket () =
  (* Samples past the top bucket's nominal power-of-two bound all land in
     the last bucket; [q = 1.0] must still read the true maximum, not the
     capped bucket bound. *)
  let h = Hist.create () in
  let huge = max_int / 2 in
  List.iter (Hist.add h) [ 1; huge ];
  check_int "p100 is the true max" huge (Hist.quantile h 1.0);
  check_int "p25 is the low sample" 1 (Hist.quantile h 0.25);
  check_bool "p50 within observed range" true
    (Hist.quantile h 0.5 >= 1 && Hist.quantile h 0.5 <= huge)

let hist_sub () =
  let h = Hist.create () in
  List.iter (Hist.add h) [ 10; 20 ];
  let early = Hist.copy h in
  List.iter (Hist.add h) [ 30; 40; 50 ];
  let d = Hist.sub h early in
  check_int "window count" 3 (Hist.count d);
  check_int "window sum" 120 (Hist.sum d);
  check_int "original intact" 5 (Hist.count h)

(* ------------------------------------------------------------------ *)
(* Trace level filtering: guards and delivery                         *)
(* ------------------------------------------------------------------ *)

(* Emit one event of each level the way the library does - built only
   behind its level's guard - and report which ones were built. *)
let emit_guarded () =
  let built = ref [] in
  if Trace.enabled_at Trace.Debug then begin
    built := "debug" :: !built;
    Trace.emit (Trace.Backoff { tid = 0; attempt = 1; delay = 2 })
  end;
  if Trace.enabled_at Trace.History then begin
    built := "history" :: !built;
    Trace.emit (Trace.Txn_serialized { txid = 1; tid = 0 })
  end;
  if Trace.enabled () then begin
    built := "info" :: !built;
    Trace.emit (Trace.Txn_begin { txid = 1; tid = 0 })
  end;
  List.rev !built

let level_filter_no_build () =
  let seen = ref [] in
  let sub level = (level, fun ev -> seen := Trace.event_level ev :: !seen) in
  let run level =
    seen := [];
    let built = Trace.with_sinks [ sub level ] emit_guarded in
    (built, List.rev !seen)
  in
  let built, got = run Trace.Info in
  Alcotest.(check (list string)) "info sink: only the info event built" [ "info" ] built;
  check_bool "info sink: only info delivered" true (got = [ Trace.Info ]);
  let built, got = run Trace.History in
  Alcotest.(check (list string))
    "history sink: no debug event built" [ "history"; "info" ] built;
  check_bool "history sink: history and info delivered" true
    (got = [ Trace.History; Trace.Info ]);
  let built, got = run Trace.Debug in
  Alcotest.(check (list string))
    "debug sink: all built" [ "debug"; "history"; "info" ] built;
  check_bool "debug sink: all delivered" true
    (got = [ Trace.Debug; Trace.History; Trace.Info ]);
  (* delivery filters by level even for an unguarded emit *)
  seen := [];
  Trace.with_sinks [ sub Trace.Info ] (fun () ->
      Trace.emit (Trace.Backoff { tid = 0; attempt = 1; delay = 2 });
      Trace.emit (Trace.Txn_serialized { txid = 1; tid = 0 }));
  check_int "unguarded debug/history not delivered to info" 0 (List.length !seen)

(* ------------------------------------------------------------------ *)
(* Stats serialization                                                 *)
(* ------------------------------------------------------------------ *)

let stats_to_assoc () =
  let s = Stats.create () in
  s.Stats.commits <- 3;
  s.Stats.conflicts <- 7;
  let a = Stats.to_assoc s in
  check_int "18 counters" 18 (List.length a);
  check_int "commits" 3 (List.assoc "commits" a);
  check_int "conflicts" 7 (List.assoc "conflicts" a);
  let j = Json.to_string (Json.of_assoc a) in
  check_bool "json has commits" true (contains j {|"commits":3|})

(* ------------------------------------------------------------------ *)
(* Recorder on a live 2-thread run                                     *)
(* ------------------------------------------------------------------ *)

(* Two threads, transactional increments on a shared counter plus a
   non-transactional read each round: produces begins, commits (and
   usually conflicts/aborts), barrier events, and a final value we can
   assert. *)
let run_two_thread_workload () =
  with_stm ~cfg:Config.eager_strong (fun () ->
      let o = Stm.alloc_public ~cls:"C" 1 in
      Stm.write o 0 (vi 0);
      let worker () =
        for _ = 1 to 20 do
          Stm.atomic (fun () ->
              let v = Stm.to_int (Stm.read o 0) in
              Stm.write o 0 (vi (v + 1)));
          ignore (Stm.read o 0)
        done
      in
      let t1 = Sched.spawn worker in
      let t2 = Sched.spawn worker in
      Sched.join t1;
      Sched.join t2;
      check_int "counter" 40 (Stm.to_int (Stm.read o 0)))

let recorder_balanced_events () =
  let r = Recorder.create () in
  Trace.with_sinks [ (Trace.Debug, Recorder.record r) ] run_two_thread_workload;
  let entries = Recorder.entries r in
  check_int "nothing dropped" 0 (Recorder.dropped r);
  check_bool "captured events" true (List.length entries > 0);
  let count p =
    List.length (List.filter (fun (e : Recorder.entry) -> p e.Recorder.ev) entries)
  in
  let begins = count (function Trace.Txn_begin _ -> true | _ -> false) in
  let commits = count (function Trace.Txn_commit _ -> true | _ -> false) in
  let aborts = count (function Trace.Txn_abort _ -> true | _ -> false) in
  check_bool "some txns ran" true (begins >= 40);
  check_int "begins balance commits+aborts" begins (commits + aborts);
  check_int "all increments committed" 40 commits

let recorder_monotone_timestamps () =
  let r = Recorder.create () in
  Trace.with_sinks [ (Trace.Debug, Recorder.record r) ] run_two_thread_workload;
  let entries = Recorder.entries r in
  (* scheduler step is globally monotone across the stream *)
  let steps_ok =
    let rec go last = function
      | [] -> true
      | (e : Recorder.entry) :: rest ->
          e.Recorder.step >= last && go e.Recorder.step rest
    in
    go 0 entries
  in
  check_bool "steps monotone" true steps_ok;
  (* each thread's cost clock is monotone along its own events *)
  let per_tid = Hashtbl.create 8 in
  List.iter
    (fun (e : Recorder.entry) ->
      let last =
        Option.value ~default:0 (Hashtbl.find_opt per_tid e.Recorder.tid)
      in
      check_bool "per-thread ts monotone" true (e.Recorder.ts >= last);
      Hashtbl.replace per_tid e.Recorder.tid e.Recorder.ts)
    entries

let recorder_ring_bounded () =
  let r = Recorder.create ~capacity:16 () in
  Trace.with_sinks [ (Trace.Debug, Recorder.record r) ] run_two_thread_workload;
  check_int "bounded" 16 (Recorder.length r);
  check_bool "counted drops" true (Recorder.dropped r > 0)

(* ------------------------------------------------------------------ *)
(* Profiler sums == Stats                                              *)
(* ------------------------------------------------------------------ *)

let profiler_matches_stats () =
  (* install the STM by hand (not with_stm) so Stm.stats () can be read
     before uninstalling *)
  let p2 = Profiler.create () in
  Heap.reset ();
  Stm.install Config.eager_strong;
  let stats = Stm.stats () in
  Fun.protect ~finally:Stm.uninstall (fun () ->
      Trace.with_sinks [ (Trace.Debug, Profiler.handle p2) ] (fun () ->
          in_sim (fun () ->
              let o = Stm.alloc_public ~cls:"C" 1 in
              Stm.write o 0 (vi 0);
              let worker () =
                for _ = 1 to 20 do
                  Stm.atomic (fun () ->
                      let v = Stm.to_int (Stm.read o 0) in
                      Stm.write o 0 (vi (v + 1)));
                  ignore (Stm.read o 0)
                done
              in
              let t1 = Sched.spawn worker in
              let t2 = Sched.spawn worker in
              Sched.join t1;
              Sched.join t2)));
  (match Profiler.check_against_stats p2 stats with
  | [] -> ()
  | ms ->
      Alcotest.failf "profile/stats mismatch: %s"
        (String.concat ", "
           (List.map
              (fun (c, a, b) -> Printf.sprintf "%s profiled=%d stats=%d" c a b)
              ms)));
  let tot = Profiler.total p2 in
  check_bool "saw txn reads" true (tot.Profiler.txn_reads > 0);
  check_bool "saw non-txn reads" true (tot.Profiler.reads > 0);
  (* per-thread rollup covers the same activity *)
  let thread_sum =
    List.fold_left
      (fun acc (_, (c : Profiler.counters)) -> acc + c.Profiler.txn_reads)
      0 (Profiler.threads p2)
  in
  check_int "thread rollup sums to total" tot.Profiler.txn_reads thread_sum

(* Jt end-to-end: compiled sites resolve to file:line and the profile
   still reconciles with the interpreter's stats. *)
let profiler_jt_sites () =
  let src =
    "class C { int n; void inc() { atomic { n = n + 1; } } }\n\
     class W extends Thread {\n\
    \  C c;\n\
    \  void run() { for (int i = 0; i < 10; i++) { c.inc(); } }\n\
     }\n\
     class Main {\n\
    \  static void main() {\n\
    \    C c = new C();\n\
    \    W a = new W(); a.c = c;\n\
    \    W b = new W(); b.c = c;\n\
    \    int ta = spawn(a); int tb = spawn(b);\n\
    \    join(ta); join(tb);\n\
    \    print(c.n);\n\
    \  }\n\
     }\n"
  in
  let prog = Stm_jtlang.Jt.compile ~name:"two.jt" src in
  let p = Profiler.create () in
  let out =
    Trace.with_sinks [ (Trace.Debug, Profiler.handle p) ] (fun () ->
        Stm_ir.Interp.run ~cfg:Config.eager_strong prog)
  in
  check_bool "program printed 20" true (out.Stm_ir.Interp.prints = [ "20" ]);
  (match Profiler.check_against_stats p out.Stm_ir.Interp.stats with
  | [] -> ()
  | ms ->
      Alcotest.failf "profile/stats mismatch on jt run (%d cols)"
        (List.length ms));
  (* every active compiled site resolves to a two.jt:<line> label *)
  let resolved =
    List.filter
      (fun (site, _) ->
        match Stm_ir.Ir.site_loc prog site with
        | Some (f, l) -> f = "two.jt" && l > 0
        | None -> false)
      (Profiler.sites p)
  in
  check_bool "compiled sites carry file:line" true (List.length resolved > 0);
  (* the atomic increment's txn accesses land on line 1 (method inc) *)
  check_bool "inc() site on line 1" true
    (List.exists
       (fun (site, (c : Profiler.counters)) ->
         c.Profiler.txn_writes > 0
         && Stm_ir.Ir.site_loc prog site = Some ("two.jt", 1))
       (Profiler.sites p))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let metrics_counts_and_histograms () =
  let m = Metrics.create () in
  Trace.with_sinks [ (Trace.Info, Metrics.handle m) ] run_two_thread_workload;
  check_int "commits" 40 (Metrics.commits m);
  check_int "begins = commits + aborts" (Metrics.begins m)
    (Metrics.commits m + Metrics.aborts m);
  check_int "latency samples = commits" (Metrics.commits m)
    (Hist.count (Metrics.commit_latency m));
  check_bool "commit latency positive" true
    (Hist.sum (Metrics.commit_latency m) > 0);
  let causes =
    List.fold_left
      (fun acc c -> acc + Metrics.abort_cause_count m c)
      0 Metrics.all_causes
  in
  check_int "causes partition aborts" (Metrics.aborts m) causes;
  (* JSON export parses back the same counters *)
  let j = Json.to_string (Metrics.to_json m) in
  check_bool "json mentions abort_causes" true (contains j {|"abort_causes"|});
  check_bool "json mentions commit_latency" true
    (contains j {|"commit_latency"|})

let metrics_snapshot_diff () =
  let m = Metrics.create () in
  Trace.with_sinks [ (Trace.Info, Metrics.handle m) ] (fun () ->
      run_two_thread_workload ();
      let snap = Metrics.snapshot m in
      run_two_thread_workload ();
      let d = Metrics.diff (Metrics.snapshot m) snap in
      check_int "window commits" 40 (Metrics.commits d);
      check_int "window latency samples" 40
        (Hist.count (Metrics.commit_latency d));
      check_int "snapshot unchanged" 40 (Metrics.commits snap);
      check_int "running total" 80 (Metrics.commits m))

(* The metrics snapshot does not depend on what else is subscribed: a
   Debug subscriber beside it (a recorder, as stm_run --trace-out adds)
   leaves every counter, histogram and fairness figure unchanged. *)
let metrics_independent_of_debug_subscribers () =
  let snapshot extra =
    let m = Metrics.create () in
    Trace.with_sinks (extra @ [ (Trace.Info, Metrics.handle m) ])
      run_two_thread_workload;
    match Metrics.to_json m with
    | Json.Obj fields ->
        Json.to_string
          (Json.Obj (List.remove_assoc "host_alloc_words" fields))
    | _ -> Alcotest.fail "metrics JSON is not an object"
  in
  let debug_events = ref 0 and history_events = ref 0 in
  let count_verbose ev =
    match Trace.event_level ev with
    | Trace.Debug -> incr debug_events
    | Trace.History -> incr history_events
    | Trace.Info -> ()
  in
  let alone = snapshot [] in
  let beside = snapshot [ (Trace.Debug, count_verbose) ] in
  check_bool "the Debug subscriber saw Debug events" true (!debug_events > 0);
  check_bool "the Debug subscriber saw History events" true (!history_events > 0);
  check_string "snapshot identical" alone beside

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let export_chrome_shape () =
  let r = Recorder.create () in
  Trace.with_sinks [ (Trace.Debug, Recorder.record r) ] run_two_thread_workload;
  let entries = Recorder.entries r in
  let doc = Export.to_chrome entries in
  (match doc with
  | Json.Obj fields ->
      check_bool "has traceEvents" true (List.mem_assoc "traceEvents" fields);
      (match List.assoc "traceEvents" fields with
      | Json.List evs ->
          let phases =
            List.filter_map
              (function
                | Json.Obj f -> (
                    match List.assoc_opt "ph" f with
                    | Some (Json.Str p) -> Some p
                    | _ -> None)
                | _ -> None)
              evs
          in
          check_bool "metadata events" true (List.mem "M" phases);
          check_bool "duration slices" true (List.mem "X" phases);
          check_bool "instants" true (List.mem "i" phases);
          (* every X slice has a positive duration *)
          List.iter
            (function
              | Json.Obj f when List.assoc_opt "ph" f = Some (Json.Str "X") -> (
                  match List.assoc_opt "dur" f with
                  | Some (Json.Int d) ->
                      check_bool "slice dur positive" true (d >= 1)
                  | _ -> Alcotest.fail "X slice without dur")
              | _ -> ())
            evs
      | _ -> Alcotest.fail "traceEvents not a list")
  | _ -> Alcotest.fail "chrome doc not an object");
  (* serialized form is one self-contained JSON value *)
  let s = Json.to_string doc in
  check_bool "serializes" true (String.length s > 2)

let export_jsonl_shape () =
  let r = Recorder.create () in
  Trace.with_sinks [ (Trace.Debug, Recorder.record r) ] run_two_thread_workload;
  let buf = Buffer.create 1024 in
  Export.to_jsonl buf (Recorder.entries r);
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  check_int "one line per entry" (Recorder.length r) (List.length lines);
  List.iter
    (fun l ->
      check_bool "line is an object" true
        (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines

(* The perf gate reads a baseline of the checked-in schema and fails a
   bench that is slower than the ns/op threshold allows, or allocates
   more than the fixed bound over its baseline words per operation. A
   baseline without a word count gates ns/op only. *)
let perf_gate () =
  let open Stm_perf.Perf in
  let base =
    match
      Json.of_string
        {|{"benches":{"a":{"ns_per_op":100,"alloc_words_per_op":1000},"b":{"ns_per_op":100.0}}}|}
    with
    | Ok j -> baseline_of_json j
    | Error e -> Alcotest.fail e
  in
  let comparison name ns words =
    let r =
      {
        quick = true;
        backend = Stm_core.Config.Eager;
        validation = Stm_core.Config.Incremental;
        samples = [ { name; ns_per_op = ns; alloc_words_per_op = words } ];
      }
    in
    compare_to_baseline ~baseline:base r
  in
  let gated name ns words = regressions ~threshold_pct:25. (comparison name ns words) <> [] in
  check_bool "within both bounds" false (gated "a" 120. 1019.);
  check_bool "ns/op over the threshold" true (gated "a" 130. 1000.);
  check_bool "words/op over the bound" true (gated "a" 100. 1021.);
  check_bool "no baseline words: ns/op only" false (gated "b" 100. 1e9);
  check_bool "not in the baseline" false (gated "c" 1e9 1e9)

let suite =
  [
    ( "obs:json",
      [
        case "basics" json_basics;
        case "escaping" json_escaping;
        case "of_assoc" json_of_assoc;
        case "unicode escapes incl. surrogate pairs" json_unicode_escapes;
      ] );
    ( "obs:ring",
      [ case "basics" ring_basics; case "wrap + dropped" ring_wraps ] );
    ( "obs:hist",
      [
        case "basics" hist_basics;
        case "quantile: empty" hist_quantile_empty;
        case "quantile: single sample" hist_quantile_single_sample;
        case "quantile: saturated top bucket" hist_quantile_saturated_top_bucket;
        case "snapshot sub" hist_sub;
      ] );
    ( "obs:trace-levels",
      [ case "info sink never builds debug or history events" level_filter_no_build ] );
    ( "obs:stats",
      [ case "to_assoc covers every counter" stats_to_assoc ] );
    ( "obs:recorder",
      [
        case "begin/commit/abort balance" recorder_balanced_events;
        case "timestamps monotone" recorder_monotone_timestamps;
        case "ring bounded with drop count" recorder_ring_bounded;
      ] );
    ( "obs:profiler",
      [
        case "sums equal global stats" profiler_matches_stats;
        case "jt sites resolve to file:line" profiler_jt_sites;
      ] );
    ( "obs:metrics",
      [
        case "counts + histograms" metrics_counts_and_histograms;
        case "snapshot/diff windows" metrics_snapshot_diff;
        case "independent of Debug subscribers"
          metrics_independent_of_debug_subscribers;
      ] );
    ( "obs:export",
      [
        case "chrome trace shape" export_chrome_shape;
        case "jsonl one object per line" export_jsonl_shape;
      ] );
    ("obs:perf-gate", [ case "ns/op threshold and alloc bound" perf_gate ]);
  ]
