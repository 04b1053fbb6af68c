(* The multi-version backend: version-chain mechanics on the heap, the
   commit clock / snapshot registry, read-only abort freedom on the
   read-heavy stress scenario, and the write-skew separation between the
   mvcc isolation levels. *)

open Stm_runtime
open Stm_check
module Config = Stm_core.Config
module Stats = Stm_core.Stats
module Mvcc = Stm_mvcc.Mvcc

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Heap version chains                                                 *)
(* ------------------------------------------------------------------ *)

(* Install values 10, 20, 30 at timestamps 1, 2, 3 the way Mvcc.install
   does it: retire the current fields, overwrite in place, restamp. *)
let three_versions () =
  Heap.reset ();
  let o = Heap.alloc ~cls:"V" 1 in
  Heap.set_version_ts o 0;
  List.iter
    (fun ts ->
      Heap.push_version o;
      Heap.set o 0 (Heap.Vint (ts * 10));
      Heap.set_version_ts o ts)
    [ 1; 2; 3 ];
  o

let test_read_at () =
  let o = three_versions () in
  check_int "chain holds all four versions" 4 (Heap.chain_length o);
  List.iter
    (fun (ts, expect) ->
      match Heap.read_at o 0 ~ts with
      | Some v -> check_bool (Printf.sprintf "ts=%d" ts) true (v = expect)
      | None -> Alcotest.failf "ts=%d: unexpected miss" ts)
    [
      (0, Heap.Vnull);  (* pre-first-commit snapshot sees the initial field *)
      (1, Heap.Vint 10);
      (2, Heap.Vint 20);
      (3, Heap.Vint 30);
      (99, Heap.Vint 30);  (* future snapshot reads the current version *)
    ]

let test_prune_oldest () =
  let o = three_versions () in
  (* Nothing reachable only by snapshots < 2 survives: the ts=0 and ts=1
     entries go, ts=2 stays (it is the version a snapshot at 2 reads). *)
  let dropped = Heap.prune_past o ~oldest:2 ~max_versions:8 in
  check_int "dropped the unreachable prefix" 2 dropped;
  check_bool "ts=2 still served" true (Heap.read_at o 0 ~ts:2 = Some (Heap.Vint 20));
  check_bool "ts=1 now a miss" true (Heap.read_at o 0 ~ts:1 = None)

let test_prune_bound () =
  let o = three_versions () in
  (* A live snapshot at 0 wants the whole chain, but the hard bound wins;
     the dropped versions then surface as read_at misses. *)
  let dropped = Heap.prune_past o ~oldest:0 ~max_versions:2 in
  check_int "bounded to two entries" 2 dropped;
  check_int "chain length respects the bound" 2 (Heap.chain_length o);
  check_bool "old snapshot misses" true (Heap.read_at o 0 ~ts:0 = None);
  check_bool "newest past version kept" true
    (Heap.read_at o 0 ~ts:2 = Some (Heap.Vint 20))

(* ------------------------------------------------------------------ *)
(* Commit clock and snapshot registry                                  *)
(* ------------------------------------------------------------------ *)

let test_clock_and_snapshots () =
  let mv = Mvcc.create () in
  check_int "clock starts at zero" 0 (Mvcc.now mv);
  check_int "first ticket" 1 (Mvcc.advance mv);
  check_int "second ticket" 2 (Mvcc.advance mv);
  let s1 = Mvcc.begin_snapshot mv in
  check_int "snapshot at current clock" 2 s1;
  ignore (Mvcc.advance mv);
  let s2 = Mvcc.begin_snapshot mv in
  check_int "oldest live snapshot" 2 (Mvcc.oldest_active mv);
  Mvcc.end_snapshot mv s1;
  check_int "oldest advances on release" 3 (Mvcc.oldest_active mv);
  Mvcc.end_snapshot mv s2;
  check_int "no live snapshot: oldest = clock" (Mvcc.now mv)
    (Mvcc.oldest_active mv)

let test_fcw () =
  Heap.reset ();
  let mv = Mvcc.create () in
  let o = Heap.alloc ~cls:"V" 1 in
  Heap.set_version_ts o 0;
  let snap = Mvcc.begin_snapshot mv in
  check_bool "no newer version: first committer" true (Mvcc.fcw_ok o ~snap);
  let ts = Mvcc.advance mv in
  Mvcc.install mv o ~ts;
  Heap.set o 0 (Heap.Vint 1);
  check_bool "newer version: second committer loses" false (Mvcc.fcw_ok o ~snap);
  check_bool "fresh snapshot wins again" true
    (Mvcc.fcw_ok o ~snap:(Mvcc.begin_snapshot mv))

let test_snapshot_read_stats () =
  Heap.reset ();
  let mv = Mvcc.create ~max_versions:2 () in
  let o = Heap.alloc ~cls:"V" 1 in
  Heap.set_version_ts o 0;
  let snap = Mvcc.begin_snapshot mv in
  List.iter
    (fun n ->
      let ts = Mvcc.advance mv in
      Mvcc.install mv o ~ts;
      Heap.set o 0 (Heap.Vint n))
    [ 1; 2; 3 ];
  (* The snapshot predates every install; with only two chain entries the
     version it needs is gone. *)
  check_bool "pruned snapshot misses" true (Mvcc.read mv o 0 ~snap = None);
  let st = Mvcc.stats mv in
  check_int "installs counted" 3 st.Mvcc.installs;
  check_int "miss counted" 1 st.Mvcc.too_old;
  (* A snapshot between the surviving versions is served from the chain. *)
  check_bool "past version served" true
    (Mvcc.read mv o 0 ~snap:2 = Some (Heap.Vint 2));
  check_int "snapshot read counted" 1 st.Mvcc.snapshot_reads

(* ------------------------------------------------------------------ *)
(* Read-only abort freedom (the read-heavy stress scenario)            *)
(* ------------------------------------------------------------------ *)

(* The acceptance bar from the issue: under mvcc the read-only scanners
   never abort - every scan is served by its snapshot - while the
   single-version backends pay real aborts on the same schedule. *)
let test_read_heavy_mvcc_abort_free () =
  let r =
    Stm_harness.Stress.run ~backend:(Stm_core.Point.Mvcc Config.Serializable) ~cm:Stm_cm.Policy.Suicide
      Stm_harness.Stress.Read_heavy
  in
  check_bool "completed" true r.Stm_harness.Stress.completed;
  check_int "zero aborts under mvcc" 0 r.Stm_harness.Stress.stats.Stats.aborts

let test_read_heavy_eager_aborts () =
  let r =
    Stm_harness.Stress.run ~backend:(Stm_core.Point.Eager Config.Incremental) ~cm:Stm_cm.Policy.Timestamp
      Stm_harness.Stress.Read_heavy
  in
  check_bool "completed" true r.Stm_harness.Stress.completed;
  check_bool "single-version backend pays aborts" true
    (r.Stm_harness.Stress.stats.Stats.aborts > 0)

(* ------------------------------------------------------------------ *)
(* Write skew separates the two mvcc isolation levels                  *)
(* ------------------------------------------------------------------ *)

(* Each transaction reads the other side's box and writes its own:
   admitted under snapshot isolation (disjoint write sets pass
   first-committer-wins), prevented under mvcc-serializable by
   commit-time read revalidation. The two slot boxes are distinct heap
   objects - version chains and first-committer-wins are per object, so
   skewing two fields of one object is structurally impossible (the
   whole-object install makes the second committer lose). *)
let write_skew_prog =
  {
    Prog.ncells = 1;
    nslots = 2;
    threads =
      [
        [ Prog.Atomic [ Prog.Box_read 1; Prog.Box_write 0 ] ];
        [ Prog.Atomic [ Prog.Box_read 0; Prog.Box_write 1 ] ];
      ];
  }

let mvcc_cfg isolation = Config.with_isolation isolation Config.mvcc_weak

let test_write_skew_snapshot_only () =
  (* Hunt for a schedule where the skew manifests, then certify the
     history at both levels: SI-clean, serializability broken by an
     rw-cycle. *)
  let witness = ref None in
  let seed = ref 0 in
  while !witness = None && !seed < 64 do
    incr seed;
    (match
       Exec.run ~policy:(Sched.Random !seed) ~cfg:(mvcc_cfg Config.Snapshot)
         write_skew_prog
     with
    | History.Serializable, Some h -> (
        (* clean at the configured (Snapshot) level; now ask the
           two-level classifier whether this particular schedule
           actually skewed *)
        match History.certify write_skew_prog h with
        | History.Cert_snapshot_only (History.Cycle _) -> witness := Some h
        | History.Cert_serializable -> ()
        | c ->
            Alcotest.failf "unexpected certification %s"
              (History.certification_to_string c))
    | v, _ ->
        Alcotest.failf "SI-level verdict not clean: %s"
          (Stm_obs.Json.to_string (History.verdict_to_json v)))
  done;
  check_bool "found a skewed schedule within 64 seeds" true (!witness <> None)

let test_write_skew_prevented_serializable () =
  (* The same program explored exhaustively under mvcc-serializable:
     revalidation must abort one of the two, so no anomaly exists. *)
  let v, e =
    Exec.explore ~preemption_bound:3 ~max_runs:2000
      ~cfg:(mvcc_cfg Config.Serializable) write_skew_prog
  in
  (match v with
  | None -> ()
  | Some v ->
      Alcotest.failf "mvcc-serializable admitted: %s"
        (Stm_obs.Json.to_string (History.verdict_to_json v)));
  check_bool "explored more than one schedule" true
    (e.Stm_litmus.Explorer.runs > 1)

let suite =
  [
    ( "mvcc-heap",
      [
        Alcotest.test_case "read_at walks the chain" `Quick test_read_at;
        Alcotest.test_case "prune vs oldest snapshot" `Quick test_prune_oldest;
        Alcotest.test_case "prune hard bound" `Quick test_prune_bound;
      ] );
    ( "mvcc-clock",
      [
        Alcotest.test_case "clock and snapshot registry" `Quick
          test_clock_and_snapshots;
        Alcotest.test_case "first-committer-wins" `Quick test_fcw;
        Alcotest.test_case "snapshot reads and misses" `Quick
          test_snapshot_read_stats;
      ] );
    ( "mvcc-ro",
      [
        Alcotest.test_case "read-heavy abort-free" `Quick
          test_read_heavy_mvcc_abort_free;
        Alcotest.test_case "read-heavy eager pays aborts" `Quick
          test_read_heavy_eager_aborts;
      ] );
    ( "mvcc-isolation",
      [
        Alcotest.test_case "write skew is snapshot-only" `Quick
          test_write_skew_snapshot_only;
        Alcotest.test_case "serializable prevents write skew" `Quick
          test_write_skew_prevented_serializable;
      ] );
  ]
