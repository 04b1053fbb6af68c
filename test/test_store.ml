(* Tests for the KV-store subsystem: key-distribution sampler
   determinism and skew (chi-square-style), single-threaded Kv
   semantics, structural invariants after every profile, the Figure-6
   anomaly demonstration (every mode that leaves non-transactional
   accesses unisolated provably loses updates, every other mode is
   exact), shard scaling, strong-vs-weak barrier
   overhead, and the serializability-oracle differential check on
   recorded store traffic. *)

open Stm_runtime
open Stm_store

module Mode = Stm_core.Mode
module Point = Stm_core.Point

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let case name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Keydist                                                             *)
(* ------------------------------------------------------------------ *)

let draws ~keys ~dist ~seed n =
  let s = Keydist.create ~keys ~dist (Det_rng.create seed) in
  List.init n (fun _ -> Keydist.next s)

let keydist_deterministic () =
  List.iter
    (fun dist ->
      let a = draws ~keys:257 ~dist ~seed:42 500 in
      let b = draws ~keys:257 ~dist ~seed:42 500 in
      Alcotest.(check (list int))
        (Keydist.dist_to_string dist ^ " same seed, same sequence")
        a b;
      let c = draws ~keys:257 ~dist ~seed:43 500 in
      check_bool
        (Keydist.dist_to_string dist ^ " different seed, different sequence")
        true (a <> c);
      List.iter
        (fun k -> check_bool "in range" true (0 <= k && k < 257))
        a)
    [ Keydist.Uniform; Keydist.Zipfian 0.99 ]

(* Pearson chi-square against the uniform null: 64 cells, 6400 draws,
   expected 100 per cell. df = 63; the 99.9th percentile of chi2(63) is
   ~106, so a bound of 120 is a sanity check, not a flakiness trap —
   and the sampler is deterministic, so the statistic is a constant. *)
let uniform_chi_square () =
  let keys = 64 and n = 6400 in
  let counts = Array.make keys 0 in
  List.iter
    (fun k -> counts.(k) <- counts.(k) + 1)
    (draws ~keys ~dist:Keydist.Uniform ~seed:7 n);
  let expected = float_of_int n /. float_of_int keys in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0. counts
  in
  check_bool (Printf.sprintf "chi2 %.1f < 120" chi2) true (chi2 < 120.)

(* The same statistic on Zipfian draws must blow far past the uniform
   acceptance region: the skew is real, not cosmetic. *)
let zipfian_not_uniform () =
  let keys = 64 and n = 6400 in
  let s = Keydist.create ~keys ~dist:(Keydist.Zipfian 0.99) (Det_rng.create 7) in
  let counts = Array.make keys 0 in
  for _ = 1 to n do
    let r = Keydist.next_rank s in
    counts.(r) <- counts.(r) + 1
  done;
  let expected = float_of_int n /. float_of_int keys in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0. counts
  in
  check_bool (Printf.sprintf "chi2 %.0f > 1000" chi2) true (chi2 > 1000.)

let zipfian_skew_shape () =
  let keys = 1024 and n = 20_000 in
  let s =
    Keydist.create ~keys ~dist:(Keydist.Zipfian 0.99) (Det_rng.create 11)
  in
  let counts = Array.make keys 0 in
  for _ = 1 to n do
    let r = Keydist.next_rank s in
    counts.(r) <- counts.(r) + 1
  done;
  (* rank 0's share under theta=0.99, n=1024 is 1/zeta ~ 0.13 *)
  let share0 = float_of_int counts.(0) /. float_of_int n in
  check_bool
    (Printf.sprintf "rank-0 share %.3f in [0.08, 0.20]" share0)
    true
    (share0 > 0.08 && share0 < 0.20);
  (* mass decays across rank quartiles *)
  let mass lo hi =
    let m = ref 0 in
    for r = lo to hi - 1 do
      m := !m + counts.(r)
    done;
    !m
  in
  let q1 = mass 0 256 and q4 = mass 768 1024 in
  check_bool "first quartile carries >10x the last" true (q1 > 10 * q4)

let scramble_spreads () =
  (* the 16 hottest ranks must not clump: they land on >= 12 distinct
     keys, spread across most of a 4-shard partition *)
  let keys = 1024 in
  let hot = List.init 16 (fun r -> Keydist.scramble ~keys r) in
  let distinct = List.sort_uniq compare hot in
  check_bool "hot ranks map to distinct keys" true (List.length distinct >= 12);
  List.iter (fun k -> check_bool "in range" true (0 <= k && k < keys)) hot

(* An engine run prepares its key space once and gives every client a
   sampler over it. Those samplers draw exactly what [create] draws for
   the same seed, also while their draws interleave; the first draws are
   pinned to the values of the samplers that computed their own Zipf
   constants. *)
let keydist_shared_space () =
  let first12 ~keys ~dist ~seed next =
    let s = Keydist.create ~keys ~dist (Det_rng.create seed) in
    List.init 12 (fun _ -> next s)
  in
  Alcotest.(check (list int)) "zipfian 0.99 keys, pinned"
    [ 7; 866; 326; 715; 571; 536; 321; 164; 715; 1016; 321; 375 ]
    (first12 ~keys:1024 ~dist:(Keydist.Zipfian 0.99) ~seed:42 Keydist.next);
  Alcotest.(check (list int)) "zipfian 0.5 ranks, pinned"
    [ 160; 1; 814; 348; 213; 68; 227; 115; 22; 179; 14; 922 ]
    (first12 ~keys:1000 ~dist:(Keydist.Zipfian 0.5) ~seed:7 Keydist.next_rank);
  Alcotest.(check (list int)) "uniform keys, pinned"
    [ 853; 72; 964; 941; 812; 265; 231; 977; 501; 243; 551; 911 ]
    (first12 ~keys:1000 ~dist:Keydist.Uniform ~seed:42 Keydist.next);
  List.iter
    (fun (keys, dist) ->
      let space = Keydist.space ~keys ~dist in
      let seed c = 100 + c in
      let shared =
        Array.init 8 (fun c -> Keydist.sampler space (Det_rng.create (seed c)))
      in
      let own =
        Array.init 8 (fun c -> Keydist.create ~keys ~dist (Det_rng.create (seed c)))
      in
      for i = 1 to 400 do
        let c = i * 5 mod 8 in
        check_int
          (Printf.sprintf "%s over %d keys, client %d, draw %d"
             (Keydist.dist_to_string dist) keys c i)
          (Keydist.next own.(c)) (Keydist.next shared.(c))
      done)
    [
      (1024, Keydist.Zipfian 0.99);
      (1000, Keydist.Zipfian 0.5);
      (257, Keydist.Uniform);
      (1, Keydist.Zipfian 0.99);
    ]

(* [Keydist.space] hands the last space it built out again. A sampler
   over that remembered space draws the same keys, bit for bit, as one
   over a space computed afresh: asking for another space (other keys,
   or another theta) evicts the first, and asking for it again then
   computes it anew. *)
let keydist_remembered_space () =
  List.iter
    (fun (keys, dist, other_keys, other_dist) ->
      let what = Printf.sprintf "%s over %d keys" (Keydist.dist_to_string dist) keys in
      let kept = Keydist.space ~keys ~dist in
      check_bool (what ^ ": asked again, the same space") true
        (Keydist.space ~keys ~dist == kept);
      ignore (Keydist.space ~keys:other_keys ~dist:other_dist);
      let fresh = Keydist.space ~keys ~dist in
      check_bool (what ^ ": evicted, then computed afresh") true (fresh != kept);
      let a = Keydist.sampler kept (Det_rng.create 9)
      and b = Keydist.sampler fresh (Det_rng.create 9) in
      for i = 1 to 2_000 do
        check_int (Printf.sprintf "%s: draw %d" what i) (Keydist.next b) (Keydist.next a)
      done)
    [
      (1024, Keydist.Zipfian 0.99, 1023, Keydist.Zipfian 0.99);
      (1024, Keydist.Zipfian 0.99, 1024, Keydist.Zipfian 0.5);
      (1000, Keydist.Zipfian 0.5, 1000, Keydist.Uniform);
      (257, Keydist.Uniform, 257, Keydist.Zipfian 0.99);
    ]

(* ------------------------------------------------------------------ *)
(* Kv semantics (single simulated thread)                              *)
(* ------------------------------------------------------------------ *)

(* The modes the semantics and invariant tests run under. *)
let eager a = Mode.Stm (Point.v (Point.Eager Stm_core.Config.Incremental) a)
let strong = eager Point.Strong
let weak = eager Point.Weak
let mvcc = Mode.Stm (Point.v (Point.Mvcc Stm_core.Config.Serializable) Point.Strong)

let with_store ~mode ?(keys = 0) ?(value = Fun.id) f =
  let cfg = Mode.config mode in
  let result, _stats =
    Stm_core.Stm.run ~cfg (fun () ->
        let t =
          Kv.create ~buckets:8 ~value_size:2 ~mode ~shards:4 ~keys ~value
            ~cost:cfg.Stm_core.Config.cost ()
        in
        f t)
  in
  (match result.Sched.exns with
  | [] -> ()
  | (tid, e) :: _ ->
      Alcotest.failf "thread %d raised %s" tid (Printexc.to_string e));
  check_bool "completed" true (result.Sched.status = Sched.Completed)

let kv_semantics mode () =
  with_store ~mode ~keys:50 ~value:(fun k -> k * 10) (fun t ->
      check_int "entry_count" 50 (Kv.entry_count t);
      Alcotest.(check (option int)) "get 7" (Some 70) (Kv.get t 7);
      Alcotest.(check (option int)) "get absent" None (Kv.get t 50);
      check_bool "put existing updates" false (Kv.put t 7 700);
      Alcotest.(check (option int)) "get after put" (Some 700) (Kv.get t 7);
      check_bool "put absent inserts" true (Kv.put t 50 500);
      Alcotest.(check (option int)) "get inserted" (Some 500) (Kv.get t 50);
      Alcotest.(check (option int)) "add" (Some 501) (Kv.add t 50 1);
      Alcotest.(check (option int))
        "rmw" (Some 1002)
        (Kv.rmw t 50 ~f:(fun v -> v * 2));
      Alcotest.(check (option int)) "rmw absent" None (Kv.rmw t 99 ~f:succ);
      check_bool "insert fresh" true (Kv.insert t 60 6);
      check_bool "insert existing updates" false (Kv.insert t 60 66);
      check_bool "delete" true (Kv.delete t 60);
      check_bool "delete absent" false (Kv.delete t 60);
      let vs = Kv.multi_get t [| 0; 7; 99 |] in
      Alcotest.(check (array (option int)))
        "multi_get"
        [| Some 0; Some 700; None |]
        vs;
      check_int "scan finds the present run" 10 (Kv.scan t 0 ~len:10);
      check_int "entry_count after churn" 51 (Kv.entry_count t);
      Alcotest.(check (list string)) "invariants" [] (Kv.check_invariants t);
      (* oid maps round-trip *)
      let sum = Kv.fold t ~init:0 ~f:(fun acc _ _ -> acc + 1) in
      check_int "fold visits every entry" 51 sum)

(* The dense oid index answers as the two oid hashtables it replaced
   did: a shard table or header maps to its shard and to no key, an
   entry - preloaded, inserted, or deleted since - to its key and shard,
   and every other oid to nothing. The expected map is built here from
   allocation order: oids count up from 1 in every run, the store's
   tables and headers come first, then its entries by key, and a probe
   object allocated on each side of an insert brackets the oids the
   insert took. *)
let oid_index_matches_reference () =
  let shards = 4 and keys = 40 in
  with_store ~mode:strong ~keys (fun t ->
      let expect = Hashtbl.create 64 in
      for s = 0 to shards - 1 do
        Hashtbl.replace expect (1 + s) (None, Some s);
        Hashtbl.replace expect (1 + shards + s) (None, Some s)
      done;
      for k = 0 to keys - 1 do
        Hashtbl.replace expect ((2 * shards) + 1 + k) (Some k, Some (Kv.shard_of_key t k))
      done;
      let probe () = (Heap.alloc ~cls:"Probe" 0).Heap.oid in
      check_int "tables, headers and entries take the first oids"
        ((2 * shards) + keys + 1)
        (probe ());
      let inserting k f =
        let a = probe () in
        f ();
        let b = probe () in
        check_int "an insert allocates one entry" (a + 2) b;
        Hashtbl.replace expect (a + 1) (Some k, Some (Kv.shard_of_key t k))
      in
      List.iter
        (fun k -> inserting k (fun () -> check_bool "insert" true (Kv.insert t k k)))
        [ 100; 101; 102; 5000 ];
      List.iter (fun k -> check_bool "delete" true (Kv.delete t k)) [ 101; 3; 17 ];
      inserting 101 (fun () -> check_bool "reinsert" true (Kv.insert t 101 1));
      inserting 200 (fun () -> check_bool "put inserts" true (Kv.put t 200 2));
      let last = probe () in
      for oid = -2 to last + 2048 do
        let key, shard =
          Option.value (Hashtbl.find_opt expect oid) ~default:(None, None)
        in
        Alcotest.(check (option int))
          (Printf.sprintf "key of oid %d" oid)
          key (Kv.key_of_oid t oid);
        Alcotest.(check (option int))
          (Printf.sprintf "shard of oid %d" oid)
          shard (Kv.shard_of_oid t oid)
      done)

(* ------------------------------------------------------------------ *)
(* The audit catches every violation class                             *)
(* ------------------------------------------------------------------ *)

(* [Kv] entry layout: field 0 the key, field 1 the next link; a shard
   header's field 1 is its entry count. *)
let key_of e = match Heap.get e 0 with Heap.Vint k -> k | _ -> -1

let chain t s b =
  let rec walk acc = function
    | Heap.Vref e -> walk (e :: acc) (Heap.get e 1)
    | _ -> List.rev acc
  in
  walk [] (Heap.get (Kv.table t s) b)

let buckets_of t s =
  let n = Heap.nfields (Kv.table t s) in
  List.init n (fun b -> (b, chain t s b))

let audit_keys = 50

(* Corrupt a freshly preloaded store (4 shards, 8 buckets, 50 keys) with
   raw heap stores, then audit it: [corrupt] returns the violations it
   expects, in the audit's order (shard, bucket, chain). *)
let audit_catches corrupt () =
  with_store ~mode:strong ~keys:audit_keys (fun t ->
      Alcotest.(check (list string)) "clean before" [] (Kv.check_invariants t);
      let expected = corrupt t in
      Alcotest.(check (list string)) "violations" expected (Kv.check_invariants t))

(* Two entries of one chain: the head takes the second's key, so the
   key sits in its own bucket twice. *)
let corrupt_duplicate t =
  let s, e1, e2 =
    List.find_map
      (fun s ->
        List.find_map
          (function _, e1 :: e2 :: _ -> Some (s, e1, e2) | _ -> None)
          (buckets_of t s))
      [ 0; 1; 2; 3 ]
    |> Option.get
  in
  Heap.set e1 0 (Heap.Vint (key_of e2));
  [ Printf.sprintf "key %d duplicated in shard %d" (key_of e2) s ]

(* A chain head takes a key that is not stored and hashes to another
   shard. *)
let corrupt_misplaced t =
  let b, e =
    List.find_map (function b, e :: _ -> Some (b, e) | _, [] -> None) (buckets_of t 0)
    |> Option.get
  in
  let k = ref audit_keys in
  while Kv.shard_of_key t !k = 0 do incr k done;
  Heap.set e 0 (Heap.Vint !k);
  [ Printf.sprintf "key %d misplaced in shard 0 bucket %d" !k b ]

(* A chain head links to itself. The walk revisits it (a duplicate of
   its key at every step) until it has taken more steps than entries
   were ever linked, then gives up on the bucket: the rest of the chain
   goes unseen, and the shard's reachable count is off. *)
let corrupt_cycle t =
  let s = 1 in
  let in_shard = List.fold_left (fun n (_, c) -> n + List.length c) 0 (buckets_of t s) in
  let b, c = List.find (fun (_, c) -> List.length c >= 2) (buckets_of t s) in
  let e = List.hd c in
  Heap.set e 1 (Heap.Vref e);
  let bound = 1 + audit_keys in
  List.init (bound - 1) (fun _ -> Printf.sprintf "key %d duplicated in shard %d" (key_of e) s)
  @ [
      Printf.sprintf "shard %d bucket %d: chain cycle" s b;
      Printf.sprintf "shard %d header count %d but %d entries reachable" s in_shard
        (in_shard - List.length c + bound);
    ]

(* Shard 0 holds a misplaced key and a header count one too high,
   shard 3 a count one too low: the messages come in shard order, and
   within a shard the chain's before the count's. *)
let corrupt_counts t =
  let bump s d =
    let h = Kv.header t s in
    let n = match Heap.get h 1 with Heap.Vint n -> n | _ -> 0 in
    Heap.set h 1 (Heap.Vint (n + d));
    Printf.sprintf "shard %d header count %d but %d entries reachable" s (n + d) n
  in
  let low = bump 3 (-1) in
  let high = bump 0 1 in
  let misplaced = corrupt_misplaced t in
  misplaced @ [ high; low ]

(* ------------------------------------------------------------------ *)
(* Engine: determinism, invariants across profiles                     *)
(* ------------------------------------------------------------------ *)

let small p =
  {
    p with
    Engine.clients = 4;
    keys = 128;
    buckets = 16;
    ops_per_client = 48;
    batch = 4;
    scan_len = 4;
  }

(* Everything in the report is a pure function of (params, seed) except
   the host GC accounting inside the metrics block. *)
let deterministic_facets r =
  ( r.Engine.r_makespan,
    r.Engine.r_total_ops,
    r.Engine.r_stats,
    Array.to_list r.Engine.r_shard_aborts,
    Array.to_list r.Engine.r_shard_commits,
    r.Engine.r_deviation,
    List.map
      (fun (op, c) ->
        ( Profile.op_name op,
          c.Engine.cs_ops,
          c.Engine.cs_misses,
          Stm_obs.Json.to_string (Stm_obs.Hist.to_json c.Engine.cs_hist) ))
      r.Engine.r_classes )

(* The dense oid index under concurrent churn, aborted insert attempts
   included. After the preload every allocation is an insert's entry,
   and the first integer written to an entry's field 0 is its key, so a
   Debug subscriber learns the key of every entry that got that far. *)
let oid_index_under_churn () =
  let p =
    small { Engine.default with Engine.profile = Profile.churn; seed = 9 }
  in
  let key_writes = Hashtbl.create 256 in
  let on_event = function
    | Stm_core.Trace.Access { oid; fld = 0; value = Heap.Vint k; write = true; _ }
      when not (Hashtbl.mem key_writes oid) ->
        Hashtbl.replace key_writes oid k
    | _ -> ()
  in
  let r =
    Stm_core.Trace.with_sinks [ (Stm_core.Trace.Debug, on_event) ] (fun () ->
        Engine.run p)
  in
  check_bool "completed" true r.Engine.r_completed;
  let first_entry = (2 * p.Engine.shards) + 1 in
  let first_insert = first_entry + p.Engine.keys in
  let shard_of =
    let shards = ref [||] in
    with_store ~mode:strong (fun t ->
        shards := Array.init (first_insert * 4) (Kv.shard_of_key t));
    fun k -> !shards.(k)
  in
  let resolve = Alcotest.(check (option (pair int int))) in
  List.iter
    (fun oid ->
      resolve (Printf.sprintf "oid %d" oid) None (r.Engine.r_resolve_oid oid))
    [ -1; 0; 1; first_entry - 1; max_int ];
  for k = 0 to p.Engine.keys - 1 do
    resolve (Printf.sprintf "preloaded key %d" k)
      (Some (k, shard_of k))
      (r.Engine.r_resolve_oid (first_entry + k))
  done;
  let inserted = ref 0 in
  Hashtbl.iter
    (fun oid k ->
      if oid >= first_insert then begin
        incr inserted;
        resolve (Printf.sprintf "inserted key %d (oid %d)" k oid)
          (Some (k, shard_of k))
          (r.Engine.r_resolve_oid oid)
      end)
    key_writes;
  check_bool "churn inserted keys" true (!inserted > 10)

let engine_deterministic () =
  let p = small { Engine.default with Engine.seed = 5 } in
  let a = Engine.run p and b = Engine.run p in
  check_bool "completed" true a.Engine.r_completed;
  check_bool "identical reports" true
    (deterministic_facets a = deterministic_facets b)

let invariants_all_profiles () =
  List.iter
    (fun profile ->
      List.iter
        (fun mode ->
          let p =
            small { Engine.default with Engine.profile; mode; seed = 3 }
          in
          let r = Engine.run p in
          check_bool
            (profile.Profile.pname ^ "/" ^ Mode.name mode
           ^ " completed")
            true r.Engine.r_completed;
          Alcotest.(check (list string))
            (profile.Profile.pname ^ "/" ^ Mode.name mode
           ^ " invariants")
            [] r.Engine.r_invariants;
          check_int
            (profile.Profile.pname ^ " runs every op")
            (p.Engine.clients * p.Engine.ops_per_client)
            r.Engine.r_total_ops)
        [ strong; weak; Mode.Locks; mvcc ])
    Profile.all

(* ------------------------------------------------------------------ *)
(* Figure-6 anomaly demonstration on store traffic                     *)
(* ------------------------------------------------------------------ *)

let anomaly_params mode =
  { Engine.default with Engine.profile = Profile.anomaly; mode }

(* Locks and the strong and dea points (13 modes) are held to exactness;
   the weak and quiesce points (10) are expected to lose updates. *)
let isolated_modes, unisolated_modes = List.partition Mode.isolated Mode.all

let weak_loses_updates () =
  check_int "unisolated modes" 10 (List.length unisolated_modes);
  List.iter
    (fun mode ->
      let r = Engine.run (anomaly_params mode) in
      check_bool "completed" true r.Engine.r_completed;
      match r.Engine.r_deviation with
      | None -> Alcotest.fail "anomaly profile must report a deviation"
      | Some d ->
          check_bool
            (Printf.sprintf "%s drifted (deviation %d)" (Mode.name mode) d)
            true (d <> 0))
    unisolated_modes

let strong_exact () =
  check_int "isolated modes" 13 (List.length isolated_modes);
  List.iter
    (fun mode ->
      let r = Engine.run (anomaly_params mode) in
      check_bool "completed" true r.Engine.r_completed;
      Alcotest.(check (option int))
        (Mode.name mode ^ " deviation")
        (Some 0) r.Engine.r_deviation;
      check_bool "increments happened" true (r.Engine.r_increments > 0))
    isolated_modes

(* ------------------------------------------------------------------ *)
(* Scaling and barrier overhead                                        *)
(* ------------------------------------------------------------------ *)

let shard_scaling () =
  let run shards =
    Engine.run { Engine.default with Engine.shards }
  in
  let r1 = run 1 and r8 = run 8 in
  check_bool "both completed" true
    (r1.Engine.r_completed && r8.Engine.r_completed);
  check_bool
    (Printf.sprintf "throughput scales with shards (%.0f -> %.0f ops/Mcycle)"
       r1.Engine.r_throughput r8.Engine.r_throughput)
    true
    (r8.Engine.r_throughput > r1.Engine.r_throughput)

let barrier_overhead () =
  let run mode = Engine.run { Engine.default with Engine.mode } in
  let rs = run strong and rw = run weak in
  let ls = Engine.nontxn_mean_latency rs
  and lw = Engine.nontxn_mean_latency rw in
  check_bool
    (Printf.sprintf "strong non-txn ops pay barriers (%.1f > %.1f cycles)" ls
       lw)
    true (ls > lw)

(* ------------------------------------------------------------------ *)
(* Differential check against the serializability oracle               *)
(* ------------------------------------------------------------------ *)

let record_params mode =
  { (anomaly_params mode) with Engine.record = true }

let oracle_certifies_strong () =
  List.iter
    (fun mode ->
      let r = Engine.run (record_params mode) in
      check_bool "completed" true r.Engine.r_completed;
      match r.Engine.r_verdict with
      | Some Stm_check.History.Serializable -> ()
      | Some v ->
          Alcotest.failf "%s store traffic rejected: %a" (Mode.name mode)
            Stm_check.History.pp_verdict v
      | None -> Alcotest.fail "record run must produce a verdict")
    isolated_modes

let oracle_rejects_weak () =
  List.iter
    (fun mode ->
      let r = Engine.run (record_params mode) in
      check_bool "completed" true r.Engine.r_completed;
      match r.Engine.r_verdict with
      | Some (Stm_check.History.Anomalous _) -> ()
      | Some v ->
          Alcotest.failf "%s mixed traffic came back %a" (Mode.name mode)
            Stm_check.History.pp_verdict v
      | None -> Alcotest.fail "record run must produce a verdict")
    unisolated_modes

let record_rejects_structural () =
  Alcotest.check_raises "churn cannot be recorded"
    (Invalid_argument
       "store: profile churn inserts/deletes keys and cannot be \
        oracle-recorded")
    (fun () ->
      ignore
        (Engine.run
           {
             Engine.default with
             Engine.profile = Profile.churn;
             record = true;
           }))

(* A doomed rmw transaction can read a concurrent insert's half-built
   entry and fault with [Invalid_argument "Stm.to_int: null"].
   [Kv.atomically] must validate on the fault and retry, not let the
   fault kill the client. The stock write-heavy profile hits it at
   seed 3. *)
let doomed_txn_fault_retries () =
  let r =
    Engine.run
      { Engine.default with Engine.profile = Profile.write_heavy; seed = 3 }
  in
  check_bool "completed" true r.Engine.r_completed;
  Alcotest.(check (list string)) "invariants" [] r.Engine.r_invariants

(* ------------------------------------------------------------------ *)
(* The kept store image                                                *)
(* ------------------------------------------------------------------ *)

(* The engine's preload values: a token per key in record mode. *)
let preload_value p k = if p.Engine.record then k + 1 else 0

(* A store of [p]'s shape, created as the engine creates it. *)
let engine_create p =
  Kv.create ~buckets:p.Engine.buckets ~value_size:p.Engine.value_size
    ~mode:p.Engine.mode ~shards:p.Engine.shards ~keys:p.Engine.keys
    ~value:(preload_value p)
    ~cost:(Stm_core.Stm.config ()).Stm_core.Config.cost ()

(* [f] on [engine_create p], in a run of its own; a check that fails
   inside the run fails the test with its own message. *)
let engine_store p f =
  let out = ref None in
  let result, _ =
    Stm_core.Stm.run ~cfg:(Mode.config p.Engine.mode) (fun () ->
        out := Some (f (engine_create p)))
  in
  List.iter (fun (_, e) -> raise e) result.Sched.exns;
  check_bool "store run completed" true (result.Sched.status = Sched.Completed);
  Option.get !out

let kept_facets r =
  ( deterministic_facets r,
    r.Engine.r_invariants,
    Option.map
      (fun v -> Stm_obs.Json.to_string (Stm_check.History.verdict_to_json v))
      r.Engine.r_verdict )

(* Groups of runs of one store shape each, back to back: each group's
   first run reissues an image the group's shape built, every later one
   the image its predecessor's traffic left behind (inserts and deletes,
   version chains, locked and versioned transaction records). Every run
   reports what the same run reports on a freshly built store; after
   each group the image is still the one the group started with, and
   reissued it audits clean, with exactly the preloaded keys and
   values. *)
let kept_image_same_runs () =
  let base = small Engine.default in
  let eager_ts = Mode.Stm (Point.v (Point.Eager Stm_core.Config.Timestamp) Point.Strong) in
  let run profile mode seed p = { p with Engine.profile; mode; seed } in
  let groups =
    [
      [
        run Profile.churn eager_ts 1 base;
        run Profile.write_heavy eager_ts 2 base;
        run Profile.read_heavy mvcc 3 base;
        run Profile.churn mvcc 4 base;
        run Profile.write_heavy strong 5 base;
      ];
      [ run Profile.write_heavy Mode.Locks 6 base; run Profile.churn Mode.Locks 7 base ];
      List.map
        (fun (profile, mode, seed) -> { (run profile mode seed base) with Engine.record = true })
        [
          (Profile.anomaly, mvcc, 8);
          (Profile.read_heavy, mvcc, 9);
          (Profile.batch_mix, eager_ts, 10);
        ];
      List.map
        (fun (profile, mode, seed) -> run profile mode seed { base with Engine.keys = 200 })
        [ (Profile.read_heavy, eager_ts, 11); (Profile.churn, eager_ts, 12) ];
    ]
  in
  let name p =
    Printf.sprintf "%s/%s%s, %d keys, seed %d" p.Engine.profile.Profile.pname
      (Mode.name p.Engine.mode)
      (if p.Engine.record then " recorded" else "")
      p.Engine.keys p.Engine.seed
  in
  (* each reference run follows a store of another shape, so it builds *)
  let fresh p =
    with_store ~mode:strong ~keys:1 ignore;
    kept_facets (Engine.run p)
  in
  let expected = List.map (List.map (fun p -> (p, fresh p))) groups in
  List.iter
    (fun group ->
      let p0, _ = List.hd group in
      let kept = engine_store p0 (fun t -> Kv.table t 0) in
      List.iter
        (fun (p, want) ->
          let r = Engine.run p in
          check_bool (name p ^ ": completed") true r.Engine.r_completed;
          check_bool (name p ^ ": as on a fresh store") true (kept_facets r = want))
        group;
      engine_store p0 (fun t ->
          check_bool (name p0 ^ ": the image was kept") true (Kv.table t 0 == kept);
          for s = 0 to p0.Engine.shards - 1 do
            List.iter
              (fun (o : Heap.obj) ->
                check_bool
                  (Printf.sprintf "%s: oid %d reissued unversioned and public" (name p0)
                     o.Heap.oid)
                  true
                  (Heap.txrec_peek o = Heap.shared_txrec0
                  && Heap.version_ts_peek o = 0
                  && Heap.chain_length o = 1))
              (Kv.table t s :: Kv.header t s :: List.concat_map snd (buckets_of t s))
          done;
          Alcotest.(check (list string)) (name p0 ^ ": reissued clean") [] (Kv.check_invariants t);
          Alcotest.(check (list (pair int int)))
            (name p0 ^ ": the preloaded keys and values")
            (List.init p0.Engine.keys (fun k -> (k, preload_value p0 k)))
            (List.sort Stdlib.compare (Kv.fold t ~init:[] ~f:(fun acc k v -> (k, v) :: acc)))))
    expected

(* What a store is built afresh for: a [Footprint] sink (a build reports
   its field stores, a reissue does not), a run whose oid counter is not
   where the image's build started, and another shape. *)
let kept_image_rebuilds () =
  let p = small Engine.default in
  let table t = Kv.table t 0 in
  let kept = engine_store p table in
  check_bool "same shape: reissued" true (engine_store p table == kept);
  let reports = ref 0 in
  Footprint.set_sink (Some (fun _ _ -> incr reports));
  let sunk =
    Fun.protect
      ~finally:(fun () -> Footprint.set_sink None)
      (fun () -> engine_store p table)
  in
  check_bool "with a sink: built" true (sunk != kept && !reports > 0);
  check_bool "that build is kept" true (engine_store p table == sunk);
  engine_store p (fun t ->
      check_bool "a second store in one run: built" true
        (table (engine_create p) != table t));
  let kept = engine_store p table in
  check_bool "another shape: built" true
    (engine_store { p with Engine.buckets = p.Engine.buckets + 1 } table != kept);
  check_bool "and back: built again" true (engine_store p table != kept)

let suite =
  [
    ( "store",
      [
        case "keydist: deterministic per seed" keydist_deterministic;
        case "keydist: uniform passes chi-square" uniform_chi_square;
        case "keydist: zipfian fails uniform chi-square" zipfian_not_uniform;
        case "keydist: zipfian skew shape" zipfian_skew_shape;
        case "keydist: scramble spreads hot ranks" scramble_spreads;
        case "keydist: samplers sharing a key space draw as create does"
          keydist_shared_space;
        case "keydist: a remembered space draws as a fresh one"
          keydist_remembered_space;
        case "kv: semantics (strong)" (kv_semantics strong);
        case "kv: semantics (weak)" (kv_semantics weak);
        case "kv: semantics (lock)" (kv_semantics Mode.Locks);
        case "kv: semantics (mvcc)" (kv_semantics mvcc);
        case "kv: dense oid index = reference map" oid_index_matches_reference;
        case "kv: dense oid index under concurrent churn" oid_index_under_churn;
        case "kv: audit reports a duplicated key" (audit_catches corrupt_duplicate);
        case "kv: audit reports a misplaced key" (audit_catches corrupt_misplaced);
        case "kv: audit reports a chain cycle" (audit_catches corrupt_cycle);
        case "kv: audit reports header counts in shard order"
          (audit_catches corrupt_counts);
        case "engine: deterministic per seed" engine_deterministic;
        case "engine: invariants across all profiles and modes"
          invariants_all_profiles;
        case "fig6: weak mode loses updates" weak_loses_updates;
        case "fig6: strong, lock and mvcc modes are exact" strong_exact;
        case "perf: throughput scales with shard count" shard_scaling;
        case "perf: strong pays barriers on non-txn ops" barrier_overhead;
        case "oracle: certifies strong, lock and mvcc traffic"
          oracle_certifies_strong;
        case "oracle: rejects weak mixed traffic" oracle_rejects_weak;
        case "oracle: structural profiles are not recordable"
          record_rejects_structural;
        case "engine: doomed transaction fault retries (write-heavy, seed 3)"
          doomed_txn_fault_retries;
        case "kv: a reissued image runs as a fresh store" kept_image_same_runs;
        case "kv: what builds a store afresh" kept_image_rebuilds;
      ] );
  ]
