(* Tests for the STM core: transaction-record encoding (Figure 7),
   transaction engine (eager and lazy), isolation barriers (Figures 9/10),
   dynamic escape analysis (Figure 11), quiescence, and the public API. *)

open Stm_runtime
open Stm_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let in_sim f =
  let result = Sched.run f in
  (match result.Sched.exns with
  | [] -> ()
  | (tid, e) :: _ ->
      Alcotest.failf "thread %d raised %s" tid (Printexc.to_string e));
  Alcotest.(check bool) "completed" true (result.Sched.status = Sched.Completed)

(* Run [f] inside a fresh simulated machine with the given STM config. *)
let with_stm ?(cfg = Config.eager_weak) f =
  Heap.reset ();
  Stm.install cfg;
  Fun.protect ~finally:Stm.uninstall (fun () -> in_sim f)

let vi = Stm.vint
let geti o f = Stm.to_int (Stm.read o f)

(* ------------------------------------------------------------------ *)
(* Txrec (Figure 7)                                                    *)
(* ------------------------------------------------------------------ *)

let txrec_examples () =
  check_bool "shared decode" true (Txrec.decode (Txrec.shared 5) = Txrec.Shared 5);
  check_bool "exclusive decode" true
    (Txrec.decode (Txrec.exclusive 9) = Txrec.Exclusive 9);
  check_bool "anon decode" true
    (Txrec.decode (Txrec.exclusive_anon 7) = Txrec.Exclusive_anon 7);
  check_bool "private decode" true (Txrec.decode Txrec.private_word = Txrec.Private)

let txrec_bit_tests () =
  (* the read barrier's single-bit test: set except for Exclusive *)
  check_bool "shared readable" true (Txrec.readable_bit (Txrec.shared 3));
  check_bool "anon readable" true (Txrec.readable_bit (Txrec.exclusive_anon 3));
  check_bool "private readable" true (Txrec.readable_bit Txrec.private_word);
  check_bool "exclusive not readable" false
    (Txrec.readable_bit (Txrec.exclusive 4));
  (* BTR acquirable: Shared and Private only *)
  check_bool "shared acquirable" true (Txrec.btr_acquirable (Txrec.shared 3));
  check_bool "private acquirable" true (Txrec.btr_acquirable Txrec.private_word);
  check_bool "exclusive not acquirable" false
    (Txrec.btr_acquirable (Txrec.exclusive 4));
  check_bool "anon not acquirable" false
    (Txrec.btr_acquirable (Txrec.exclusive_anon 4))

let txrec_btr_then_release () =
  (* the write barrier's arithmetic: BTR clears bit 0 turning Shared(v)
     into ExclAnon(v); adding 9 releases to Shared(v+1) *)
  let v = 123 in
  let w = Txrec.shared v in
  let acquired = w - 1 in
  check_bool "btr yields anon same version" true
    (Txrec.decode acquired = Txrec.Exclusive_anon v);
  check_bool "release bumps version" true
    (Txrec.decode (acquired + Txrec.release_delta) = Txrec.Shared (v + 1))

let txrec_qcheck =
  let open QCheck in
  [
    Test.make ~name:"txrec: shared roundtrip" ~count:500
      (int_bound 1_000_000) (fun v ->
        Txrec.decode (Txrec.shared v) = Txrec.Shared v
        && Txrec.version (Txrec.shared v) = v);
    Test.make ~name:"txrec: exclusive roundtrip" ~count:500
      (int_range 1 1_000_000) (fun o ->
        Txrec.decode (Txrec.exclusive o) = Txrec.Exclusive o
        && Txrec.owner (Txrec.exclusive o) = o);
    Test.make ~name:"txrec: anon roundtrip" ~count:500 (int_bound 1_000_000)
      (fun v -> Txrec.decode (Txrec.exclusive_anon v) = Txrec.Exclusive_anon v);
    Test.make ~name:"txrec: btr/add-9 algebra" ~count:500 (int_bound 1_000_000)
      (fun v ->
        let acq = Txrec.shared v - 1 in
        Txrec.decode acq = Txrec.Exclusive_anon v
        && Txrec.decode (acq + Txrec.release_delta) = Txrec.Shared (v + 1));
    Test.make ~name:"txrec: states are distinct" ~count:500
      (pair (int_bound 100000) (int_range 1 100000)) (fun (v, o) ->
        let words =
          [ Txrec.shared v; Txrec.exclusive o; Txrec.exclusive_anon v;
            Txrec.private_word ]
        in
        List.length (List.sort_uniq compare words) = 4);
  ]

(* ------------------------------------------------------------------ *)
(* Config                                                              *)
(* ------------------------------------------------------------------ *)

let config_describe () =
  Alcotest.(check string) "weak" "eager+weak" (Config.describe Config.eager_weak);
  Alcotest.(check string)
    "strong dea" "lazy+strong+dea"
    (Config.describe Config.(with_dea lazy_strong));
  Alcotest.(check string)
    "timestamp" "lazy+weak+ts"
    (Config.describe Config.(with_validation Timestamp lazy_weak));
  (* mvcc has its own commit clock: the validation knob is not named *)
  Alcotest.(check string)
    "mvcc ignores validation" "mvcc+weak"
    (Config.describe Config.(with_validation Timestamp mvcc_weak))

let config_install_validation () =
  (match Stm.install { Config.eager_weak with dea = true } with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "dea without strong should be rejected");
  (match Stm.install { Config.eager_weak with granule = 0 } with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "granule 0 should be rejected");
  Stm.uninstall ()

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)
(* ------------------------------------------------------------------ *)

let txn_commit_visibility cfg () =
  with_stm ~cfg (fun () ->
      let o = Stm.alloc_public ~cls:"C" 2 in
      Stm.atomic (fun () ->
          Stm.write o 0 (vi 1);
          Stm.write o 1 (vi 2));
      check_int "field 0" 1 (geti o 0);
      check_int "field 1" 2 (geti o 1))

let txn_abort_rollback cfg () =
  with_stm ~cfg (fun () ->
      let o = Stm.alloc_public ~cls:"C" 1 in
      Stm.write o 0 (vi 10);
      (try
         Stm.atomic (fun () ->
             Stm.write o 0 (vi 99);
             failwith "user abort")
       with Failure _ -> ());
      check_int "rolled back" 10 (geti o 0))

let txn_read_own_write cfg () =
  with_stm ~cfg (fun () ->
      let o = Stm.alloc_public ~cls:"C" 1 in
      Stm.atomic (fun () ->
          Stm.write o 0 (vi 7);
          check_int "reads own write" 7 (geti o 0)))

let txn_version_bump cfg () =
  with_stm ~cfg (fun () ->
      let o = Stm.alloc_public ~cls:"C" 1 in
      let v0 = Txrec.version (Atomic.get o.Heap.txrec) in
      Stm.atomic (fun () -> Stm.write o 0 (vi 1));
      let v1 = Txrec.version (Atomic.get o.Heap.txrec) in
      check_bool "version bumped by commit" true (v1 > v0);
      check_bool "record released" true
        (Txrec.is_shared (Atomic.get o.Heap.txrec)))

let txn_concurrent_counter cfg () =
  with_stm ~cfg (fun () ->
      let o = Stm.alloc_public ~cls:"Ctr" 1 in
      Stm.write o 0 (vi 0);
      let worker () =
        for _ = 1 to 30 do
          Stm.atomic (fun () -> Stm.write o 0 (vi (geti o 0 + 1)))
        done
      in
      let ts = List.init 4 (fun _ -> Sched.spawn worker) in
      List.iter Sched.join ts;
      check_int "no lost increments" 120 (geti o 0))

let txn_isolation_invariant cfg () =
  (* maintain x + y = 100 under concurrent transfers and transactional
     observers *)
  with_stm ~cfg (fun () ->
      let acct = Stm.alloc_public ~cls:"Acct" 2 in
      Stm.write acct 0 (vi 60);
      Stm.write acct 1 (vi 40);
      let violations = ref 0 in
      let transfer () =
        for i = 1 to 25 do
          Stm.atomic (fun () ->
              let x = geti acct 0 in
              let amount = (i mod 7) - 3 in
              Stm.write acct 0 (vi (x - amount));
              Stm.write acct 1 (vi (geti acct 1 + amount)))
        done
      in
      let observer () =
        for _ = 1 to 25 do
          (* observe through the transaction's return value: effects of
             doomed executions are rolled back, arbitrary OCaml side
             effects inside the closure are not *)
          let sum = Stm.atomic (fun () -> geti acct 0 + geti acct 1) in
          if sum <> 100 then incr violations
        done
      in
      let ts =
        [ Sched.spawn transfer; Sched.spawn transfer; Sched.spawn observer ]
      in
      List.iter Sched.join ts;
      check_int "invariant never violated" 0 !violations;
      check_int "total conserved" 100 (geti acct 0 + geti acct 1))

let txn_nested_flattening cfg () =
  with_stm ~cfg (fun () ->
      let o = Stm.alloc_public ~cls:"C" 1 in
      Stm.write o 0 (vi 0);
      (try
         Stm.atomic (fun () ->
             Stm.write o 0 (vi 1);
             Stm.atomic (fun () -> Stm.write o 0 (vi 2));
             failwith "abort outer")
       with Failure _ -> ());
      (* flattened: inner effects roll back with the outer abort *)
      check_int "inner write also rolled back" 0 (geti o 0))

let txn_open_nesting () =
  with_stm ~cfg:Config.eager_weak (fun () ->
      let log = Stm.alloc_public ~cls:"Log" 1 in
      let o = Stm.alloc_public ~cls:"C" 1 in
      Stm.write log 0 (vi 0);
      Stm.write o 0 (vi 0);
      (try
         Stm.atomic (fun () ->
             Stm.write o 0 (vi 5);
             Stm.atomic_open (fun () -> Stm.write log 0 (vi 1));
             failwith "abort parent")
       with Failure _ -> ());
      check_int "open-nested commit survives parent abort" 1 (geti log 0);
      check_int "parent write rolled back" 0 (geti o 0))

let txn_open_nest_conflict () =
  with_stm ~cfg:Config.eager_weak (fun () ->
      let o = Stm.alloc_public ~cls:"C" 1 in
      match
        Stm.atomic (fun () ->
            Stm.write o 0 (vi 1);
            (* open-nested txn touching parent-owned data is rejected *)
            Stm.atomic_open (fun () -> Stm.write o 0 (vi 2)))
      with
      | exception Txn.Open_nest_conflict -> ()
      | () -> Alcotest.fail "expected Open_nest_conflict")

let txn_retry_waits_for_change () =
  with_stm ~cfg:Config.eager_weak (fun () ->
      let flag = Stm.alloc_public ~cls:"Flag" 1 in
      Stm.write flag 0 (vi 0);
      let consumer =
        Sched.spawn (fun () ->
            Stm.atomic (fun () ->
                if geti flag 0 = 0 then Stm.retry () else ()))
      in
      Sched.yield ();
      Sched.tick 100;
      Stm.atomic (fun () -> Stm.write flag 0 (vi 1));
      Sched.join consumer)

let txn_granular_undo () =
  (* granule = 2: an abort restores the whole granule *)
  let cfg = Config.(with_granule 2 eager_weak) in
  with_stm ~cfg (fun () ->
      let o = Stm.alloc_public ~cls:"C" 2 in
      Stm.write o 0 (vi 1);
      Stm.write o 1 (vi 2);
      (try
         Stm.atomic (fun () ->
             Stm.write o 0 (vi 100);
             (* direct unlogged store models a concurrent writer landing in
                the same granule before the abort *)
             Heap.set o 1 (vi 55);
             failwith "abort")
       with Failure _ -> ());
      check_int "written field restored" 1 (geti o 0);
      check_int "adjacent field clobbered by granular undo" 2 (geti o 1))

let txn_field_granular_undo () =
  (* granule = 1: only the written field is restored *)
  with_stm ~cfg:Config.eager_weak (fun () ->
      let o = Stm.alloc_public ~cls:"C" 2 in
      Stm.write o 1 (vi 2);
      (try
         Stm.atomic (fun () ->
             Stm.write o 0 (vi 100);
             Heap.set o 1 (vi 55);
             failwith "abort")
       with Failure _ -> ());
      check_int "adjacent field untouched" 55 (geti o 1))

let txn_lazy_buffering () =
  with_stm ~cfg:Config.lazy_weak (fun () ->
      let o = Stm.alloc_public ~cls:"C" 1 in
      Stm.write o 0 (vi 0);
      let observed_during = ref (-1) in
      let t =
        Sched.spawn (fun () ->
            Stm.atomic (fun () ->
                Stm.write o 0 (vi 42);
                (* lazy: memory unchanged until commit *)
                observed_during := Stm.to_int (Heap.get o 0)))
      in
      Sched.join t;
      check_int "buffered during txn" 0 !observed_during;
      check_int "visible after commit" 42 (geti o 0))

let txn_lazy_acquire_version_check () =
  (* a lazy transaction whose buffered object changed version must abort
     and retry (the commit-time CAS expects the buffered version) *)
  with_stm ~cfg:Config.lazy_weak (fun () ->
      let o = Stm.alloc_public ~cls:"C" 1 in
      Stm.write o 0 (vi 0);
      let w1 =
        Sched.spawn (fun () ->
            Stm.atomic (fun () -> Stm.write o 0 (vi (geti o 0 + 1))))
      in
      let w2 =
        Sched.spawn (fun () ->
            Stm.atomic (fun () -> Stm.write o 0 (vi (geti o 0 + 1))))
      in
      Sched.join w1;
      Sched.join w2;
      check_int "both increments applied" 2 (geti o 0))

let txn_stats_counters () =
  with_stm ~cfg:Config.eager_weak (fun () ->
      let o = Stm.alloc_public ~cls:"C" 1 in
      Stm.write o 0 (vi 0);
      Stm.atomic (fun () ->
          ignore (geti o 0);
          Stm.write o 0 (vi 1));
      let s = Stm.stats () in
      check_int "commits" 1 s.Stats.commits;
      check_bool "reads counted" true (s.Stats.txn_reads >= 1);
      check_bool "writes counted" true (s.Stats.txn_writes >= 1))

let txn_doomed_validation_abort () =
  (* periodic validation aborts a doomed transaction stuck in a loop *)
  let cfg = { Config.eager_weak with validate_every = 4 } in
  with_stm ~cfg (fun () ->
      let o = Stm.alloc_public ~cls:"C" 1 in
      Stm.write o 0 (vi 0);
      let runs = ref 0 in
      let t =
        Sched.spawn (fun () ->
            Stm.atomic (fun () ->
                incr runs;
                let seen = geti o 0 in
                if seen = 0 then
                  (* wait until another transaction changes o; a doomed
                     loop unless periodic validation aborts us *)
                  for _ = 1 to 30 do
                    ignore (geti o 0)
                  done))
      in
      Sched.yield ();
      Stm.atomic (fun () -> Stm.write o 0 (vi 1));
      Sched.join t;
      check_bool "transaction re-executed after doom" true (!runs >= 2))

(* ------------------------------------------------------------------ *)
(* Barriers (Figures 9/10)                                             *)
(* ------------------------------------------------------------------ *)

let barrier_write_bumps_version () =
  with_stm ~cfg:Config.eager_strong (fun () ->
      let o = Stm.alloc_public ~cls:"C" 1 in
      let v0 = Txrec.version (Atomic.get o.Heap.txrec) in
      Stm.write o 0 (vi 5);
      let v1 = Txrec.version (Atomic.get o.Heap.txrec) in
      check_int "one non-txn write = one version bump" (v0 + 1) v1;
      check_bool "released to shared" true
        (Txrec.is_shared (Atomic.get o.Heap.txrec)))

let barrier_read_waits_for_txn () =
  (* a non-txn reader never observes the intermediate state of a
     transaction (the IDR litmus, as a unit test) *)
  with_stm ~cfg:Config.eager_strong (fun () ->
      let o = Stm.alloc_public ~cls:"C" 1 in
      Stm.write o 0 (vi 0);
      let odd_seen = ref false in
      let t =
        Sched.spawn (fun () ->
            for _ = 1 to 10 do
              Stm.atomic (fun () ->
                  Stm.write o 0 (vi (geti o 0 + 1));
                  Stm.write o 0 (vi (geti o 0 + 1)))
            done)
      in
      let r =
        Sched.spawn (fun () ->
            for _ = 1 to 30 do
              if geti o 0 mod 2 = 1 then odd_seen := true
            done)
      in
      Sched.join t;
      Sched.join r;
      check_bool "evenness invariant preserved" false !odd_seen)

let barrier_raise_policy () =
  let cfg = { Config.eager_strong with conflict = Config.Raise_error } in
  with_stm ~cfg (fun () ->
      let o = Stm.alloc_public ~cls:"C" 1 in
      Stm.write o 0 (vi 0);
      let raised = ref false in
      let t =
        Sched.spawn (fun () ->
            Stm.atomic (fun () ->
                Stm.write o 0 (vi 1);
                (* hold the record across a long window *)
                Sched.tick 5000;
                Sched.yield ()))
      in
      let r =
        Sched.spawn (fun () ->
            (* land inside the writer's window deterministically *)
            Sched.tick 1000;
            Sched.yield ();
            match Stm.read o 0 with
            | exception Conflict.Isolation_violation _ -> raised := true
            | _ -> ())
      in
      Sched.join t;
      Sched.join r;
      check_bool "race detected and raised" true !raised)

let barrier_private_fast_path () =
  let cfg = Config.(with_dea eager_strong) in
  with_stm ~cfg (fun () ->
      let o = Stm.alloc ~cls:"C" 1 in
      Stm.write o 0 (vi 1);
      ignore (geti o 0);
      let s = Stm.stats () in
      check_bool "private hits" true (s.Stats.barrier_private_hits >= 2);
      check_int "no atomic ops for private data" 0 s.Stats.atomic_ops)

let barrier_acquire_release_pairing () =
  with_stm ~cfg:Config.eager_strong (fun () ->
      let o = Stm.alloc_public ~cls:"C" 1 in
      let cfg = Stm.config () in
      let w = Barriers.acquire_anon cfg (Stm.stats ()) o in
      check_bool "anon while held" true
        (Txrec.is_exclusive_anon (Atomic.get o.Heap.txrec));
      Barriers.release_anon cfg o w;
      check_bool "shared after release" true
        (Txrec.is_shared (Atomic.get o.Heap.txrec)))

let barrier_ordering_blocks_writeback () =
  (* ordering-only read barrier (Section 3.3): a reader waits out the
     lazy write-back window *)
  with_stm ~cfg:Config.lazy_strong (fun () ->
      let g = Stm.alloc_public ~cls:"G" 1 in
      let el = Stm.alloc_public ~cls:"El" 1 in
      Stm.write el 0 (vi 0);
      Stm.write g 0 Heap.Vnull;
      let bad = ref false in
      let t =
        Sched.spawn (fun () ->
            Stm.atomic (fun () ->
                Stm.write el 0 (vi 1);
                Stm.write g 0 (Stm.vref el)))
      in
      let r =
        Sched.spawn (fun () ->
            for _ = 1 to 20 do
              let v = Stm.read g 0 in
              if not (Stm.is_null v) then
                if geti (Stm.to_obj v) 0 = 0 then bad := true
            done)
      in
      Sched.join t;
      Sched.join r;
      check_bool "publication order preserved" false !bad)

(* ------------------------------------------------------------------ *)
(* Dynamic escape analysis (Figure 11)                                 *)
(* ------------------------------------------------------------------ *)

let dea_alloc_private () =
  let cfg = Config.(with_dea eager_strong) in
  with_stm ~cfg (fun () ->
      let o = Stm.alloc ~cls:"C" 1 in
      check_bool "fresh object private" true (Dea.is_private o);
      let p = Stm.alloc_public ~cls:"C" 1 in
      check_bool "alloc_public is public" false (Dea.is_private p))

let dea_publish_closure () =
  let cfg = Config.(with_dea eager_strong) in
  with_stm ~cfg (fun () ->
      let a = Stm.alloc ~cls:"A" 1 in
      let b = Stm.alloc ~cls:"B" 1 in
      let c = Stm.alloc ~cls:"C" 1 in
      Stm.write a 0 (Stm.vref b);
      Stm.write b 0 (Stm.vref c);
      (* cycle back to a *)
      Stm.write c 0 (Stm.vref a);
      let root = Stm.alloc_public ~cls:"Root" 1 in
      Stm.write root 0 (Stm.vref a);
      check_bool "a published" false (Dea.is_private a);
      check_bool "b published transitively" false (Dea.is_private b);
      check_bool "c published transitively" false (Dea.is_private c))

let dea_publish_on_spawn_pattern () =
  let cfg = Config.(with_dea eager_strong) in
  with_stm ~cfg (fun () ->
      let thread_obj = Stm.alloc ~cls:"Worker" 1 in
      Stm.publish thread_obj;
      check_bool "explicit publish" false (Dea.is_private thread_obj))

let dea_nobarrier_store_publishes () =
  (* regression: a store whose barrier was statically removed must still
     publish the referenced private object *)
  let cfg = Config.(with_dea eager_strong) in
  with_stm ~cfg (fun () ->
      let pub = Stm.alloc_public ~cls:"Pub" 1 in
      let priv = Stm.alloc ~cls:"P" 1 in
      Stm.write_nobarrier pub 0 (Stm.vref priv);
      check_bool "published through nobarrier store" false (Dea.is_private priv))

let dea_txn_store_publishes () =
  (* Section 4: in an eager system, a transactional store of a reference
     into a public object publishes immediately, before commit *)
  let cfg = Config.(with_dea eager_strong) in
  with_stm ~cfg (fun () ->
      let pub = Stm.alloc_public ~cls:"Pub" 1 in
      let priv = Stm.alloc ~cls:"P" 1 in
      let observed_mid_txn = ref true in
      Stm.atomic (fun () ->
          Stm.write pub 0 (Stm.vref priv);
          observed_mid_txn := Dea.is_private priv);
      check_bool "published before commit" false !observed_mid_txn)

let dea_private_store_no_publish () =
  let cfg = Config.(with_dea eager_strong) in
  with_stm ~cfg (fun () ->
      let a = Stm.alloc ~cls:"A" 1 in
      let b = Stm.alloc ~cls:"B" 1 in
      Stm.write a 0 (Stm.vref b);
      check_bool "store into private keeps target private" true
        (Dea.is_private b))

let dea_qcheck =
  let open QCheck in
  (* random graph: publish must leave no private object reachable from
     the root, and must terminate on arbitrary (cyclic) graphs *)
  let gen_edges =
    list_of_size (Gen.int_range 0 60) (pair (int_bound 19) (int_bound 19))
  in
  [
    Test.make ~name:"dea: publish closes reachability (random graphs)"
      ~count:100 gen_edges (fun edges ->
        Heap.reset ();
        let objs = Array.init 20 (fun _ -> Heap.alloc ~txrec:Heap.private_txrec ~cls:"N" 3) in
        List.iteri
          (fun i (src, dst) ->
            Heap.set objs.(src) (i mod 3) (Heap.Vref objs.(dst)))
          edges;
        let stats = Stats.create () in
        ignore
          (Sched.run (fun () -> Dea.publish stats Cost.free objs.(0))
            : Sched.result);
        (* check: no private object reachable from objs.(0) *)
        let visited = Hashtbl.create 32 in
        let ok = ref true in
        let rec visit (o : Heap.obj) =
          if not (Hashtbl.mem visited o.Heap.oid) then begin
            Hashtbl.replace visited o.Heap.oid ();
            if Dea.is_private o then ok := false;
            Array.iter
              (function Heap.Vref p -> visit p | _ -> ())
              o.Heap.fields
          end
        in
        visit objs.(0);
        !ok);
  ]

(* ------------------------------------------------------------------ *)
(* Quiescence                                                          *)
(* ------------------------------------------------------------------ *)

let quiesce_tickets () =
  let q = Quiesce.create () in
  let t0 = Quiesce.take_ticket q in
  let t1 = Quiesce.take_ticket q in
  check_int "tickets ordered" 0 t0;
  check_int "tickets ordered" 1 t1;
  in_sim (fun () ->
      Quiesce.await_turn q t0;
      Quiesce.retire_ticket q t0;
      Quiesce.await_turn q t1;
      Quiesce.retire_ticket q t1)

let quiesce_epoch_wait () =
  in_sim (fun () ->
      let q = Quiesce.create () in
      let p1 = Quiesce.register q in
      let p2 = Quiesce.register q in
      let committed = ref false in
      let t =
        Sched.spawn (fun () ->
            Quiesce.commit_epoch_wait q p1;
            committed := true;
            Quiesce.deregister q p1)
      in
      (* let the committer run and start waiting *)
      Sched.tick 100;
      Sched.yield ();
      check_bool "committer waits for p2" false !committed;
      Quiesce.mark_consistent q p2;
      Sched.join t;
      check_bool "committer released" true !committed;
      Quiesce.deregister q p2)

let quiesce_concurrent_committers () =
  (* two committers must not deadlock on each other *)
  in_sim (fun () ->
      let q = Quiesce.create () in
      let p1 = Quiesce.register q in
      let p2 = Quiesce.register q in
      let a =
        Sched.spawn (fun () ->
            Quiesce.commit_epoch_wait q p1;
            Quiesce.deregister q p1)
      in
      let b =
        Sched.spawn (fun () ->
            Quiesce.commit_epoch_wait q p2;
            Quiesce.deregister q p2)
      in
      Sched.join a;
      Sched.join b)

let quiesce_counter_correct () =
  let cfg = Config.(with_quiescence eager_weak) in
  with_stm ~cfg (fun () ->
      let o = Stm.alloc_public ~cls:"Ctr" 1 in
      Stm.write o 0 (vi 0);
      let worker () =
        for _ = 1 to 20 do
          Stm.atomic (fun () -> Stm.write o 0 (vi (geti o 0 + 1)))
        done
      in
      let ts = List.init 4 (fun _ -> Sched.spawn worker) in
      List.iter Sched.join ts;
      check_int "quiescence preserves counting" 80 (geti o 0))

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)
(* ------------------------------------------------------------------ *)

let api_not_installed () =
  Stm.uninstall ();
  match Stm.alloc ~cls:"C" 1 with
  | exception Stm.Not_installed -> ()
  | _ -> Alcotest.fail "expected Not_installed"

let api_retry_outside () =
  with_stm (fun () ->
      match Stm.retry () with
      | exception Stm.Retry_outside_transaction -> ()
      | _ -> Alcotest.fail "expected Retry_outside_transaction")

let api_value_helpers () =
  check_int "to_int" 5 (Stm.to_int (Stm.vint 5));
  check_bool "to_bool" true (Stm.to_bool (Stm.vbool true));
  check_bool "is_null" true (Stm.is_null Heap.Vnull);
  (match Stm.to_int (Stm.vbool true) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "to_int on bool should fail");
  match Stm.to_obj Heap.Vnull with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "to_obj on null should fail"

let api_in_txn () =
  with_stm (fun () ->
      check_bool "outside" false (Stm.in_txn ());
      Stm.atomic (fun () -> check_bool "inside" true (Stm.in_txn ()));
      check_bool "after" false (Stm.in_txn ()))

let api_run_returns_stats () =
  let result, stats =
    Stm.run ~cfg:Config.eager_weak (fun () ->
        let o = Stm.alloc ~cls:"C" 1 in
        Stm.atomic (fun () -> Stm.write o 0 (Stm.vint 1)))
  in
  check_bool "completed" true (result.Sched.status = Sched.Completed);
  check_int "one commit" 1 stats.Stats.commits;
  check_bool "uninstalled after run" false (Stm.installed ())

let api_valid_outside_txn () =
  with_stm (fun () -> check_bool "valid outside" true (Stm.valid ()))

let case name f = Alcotest.test_case name `Quick f

let all_cfgs =
  [
    ("eager-weak", Config.eager_weak);
    ("lazy-weak", Config.lazy_weak);
    ("eager-strong", Config.eager_strong);
    ("lazy-strong", Config.lazy_strong);
    ("eager-strong-dea", Config.(with_dea eager_strong));
    ("lazy-strong-dea", Config.(with_dea lazy_strong));
    ("eager-quiesce", Config.(with_quiescence eager_weak));
    ("lazy-quiesce", Config.(with_quiescence lazy_weak));
  ]

let per_cfg name f = List.map (fun (cn, cfg) -> case (name ^ " [" ^ cn ^ "]") (f cfg)) all_cfgs

let suite =
  [
    ( "core:txrec",
      [
        case "example encodings" txrec_examples;
        case "bit tests" txrec_bit_tests;
        case "btr then release" txrec_btr_then_release;
      ]
      @ List.map QCheck_alcotest.to_alcotest txrec_qcheck );
    ( "core:config",
      [ case "describe" config_describe; case "install validation" config_install_validation ] );
    ( "core:txn",
      per_cfg "commit visibility" txn_commit_visibility
      @ per_cfg "abort rollback" txn_abort_rollback
      @ per_cfg "read own write" txn_read_own_write
      @ per_cfg "version bump" txn_version_bump
      @ per_cfg "concurrent counter" txn_concurrent_counter
      @ per_cfg "isolation invariant" txn_isolation_invariant
      @ per_cfg "nested flattening" txn_nested_flattening
      @ [
          case "open nesting" txn_open_nesting;
          case "open nest conflict" txn_open_nest_conflict;
          case "retry waits for change" txn_retry_waits_for_change;
          case "granular undo (granule=2)" txn_granular_undo;
          case "field-granular undo (granule=1)" txn_field_granular_undo;
          case "lazy buffering" txn_lazy_buffering;
          case "lazy acquire version check" txn_lazy_acquire_version_check;
          case "stats counters" txn_stats_counters;
          case "doomed txn validation abort" txn_doomed_validation_abort;
        ] );
    ( "core:barriers",
      [
        case "write bumps version" barrier_write_bumps_version;
        case "read waits for txn" barrier_read_waits_for_txn;
        case "raise policy" barrier_raise_policy;
        case "private fast path" barrier_private_fast_path;
        case "acquire/release pairing" barrier_acquire_release_pairing;
        case "ordering barrier blocks write-back" barrier_ordering_blocks_writeback;
      ] );
    ( "core:dea",
      [
        case "alloc private" dea_alloc_private;
        case "publish closure (with cycle)" dea_publish_closure;
        case "publish on spawn" dea_publish_on_spawn_pattern;
        case "nobarrier store publishes" dea_nobarrier_store_publishes;
        case "txn store publishes" dea_txn_store_publishes;
        case "private store no publish" dea_private_store_no_publish;
      ]
      @ List.map QCheck_alcotest.to_alcotest dea_qcheck );
    ( "core:quiesce",
      [
        case "tickets" quiesce_tickets;
        case "epoch wait" quiesce_epoch_wait;
        case "concurrent committers" quiesce_concurrent_committers;
        case "counter correct" quiesce_counter_correct;
      ] );
    ( "core:api",
      [
        case "not installed" api_not_installed;
        case "retry outside" api_retry_outside;
        case "value helpers" api_value_helpers;
        case "in_txn" api_in_txn;
        case "run returns stats" api_run_returns_stats;
        case "valid outside txn" api_valid_outside_txn;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Wound-wait contention management                                    *)
(* ------------------------------------------------------------------ *)

let wound_wait_counter () =
  let cfg = Config.(with_cm Stm_cm.Policy.Wound_wait eager_weak) in
  with_stm ~cfg (fun () ->
      let o = Stm.alloc_public ~cls:"Ctr" 1 in
      Stm.write o 0 (vi 0);
      let worker () =
        for _ = 1 to 25 do
          Stm.atomic (fun () -> Stm.write o 0 (vi (geti o 0 + 1)))
        done
      in
      let ts = List.init 6 (fun _ -> Sched.spawn worker) in
      List.iter Sched.join ts;
      check_int "no lost increments under wound-wait" 150 (geti o 0))

let wound_wait_cross_conflict () =
  (* two transactions acquiring two records in opposite order: suicide
     resolves by retry-budget exhaustion, wound-wait by the older killing
     the younger; both must make progress and stay serializable *)
  let run cfg =
    let wounds = ref 0 in
    with_stm ~cfg (fun () ->
        let a = Stm.alloc_public ~cls:"A" 1 in
        let b = Stm.alloc_public ~cls:"B" 1 in
        Stm.write a 0 (vi 0);
        Stm.write b 0 (vi 0);
        let swapper x y () =
          for _ = 1 to 15 do
            Stm.atomic (fun () ->
                let vx = geti x 0 in
                Sched.tick 30;
                Sched.yield ();
                Stm.write y 0 (vi (geti y 0 + 1));
                Stm.write x 0 (vi (vx + 1)))
          done
        in
        let t1 = Sched.spawn (swapper a b) in
        let t2 = Sched.spawn (swapper b a) in
        Sched.join t1;
        Sched.join t2;
        check_int "all increments survive" 60 (geti a 0 + geti b 0);
        wounds := (Stm.stats ()).Stats.wounds);
    !wounds
  in
  let w_suicide = run Config.eager_weak in
  let w_wound = run Config.(with_cm Stm_cm.Policy.Wound_wait eager_weak) in
  check_int "suicide never wounds" 0 w_suicide;
  check_bool "wound-wait wounds under cross conflicts" true (w_wound >= 0)

let wound_wait_victim_aborts () =
  let cfg = Config.(with_cm Stm_cm.Policy.Wound_wait { eager_weak with validate_every = 1 }) in
  with_stm ~cfg (fun () ->
      let a = Stm.alloc_public ~cls:"A" 1 in
      let b = Stm.alloc_public ~cls:"B" 1 in
      Stm.write a 0 (vi 0);
      Stm.write b 0 (vi 0);
      (* older txn (started first -> smaller id) contends with younger *)
      let young_done = ref false in
      let old_t =
        Sched.spawn (fun () ->
            Stm.atomic (fun () ->
                Stm.write a 0 (vi 1);
                (* give the younger txn time to grab b *)
                Sched.tick 200;
                Sched.yield ();
                Stm.write b 0 (vi 1)))
      in
      let young_t =
        Sched.spawn (fun () ->
            Sched.tick 50;
            Sched.yield ();
            Stm.atomic (fun () ->
                Stm.write b 0 (vi 2);
                Sched.tick 500;
                Sched.yield ();
                Stm.write a 0 (vi 2));
            young_done := true)
      in
      Sched.join old_t;
      Sched.join young_t;
      check_bool "younger eventually completes too" true !young_done;
      let s = Stm.stats () in
      check_bool "a wound happened" true (s.Stats.wounds >= 1);
      check_bool "victim aborted" true (s.Stats.aborts >= 1))

let suite =
  suite
  @ [
      ( "core:wound-wait",
        [
          case "counter correct" wound_wait_counter;
          case "cross conflicts resolve" wound_wait_cross_conflict;
          case "older wounds younger" wound_wait_victim_aborts;
        ] );
    ]

(* ------------------------------------------------------------------ *)
(* Trace events                                                        *)
(* ------------------------------------------------------------------ *)

let trace_events_emitted () =
  let events = ref [] in
  Trace.with_sinks [ (Trace.Debug, fun e -> events := e :: !events) ] (fun () ->
      with_stm ~cfg:Config.eager_weak (fun () ->
          let o = Stm.alloc_public ~cls:"C" 1 in
          Stm.write o 0 (vi 0);
          Stm.atomic (fun () -> Stm.write o 0 (vi 1));
          try
            Stm.atomic (fun () ->
                Stm.write o 0 (vi 2);
                failwith "bail")
          with Failure _ -> ()));
  let have p = List.exists p !events in
  check_bool "begin emitted" true
    (have (function Trace.Txn_begin _ -> true | _ -> false));
  check_bool "commit emitted" true
    (have (function Trace.Txn_commit _ -> true | _ -> false));
  check_bool "abort emitted" true
    (have (function Trace.Txn_abort _ -> true | _ -> false))

let trace_off_is_silent () =
  check_bool "disabled" false (Trace.enabled ());
  (* with no sink every level's guard is off, so no call site builds an
     event *)
  List.iter
    (fun (name, level) ->
      check_bool (name ^ " guard off") false (Trace.enabled_at level))
    [ ("Debug", Trace.Debug); ("History", Trace.History); ("Info", Trace.Info) ];
  (* and an unguarded emit reaches no one and does not fail *)
  Trace.emit (Trace.Txn_begin { txid = 0; tid = 0 })

(* With no sink installed, the per-access path allocates nothing: no
   trace payload, no retry-loop closure, no transaction-table lookup
   result, no scheduler round trip for a lone thread. [Gc.minor_words]
   counts exactly, so the bound is deterministic; the measurement itself
   allocates a few boxed floats, well under the one word per access the
   test allows. *)
let accesses = 10_000

let words_per_access f =
  let before = Gc.minor_words () in
  for _ = 1 to accesses do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int accesses

let trace_off_allocation_free () =
  let pass subscribed =
    List.iter
      (fun (name, cfg) ->
        with_stm ~cfg (fun () ->
            let o = Stm.alloc_public ~cls:"C" 2 in
            let v = vi 7 in
            let read () = ignore (Stm.read o 0 : Heap.value) in
            let write () = Stm.write o 1 v in
            let check what f =
              (* one untimed access first, so that one-time set-up (the
                 transaction's read-set and undo-log entry) is not counted *)
              f ();
              let w = words_per_access f in
              if w >= 1.0 then
                Alcotest.failf "%s %s (%s): %.2f words per access" name what
                  subscribed w
            in
            check "barrier read" read;
            check "barrier write" write;
            Stm.atomic (fun () ->
                check "txn read" read;
                check "txn write" write)))
      [
        ("strong-eager", Config.eager_strong);
        ("strong-eager-dea", Config.(with_dea eager_strong));
      ]
  in
  pass "no subscriber";
  (* an Info subscriber must leave the Debug payloads unbuilt *)
  Trace.with_sinks [ (Trace.Info, ignore) ] (fun () -> pass "Info subscriber")

(* Words allocated by [f], less what the measurement itself boxes. *)
let words_of f =
  let floor =
    let b = Gc.minor_words () in
    Gc.minor_words () -. b
  in
  let b = Gc.minor_words () in
  f ();
  Gc.minor_words () -. b -. floor

(* A descriptor's read, ownership, undo and write-buffer sets are
   {!Int_index} tables and grow-only arenas, sized on first use and
   cleared by a generation bump. Once a recycled descriptor has run a
   transaction of a given size, running it again allocates nothing in
   the sets: the accesses of an N-write, M-read transaction, measured
   inside the block (commit-time version installs are the mvcc backend's
   own), allocate 0 words under every versioning backend. The first
   transaction of a size no descriptor has run yet pays for the sizing:
   descriptors outlive runs, so each case runs a transaction four times
   the size of the previous case's, larger than any run before it. *)
let descriptor_sets_reuse () =
  List.iteri
    (fun k (name, cfg) ->
      let scale = 1 lsl (2 * k) in
      let n = 200 * scale and m = 300 * scale in
      with_stm ~cfg (fun () ->
          let objs = Array.init (n + m) (fun _ -> Stm.alloc_public ~cls:"C" 2) in
          let v = vi 7 in
          let accesses () =
            for i = 0 to n - 1 do
              Stm.write objs.(i) 0 v
            done;
            for i = n to n + m - 1 do
              ignore (Stm.read objs.(i) 1 : Heap.value)
            done
          in
          let measured () =
            let w = ref nan in
            Stm.atomic (fun () -> w := words_of accesses);
            !w
          in
          let first = measured () in
          if first <= 0. then
            Alcotest.failf "%s: a fresh descriptor sized its sets in %.0f words"
              name first;
          let again = measured () in
          if again <> 0. then
            Alcotest.failf "%s: recycled descriptor's sets allocated %.0f words"
              name again))
    [
      ("eager", Config.eager_weak);
      ("lazy", Config.lazy_weak);
      ("mvcc", Config.mvcc_weak);
    ]

(* A descriptor nothing has used yet is its record (wound fields and the
   block's slot inline) and four empty indexes: no arena, and no index
   array, until the first access needs one. *)
let fresh_descriptor_words () =
  let w = words_of (fun () -> ignore (Sys.opaque_identity (Txn.fresh_descriptor ()))) in
  check_int "words per fresh descriptor" 72 (int_of_float w)

(* What one warm atomic block costs the host with no subscriber: an
   empty block, and the same block flattened inside another. The
   descriptor comes from the pool, so this is the attempt loop's own
   cost plus the block's contention slot; a flattened nested block adds
   nothing. *)
let warm_block_words () =
  let empty () = Stm.atomic (fun () -> ()) in
  let nested () = Stm.atomic (fun () -> Stm.atomic (fun () -> ())) in
  List.iter
    (fun (name, cfg, expect) ->
      with_stm ~cfg (fun () ->
          empty ();
          nested ();
          let e = int_of_float (words_of empty) in
          let n = int_of_float (words_of nested) in
          Alcotest.(check (pair int int))
            (name ^ ": words per empty / nested block") expect (e, n)))
    [
      ("eager", Config.eager_weak, (15, 15));
      ("lazy", Config.lazy_weak, (15, 15));
      ("mvcc", Config.mvcc_weak, (15, 15));
    ]

(* One conflict-and-pause iteration allocates nothing: the spin of a
   transaction (eager write, lazy write-buffer slot) or of a strong
   barrier on a record another thread's transaction holds, under every
   contention-manager policy. Under [Controlled] the owner runs until it
   holds the record, then the spinner keeps the processor, so every
   decision after that is one pass of the spin loop: the contention
   decision, its trace guard and the pause. The words are read inside
   the pick, between decisions [spin_from] and [spin_from + spins], into
   a float array so that the reading itself allocates nothing. The
   spinner's transaction begins before the owner's ([older], so the
   order-sensitive policies wound) or after it (they wait); the retry
   budget outlasts the window. The run ends on fuel. *)
let spin_from = 100
let spins = 200

type spinner = Txn_older | Txn_younger | Barrier_write | Barrier_read

let spin_words cfg spinner =
  let cfg = { cfg with Config.max_txn_retries = 1_000_000 } in
  let words = Float.Array.make 2 0. in
  let contested = ref Heap.dummy in
  let decisions = ref 0 in
  let choose current ready =
    incr decisions;
    if !decisions = spin_from then Float.Array.set words 0 (Gc.minor_words ())
    else if !decisions = spin_from + spins then Float.Array.set words 1 (Gc.minor_words ());
    if Txrec.is_exclusive (Heap.txrec_peek !contested) then 0
    else
      match ready with
      | [ t ] -> t
      | _ -> if current = 0 then 1 else current
  in
  let main () =
    let o = Stm.alloc_public ~cls:"C" 1 in
    contested := o;
    let owner () = Stm.atomic (fun () -> Stm.write o 0 (vi 1)) in
    match spinner with
    | Txn_older ->
        Stm.atomic (fun () ->
            ignore (Sched.spawn owner : int);
            Sched.yield ();
            Stm.write o 0 (vi 2))
    | Txn_younger ->
        ignore (Sched.spawn owner : int);
        Sched.yield ();
        Stm.atomic (fun () -> Stm.write o 0 (vi 2))
    | Barrier_write ->
        ignore (Sched.spawn owner : int);
        Sched.yield ();
        Stm.write o 0 (vi 2)
    | Barrier_read ->
        ignore (Sched.spawn owner : int);
        Sched.yield ();
        ignore (Stm.read o 0)
  in
  let result, stats =
    Stm.run ~policy:(Sched.Controlled choose) ~max_steps:(spin_from + spins + 1) ~cfg main
  in
  check_bool "the spin ran out the fuel" true (result.Sched.status = Sched.Fuel_exhausted);
  (* an eager barrier read's iteration takes three decisions, the
     others one *)
  check_bool "the window is the spin" true (stats.Stats.conflicts * 3 >= spins);
  Float.Array.get words 1 -. Float.Array.get words 0

let conflict_spin_words () =
  List.iter
    (fun (backend, cfg) ->
      List.iter
        (fun (path, spinner) ->
          List.iter
            (fun policy ->
              let cfg = { cfg with Config.cm = policy } in
              Alcotest.(check (float 0.))
                (Printf.sprintf "%s %s %s: words over %d spins" backend path
                   (Stm_cm.Policy.to_string policy) spins)
                0. (spin_words cfg spinner))
            Stm_cm.Policy.all)
        [
          ("txn, older", Txn_older);
          ("txn, younger", Txn_younger);
          ("barrier write", Barrier_write);
          ("barrier read", Barrier_read);
        ])
    [ ("eager", Config.eager_strong); ("lazy", Config.lazy_strong) ]

(* A deterministic two-thread run that emits both Info events (begin,
   commit, conflict) and Debug events (barriers, accesses, validations). *)
let contended_run () =
  with_stm ~cfg:Config.eager_strong (fun () ->
      let o = Stm.alloc_public ~cls:"C" 1 in
      Stm.write o 0 (vi 0);
      let worker () =
        for _ = 1 to 10 do
          Stm.atomic (fun () -> Stm.write o 0 (vi (geti o 0 + 1)));
          ignore (Stm.read o 0)
        done
      in
      let t1 = Sched.spawn worker and t2 = Sched.spawn worker in
      Sched.join t1;
      Sched.join t2)

let collect level =
  let seen = ref [] in
  ((level, fun ev -> seen := Fmt.str "%a" Trace.pp_event ev :: !seen), seen)

(* Each subscriber receives exactly the events it receives alone, in the
   same order, whatever else is subscribed beside it. *)
let subscribers_compose () =
  let alone level =
    let sub, seen = collect level in
    Trace.with_sinks [ sub ] contended_run;
    List.rev !seen
  in
  let info = alone Trace.Info and debug = alone Trace.Debug in
  let info_sub, info_seen = collect Trace.Info in
  let debug_sub, debug_seen = collect Trace.Debug in
  Trace.with_sinks [ info_sub; debug_sub ] contended_run;
  check_bool "Debug stream is the larger" true
    (List.length debug > List.length info && info <> []);
  Alcotest.(check (list string)) "Info subscriber" info (List.rev !info_seen);
  Alcotest.(check (list string)) "Debug subscriber" debug (List.rev !debug_seen)

(* A nested [with_sinks] gives the outer set back however its body ends:
   normally, by an exception out of [Stm.atomic] or out of [Stm.run], or
   by a run that exhausts its fuel. *)
let with_sinks_restores () =
  let outer, outer_seen = collect Trace.Info in
  let inner_hits = ref 0 in
  let inner = [ (Trace.Debug, fun _ -> incr inner_hits) ] in
  let probe () =
    Trace.emit (Trace.Txn_begin { txid = 0; tid = 0 });
    Trace.emit (Trace.Backoff { tid = 0; attempt = 0; delay = 0 })
  in
  let outer_only what =
    let before = List.length !outer_seen and inner_before = !inner_hits in
    probe ();
    check_int (what ^ ": outer takes the Info event") (before + 1)
      (List.length !outer_seen);
    check_int (what ^ ": inner gone") inner_before !inner_hits;
    check_bool (what ^ ": Debug off") false (Trace.enabled_at Trace.Debug)
  in
  Trace.with_sinks [ outer ] (fun () ->
      Trace.with_sinks inner probe;
      check_int "inner took both" 2 !inner_hits;
      outer_only "normal exit";
      with_stm (fun () ->
          let o = Stm.alloc_public ~cls:"C" 1 in
          (try
             Trace.with_sinks inner (fun () ->
                 Stm.atomic (fun () ->
                     Stm.write o 0 (vi 1);
                     failwith "bail"))
           with Failure _ -> ());
          outer_only "exception out of Stm.atomic");
      (match
         Trace.with_sinks inner (fun () ->
             Stm.run
               ~policy:(Sched.Controlled (fun _ _ -> raise Exit))
               ~cfg:Config.eager_weak
               (fun () -> Sched.join (Sched.spawn ignore)))
       with
      | _ -> Alcotest.fail "expected the policy's exception"
      | exception Exit -> ());
      outer_only "exception out of Stm.run";
      let r, _ =
        Trace.with_sinks inner (fun () ->
            Stm.run ~max_steps:50 ~cfg:Config.eager_weak (fun () ->
                while true do
                  Sched.yield ()
                done))
      in
      check_bool "fuel exhausted" true (r.Sched.status = Sched.Fuel_exhausted);
      outer_only "fuel-exhausted run");
  check_bool "no subscriber left" false (Trace.enabled ())

let suite =
  suite
  @ [
      ( "core:trace",
        [
          case "events emitted" trace_events_emitted;
          case "off is silent and free" trace_off_is_silent;
          case "off allocates nothing per access" trace_off_allocation_free;
          case "recycled descriptor's sets allocate nothing"
            descriptor_sets_reuse;
          case "fresh descriptor words" fresh_descriptor_words;
          case "warm atomic block words" warm_block_words;
          case "conflict spin words" conflict_spin_words;
          case "subscribers compose" subscribers_compose;
          case "with_sinks restores the outer set" with_sinks_restores;
        ] );
    ]

(* ------------------------------------------------------------------ *)
(* Failure paths out of the STM                                        *)
(* ------------------------------------------------------------------ *)

(* An exception out of [Stm.atomic], or [Starved] once its restart
   budget is spent, ends the transaction - caught in the thread or
   escaping it. Either way the run installs nothing that outlives it,
   and the same run again repeats it exactly. *)

let nothing_left what =
  check_bool (what ^ ": no trace subscriber") false (Trace.enabled ());
  check_bool (what ^ ": no Stm system") false (Stm.installed ());
  check_bool (what ^ ": no scheduler engine") false (Sched.running ());
  check_bool (what ^ ": no footprint sink") false (Footprint.active ())

(* A configuration where an anonymous owner makes every attempt lose:
   two attempts, then [Starved]. *)
let starving_cfg = { Config.eager_weak with Config.max_txn_retries = 3; max_txn_restarts = 2 }

let boom () =
  let o = Stm.alloc_public ~cls:"C" 1 in
  Stm.write o 0 (vi 0);
  Stm.atomic (fun () ->
      Stm.write o 0 (vi 1);
      failwith "boom")

let starve () =
  let o = Stm.alloc_public ~cls:"C" 1 in
  Stm.write o 0 (vi 0);
  ignore (Barriers.acquire_anon (Stm.config ()) (Stm.stats ()) o : int);
  Stm.atomic (fun () -> Stm.write o 0 (vi 1))

(* Each case runs [body] in a spawned thread and reports what the thread
   saw. A thread that catches the failure is outside any transaction
   again, and its next block commits. *)
let failure_cases =
  let caught body () =
    let first =
      match body () with
      | () -> "returned"
      | exception Failure m -> "failure " ^ m
      | exception Stm.Starved { attempts } -> Printf.sprintf "starved after %d" attempts
    in
    let in_txn = Stm.in_txn () in
    let o = Stm.alloc_public ~cls:"C" 1 in
    Stm.atomic (fun () -> Stm.write o 0 (vi 5));
    Printf.sprintf "%s; in txn %b; then %d" first in_txn (geti o 0)
  in
  let escaping body () =
    body ();
    "returned"
  in
  [
    ("exception caught", Config.eager_strong, caught boom, "failure boom; in txn false; then 5");
    ("exception escaping", Config.eager_strong, escaping boom, "");
    ( "exception caught (lazy)",
      Config.lazy_strong,
      caught boom,
      "failure boom; in txn false; then 5" );
    ("Starved caught", starving_cfg, caught starve, "starved after 2; in txn false; then 5");
    ("Starved escaping", starving_cfg, escaping starve, "");
  ]

let mentions sub l =
  let n = String.length sub in
  let rec go i = i + n <= String.length l && (String.sub l i n = sub || go (i + 1)) in
  go 0

let failing_run ~cfg body =
  let log = ref [] and seen = ref "" in
  let result, stats =
    Trace.with_sinks
      [ (Trace.Debug, fun ev -> log := Fmt.str "%a" Trace.pp_event ev :: !log) ]
      (fun () ->
        Stm.run ~cfg (fun () ->
            let t = Sched.spawn (fun () -> seen := body ()) in
            Sched.join t))
  in
  ( result.Sched.status = Sched.Completed,
    List.map (fun (t, e) -> (t, Printexc.to_string e)) result.Sched.exns,
    Stats.to_assoc stats,
    List.rev !log,
    !seen )

let stm_failure_paths () =
  List.iter
    (fun (what, cfg, body, expect) ->
      let ((completed, exns, stats, log, seen) as first) = failing_run ~cfg body in
      nothing_left what;
      check_bool (what ^ ": completed") true completed;
      Alcotest.(check string) (what ^ ": thread saw") expect seen;
      let escaped = expect = "" in
      check_int (what ^ ": escaped exceptions") (if escaped then 1 else 0) (List.length exns);
      check_int (what ^ ": commits") (if escaped then 0 else 1) (List.assoc "commits" stats);
      check_bool (what ^ ": aborts traced") true (List.exists (mentions " abort (") log);
      check_bool (what ^ ": rerun identical") true (failing_run ~cfg body = first);
      nothing_left (what ^ " rerun"))
    failure_cases

(* The same bodies as explored programs: the DPOR walk installs a
   footprint sink per run, and a run whose thread fails must still hand
   it back. *)
let stm_failure_paths_explored () =
  List.iter
    (fun (what, cfg, body, _) ->
      let explore () =
        let e =
          Stm_litmus.Explorer.explore_dpor ~max_runs:50 ~cfg
            ~make:(fun () ->
              let seen = ref "" in
              { Stm_litmus.Explorer.main = (fun () -> seen := body ()); observe = (fun () -> !seen) })
            ()
        in
        (e.Stm_litmus.Explorer.exploration, e.Stm_litmus.Explorer.complete)
      in
      let first = explore () in
      nothing_left (what ^ " explored");
      check_bool (what ^ ": explored rerun identical") true (explore () = first);
      nothing_left (what ^ " explored rerun"))
    failure_cases

(* An exploration that its run budget stops: the walk ends with
   schedules left, between runs rather than inside one. It leaves
   nothing behind either, and a rerun stops at the same run with the
   same outcome table. *)
let explorer_budget_stop () =
  let module E = Stm_litmus.Explorer in
  let module P = Stm_litmus.Programs in
  let module M = Stm_litmus.Modes in
  let program = P.speculative_lost_update and mode = M.Stm (Point.v (Point.Eager Config.Incremental) Point.Strong) in
  let cfg = M.config ~granule:program.P.needs_granule mode in
  let make () = program.P.build (M.harness mode cfg) in
  let budget = 6 in
  let books (e : E.exploration) = (e.E.runs, e.E.truncated, e.E.outcomes) in
  List.iter
    (fun (what, explore) ->
      let ((runs, truncated, outcomes) as first) = explore () in
      nothing_left what;
      check_int (what ^ ": runs") budget runs;
      check_bool (what ^ ": truncated") true truncated;
      check_bool (what ^ ": outcomes booked") true (outcomes <> []);
      check_bool (what ^ ": rerun repeats runs, truncation and outcomes") true
        (explore () = first);
      nothing_left (what ^ " rerun"))
    [
      ("explore", fun () -> books (E.explore ~max_runs:budget ~cfg ~make ()));
      ( "explore_dpor",
        fun () ->
          let d = E.explore_dpor ~max_runs:budget ~cfg ~make () in
          check_bool "explore_dpor: incomplete" false d.E.complete;
          books d.E.exploration );
    ]

let suite =
  suite
  @ [
      ( "core:failure-paths",
        [
          case "exception and Starved leave nothing" stm_failure_paths;
          case "explored, they leave nothing" stm_failure_paths_explored;
          case "an explorer budget stop leaves nothing" explorer_budget_stop;
        ] );
    ]

(* ------------------------------------------------------------------ *)
(* Figure 8: the full transaction-record transition cycle              *)
(* ------------------------------------------------------------------ *)

let figure8_transitions () =
  let cfg = Config.(with_dea eager_strong) in
  with_stm ~cfg (fun () ->
      (* Private at birth *)
      let o = Stm.alloc ~cls:"C" 1 in
      check_bool "born private" true
        (Txrec.decode (Atomic.get o.Heap.txrec) = Txrec.Private);
      (* publishObject: Private -> Shared *)
      Stm.publish o;
      (match Txrec.decode (Atomic.get o.Heap.txrec) with
      | Txrec.Shared v0 -> (
          (* non-txn write barrier: Shared -BTR-> ExclAnon -add9-> Shared(v+1) *)
          Stm.write o 0 (vi 1);
          match Txrec.decode (Atomic.get o.Heap.txrec) with
          | Txrec.Shared v1 ->
              check_int "barrier bumped version once" (v0 + 1) v1;
              (* transactional open-for-write: Shared -CAS-> Exclusive;
                 observe the owner id from inside the transaction *)
              let seen_exclusive = ref false in
              Stm.atomic (fun () ->
                  Stm.write o 0 (vi 2);
                  seen_exclusive :=
                    Txrec.is_exclusive (Atomic.get o.Heap.txrec));
              check_bool "exclusive while txn held it" true !seen_exclusive;
              (* Txn end: Exclusive -> Shared(v+1) *)
              (match Txrec.decode (Atomic.get o.Heap.txrec) with
              | Txrec.Shared v2 -> check_int "commit bumped version" (v1 + 1) v2
              | _ -> Alcotest.fail "expected shared after commit")
          | _ -> Alcotest.fail "expected shared after barrier release")
      | _ -> Alcotest.fail "expected shared after publish"))

let nontxn_race_detection () =
  (* footnote 2: with the extra lowest-bit check and the raise policy,
     a plain read can detect a concurrent non-transactional writer *)
  let cfg =
    {
      Config.eager_strong with
      detect_nontxn_races = true;
      conflict = Config.Raise_error;
    }
  in
  with_stm ~cfg (fun () ->
      let o = Stm.alloc_public ~cls:"C" 1 in
      Stm.write o 0 (vi 0);
      let detected = ref false in
      let writer =
        Sched.spawn (fun () ->
            (* acquire exclusive-anonymous and hold it over a window *)
            let cfg = Stm.config () in
            let w = Barriers.acquire_anon cfg (Stm.stats ()) o in
            Sched.tick 1000;
            Sched.yield ();
            Heap.set o 0 (vi 1);
            Barriers.release_anon cfg o w)
      in
      let reader =
        Sched.spawn (fun () ->
            Sched.tick 300;
            Sched.yield ();
            match Stm.read o 0 with
            | exception Conflict.Isolation_violation _ -> detected := true
            | _ -> ())
      in
      Sched.join writer;
      Sched.join reader;
      check_bool "race between two non-txn threads detected" true !detected)

let nontxn_race_detection_off_by_default () =
  (* without the flag, the same schedule completes without raising *)
  let cfg = { Config.eager_strong with conflict = Config.Raise_error } in
  with_stm ~cfg (fun () ->
      let o = Stm.alloc_public ~cls:"C" 1 in
      Stm.write o 0 (vi 0);
      let writer =
        Sched.spawn (fun () ->
            let cfg = Stm.config () in
            let w = Barriers.acquire_anon cfg (Stm.stats ()) o in
            Sched.tick 1000;
            Sched.yield ();
            Heap.set o 0 (vi 1);
            Barriers.release_anon cfg o w)
      in
      let reader =
        Sched.spawn (fun () ->
            Sched.tick 300;
            Sched.yield ();
            ignore (Stm.read o 0))
      in
      Sched.join writer;
      Sched.join reader)

let suite =
  suite
  @ [
      ( "core:figure8",
        [
          case "record transition cycle" figure8_transitions;
          case "footnote-2 race detection" nontxn_race_detection;
          case "footnote-2 off by default" nontxn_race_detection_off_by_default;
        ] );
    ]

(* ------------------------------------------------------------------ *)
(* Read-set dedup (PR 4): re-reads must not grow the validated set,    *)
(* must not change virtual time, and must keep first-observed versions *)
(* ------------------------------------------------------------------ *)

(* Re-reading the same granule many times: the commit event must report
   the number of distinct granules read, not the number of read
   observations (the old cons-list appended one entry per observation). *)
let reread_commit_reads_distinct () =
  let commits = ref [] in
  let on_commit = function
    | Trace.Txn_commit { reads; _ } -> commits := reads :: !commits
    | _ -> ()
  in
  Trace.with_sinks [ (Trace.Debug, on_commit) ] (fun () ->
      with_stm ~cfg:Config.eager_weak (fun () ->
          let o = Stm.alloc_public ~cls:"C" 1 in
          let others = List.init 3 (fun _ -> Stm.alloc_public ~cls:"C" 1) in
          Stm.atomic (fun () ->
              for _ = 1 to 50 do
                ignore (Stm.read o 0)
              done;
              List.iter (fun p -> ignore (Stm.read p 0)) others)));
  match !commits with
  | [ reads ] -> check_int "commit reads = distinct granules" 4 reads
  | l -> Alcotest.failf "expected one commit event, got %d" (List.length l)

(* The validation cost charge counts read observations (including
   re-reads), exactly as when the read set kept duplicates: the makespan
   of a re-read-heavy program is pinned so that any change to the charge
   - e.g. "optimizing" it to count distinct entries - is caught. *)
let reread_makespan_golden () =
  Heap.reset ();
  Stm.install Config.eager_weak;
  let r =
    Fun.protect ~finally:Stm.uninstall (fun () ->
        Sched.run (fun () ->
            let o = Stm.alloc_public ~cls:"C" 1 in
            Stm.atomic (fun () ->
                for _ = 1 to 200 do
                  ignore (Stm.read o 0)
                done)))
  in
  check_bool "completed" true (r.Sched.status = Sched.Completed);
  check_int "virtual time unchanged by dedup" 1119 r.Sched.makespan

(* Dedup keeps the FIRST observed version: if the object changes between
   two reads of the same transaction, validation must fail (the retained
   stale entry catches it) and the transaction must retry - last-wins
   would let an inconsistent first read slip through. *)
let reread_keeps_first_version () =
  let causes = ref [] in
  let on_abort = function
    | Trace.Txn_abort { cause; _ } -> causes := cause :: !causes
    | _ -> ()
  in
  let attempts = ref 0 in
  Trace.with_sinks [ (Trace.Debug, on_abort) ] (fun () ->
      (* strong atomicity so the non-transactional write fires the
         isolation barrier and bumps the record version *)
      with_stm ~cfg:Config.eager_strong (fun () ->
          let o = Stm.alloc_public ~cls:"C" 1 in
          Stm.write o 0 (vi 1);
          let reader =
            Sched.spawn (fun () ->
                Stm.atomic (fun () ->
                    incr attempts;
                    ignore (Stm.read o 0);
                    (* park past the writer's instant; the re-read then
                       observes the bumped version *)
                    Sched.pause 500;
                    ignore (Stm.read o 0)))
          in
          let writer =
            Sched.spawn (fun () ->
                (* after the reader's first read, before its re-read *)
                Sched.pause 100;
                Stm.write o 0 (vi 2))
          in
          Sched.join reader;
          Sched.join writer;
          check_int "writer value survived" 2 (geti o 0)));
  check_int "first attempt failed validation, second committed" 2 !attempts;
  check_bool "abort cause was validation" true
    (List.mem Trace.Cause_validation !causes)

let suite =
  suite
  @ [
      ( "core:read-set",
        [
          case "commit reads = distinct granules" reread_commit_reads_distinct;
          case "re-read charge pins makespan" reread_makespan_golden;
          case "dedup keeps first version" reread_keeps_first_version;
        ] );
    ]

(* ------------------------------------------------------------------ *)
(* Global-commit-clock (timestamp) validation                          *)
(* ------------------------------------------------------------------ *)

let ts_cfg v =
  { Config.base with Config.versioning = v; validation = Config.Timestamp }

(* An uncontended transaction never walks its read set: every explicit
   validation hits the O(1) clock-unchanged fast path, and a read-only
   body commits without the commit-time walk. *)
let ts_fast_path_and_ro_commit versioning () =
  with_stm ~cfg:(ts_cfg versioning) (fun () ->
      let o = Stm.alloc_public ~cls:"C" 1 in
      Stm.write o 0 (vi 7);
      let v =
        Stm.atomic (fun () ->
            check_bool "valid (fast)" true (Stm.valid ());
            check_bool "valid again (fast)" true (Stm.valid ());
            geti o 0)
      in
      check_int "read committed value" 7 v;
      let s = Stm.stats () in
      check_bool "fast validations" true (s.Stats.fast_validations >= 2);
      check_int "read-only fast commit" 1 s.Stats.ro_fast_commits;
      (* a writing transaction must not take the read-only fast path *)
      Stm.atomic (fun () -> Stm.write o 0 (vi 8));
      let s = Stm.stats () in
      check_int "writer not counted read-only" 1 s.Stats.ro_fast_commits)

(* The timestamp counters stay silent under the default incremental
   scheme — the opt-in gate for byte-identical seed behavior. *)
let ts_counters_silent_under_incremental () =
  with_stm ~cfg:Config.eager_weak (fun () ->
      let o = Stm.alloc_public ~cls:"C" 1 in
      Stm.atomic (fun () ->
          ignore (Stm.read o 0);
          check_bool "valid" true (Stm.valid ()));
      let s = Stm.stats () in
      check_int "no fast validations" 0 s.Stats.fast_validations;
      check_int "no extensions" 0 s.Stats.ts_extensions;
      check_int "no ro fast commits" 0 s.Stats.ro_fast_commits)

(* Reading a version stamped after the transaction began triggers a
   timestamp extension; when only disjoint granules committed in between
   the extension succeeds and the read proceeds at the new snapshot. *)
let ts_extension_succeeds versioning () =
  with_stm ~cfg:(ts_cfg versioning) (fun () ->
      let a = Stm.alloc_public ~cls:"C" 1 in
      let b = Stm.alloc_public ~cls:"C" 1 in
      Stm.write b 0 (vi 1);
      let reader =
        Sched.spawn (fun () ->
            Stm.atomic (fun () ->
                ignore (Stm.read a 0);
                (* park past the writer's commit *)
                Sched.pause 2000;
                check_int "extended read sees committed value" 2 (geti b 0)))
      in
      let writer =
        Sched.spawn (fun () ->
            Sched.pause 100;
            Stm.atomic (fun () -> Stm.write b 0 (vi 2)))
      in
      Sched.join reader;
      Sched.join writer;
      let s = Stm.stats () in
      check_bool "extension fired" true (s.Stats.ts_extensions >= 1))

(* When a granule already read HAS changed, the extension walk fails and
   the transaction aborts and retries rather than read an inconsistent
   snapshot. *)
let ts_extension_failure_retries versioning () =
  with_stm ~cfg:(ts_cfg versioning) (fun () ->
      let a = Stm.alloc_public ~cls:"C" 1 in
      let b = Stm.alloc_public ~cls:"C" 1 in
      Stm.write a 0 (vi 0);
      Stm.write b 0 (vi 0);
      let attempts = ref 0 in
      let reads = ref (0, 0) in
      let reader =
        Sched.spawn (fun () ->
            Stm.atomic (fun () ->
                incr attempts;
                let va = geti a 0 in
                Sched.pause 2000;
                let vb = geti b 0 in
                reads := (va, vb)))
      in
      let writer =
        Sched.spawn (fun () ->
            Sched.pause 100;
            Stm.atomic (fun () ->
                Stm.write a 0 (vi 9);
                Stm.write b 0 (vi 9)))
      in
      Sched.join reader;
      Sched.join writer;
      check_bool "reader retried" true (!attempts >= 2);
      check_bool "final snapshot consistent" true (!reads = (9, 9)))

(* Strong non-transactional stores advance the commit clock at release:
   a transaction that read the granule beforehand cannot fast-pass
   validation over the store. The stale read-only transaction still
   commits — it serializes at its begin snapshot, which the store
   post-dates. *)
let ts_strong_barrier_bumps_clock () =
  with_stm
    ~cfg:{ (ts_cfg Config.Eager) with Config.strong = true }
    (fun () ->
      let o = Stm.alloc_public ~cls:"C" 1 in
      Stm.write o 0 (vi 1);
      let attempts = ref 0 in
      let first_valid = ref true in
      let reader =
        Sched.spawn (fun () ->
            Stm.atomic (fun () ->
                incr attempts;
                ignore (Stm.read o 0);
                Sched.pause 2000;
                if !attempts = 1 then first_valid := Stm.valid ()))
      in
      let writer =
        Sched.spawn (fun () ->
            Sched.pause 100;
            (* non-transactional store through the strong barrier *)
            Stm.write o 0 (vi 2))
      in
      Sched.join reader;
      Sched.join writer;
      check_bool "validation saw the non-txn store" false !first_valid;
      check_int "read-only txn still commits at its snapshot" 1 !attempts)

(* Differential harness for the equivalence property: one reader running
   a generated sequence of (granule, pause) reads against a set of
   committed writer transactions at generated offsets. Records the
   reader's first attempt — did it reach the end, and what did [valid]
   say there — plus the final heap. *)
let ts_run_interleaving ~validation ~versioning ops writers =
  let cfg =
    {
      Config.base with
      Config.versioning;
      validation;
      cost = Cost.free;
      (* no periodic validation: the property observes [valid] at the
         end of the first attempt, not mid-body aborts *)
      validate_every = 1_000_000;
    }
  in
  Heap.reset ();
  Stm.install cfg;
  Fun.protect ~finally:Stm.uninstall (fun () ->
      let attempts = ref 0 in
      let end_valid = ref None in
      let finals = ref [] in
      let r =
        Sched.run (fun () ->
            let objs = Array.init 3 (fun _ -> Stm.alloc_public ~cls:"Q" 1) in
            Array.iter (fun o -> Stm.write o 0 (vi 0)) objs;
            let reader =
              Sched.spawn (fun () ->
                  Stm.atomic (fun () ->
                      incr attempts;
                      List.iter
                        (fun (i, d) ->
                          ignore (Stm.read objs.(i) 0);
                          if d > 0 then Sched.pause d)
                        ops;
                      if !attempts = 1 then end_valid := Some (Stm.valid ())))
            in
            let ws =
              List.mapi
                (fun j (i, off) ->
                  Sched.spawn (fun () ->
                      Sched.pause off;
                      Stm.atomic (fun () -> Stm.write objs.(i) 0 (vi (100 + j)))))
                writers
            in
            Sched.join reader;
            List.iter Sched.join ws;
            finals := Array.to_list (Array.map (fun o -> geti o 0) objs))
      in
      (match r.Sched.exns with
      | [] -> ()
      | (tid, e) :: _ ->
          Alcotest.failf "thread %d raised %s" tid (Printexc.to_string e));
      (!end_valid, !finals))

(* Timestamp validation must agree with incremental validation on every
   committed-write interleaving:
   - identical final heaps (both schemes converge to the same commits);
   - when the timestamp reader's first attempt reaches the end, [valid]
     answers exactly as incremental's;
   - when it aborts early (a failed extension — the one conservative
     behavior incremental lacks), incremental must be invalid at the end
     (or have aborted at the same contention point). *)
let ts_equivalence_qcheck =
  let open QCheck in
  let op = pair (int_bound 2) (int_bound 300) in
  let writer = pair (int_bound 2) (int_bound 400) in
  let gen =
    triple bool (list_of_size Gen.(1 -- 6) op) (list_of_size Gen.(0 -- 4) writer)
  in
  Test.make ~name:"timestamp == incremental on committed interleavings"
    ~count:60 gen (fun (eager, ops, writers) ->
      let versioning = if eager then Config.Eager else Config.Lazy in
      let v_inc, f_inc =
        ts_run_interleaving ~validation:Config.Incremental ~versioning ops
          writers
      in
      let v_ts, f_ts =
        ts_run_interleaving ~validation:Config.Timestamp ~versioning ops
          writers
      in
      f_inc = f_ts
      &&
      match v_ts with
      | Some b -> v_inc = Some b
      | None -> v_inc = None || v_inc = Some false)

let suite =
  suite
  @ [
      ( "core:timestamp",
        [
          case "eager: fast path + ro commit"
            (ts_fast_path_and_ro_commit Config.Eager);
          case "lazy: fast path + ro commit"
            (ts_fast_path_and_ro_commit Config.Lazy);
          case "incremental keeps counters silent"
            ts_counters_silent_under_incremental;
          case "eager: extension succeeds"
            (ts_extension_succeeds Config.Eager);
          case "lazy: extension succeeds" (ts_extension_succeeds Config.Lazy);
          case "eager: failed extension retries"
            (ts_extension_failure_retries Config.Eager);
          case "lazy: failed extension retries"
            (ts_extension_failure_retries Config.Lazy);
          case "strong barrier bumps the clock" ts_strong_barrier_bumps_clock;
        ]
        @ QCheck_alcotest.(List.map to_alcotest [ ts_equivalence_qcheck ]) );
    ]

(* ------------------------------------------------------------------ *)
(* One STM state from run to run                                       *)
(* ------------------------------------------------------------------ *)

(* The process keeps one STM state and resets it at every install. A
   reset must give a run exactly what a freshly built state would, and
   leave nothing of the finished run reachable. *)

(* Three threads add to two shared counters in atomic blocks and read one
   outside them, on a seeded random schedule with a tight retry budget:
   transactions begin, conflict, back off, wound, abort and are
   attributed, and under mvcc install and attribute versions. The
   commit-clock stamp the counter ends at goes to [reuse_stamp]. *)
let reuse_stamp = ref 0

let reuse_program () =
  let a = Stm.alloc_public ~cls:"C" 1 and b = Stm.alloc_public ~cls:"C" 1 in
  Stm.write a 0 (vi 0);
  Stm.write b 0 (vi 0);
  let worker k () =
    for i = 1 to 4 do
      Stm.atomic (fun () ->
          Stm.write a 0 (vi (geti a 0 + k));
          Stm.write b 0 (vi (geti b 0 + i)));
      ignore (Stm.read b 0)
    done
  in
  List.iter Sched.join (List.init 3 (fun k -> Sched.spawn (worker (k + 1))));
  reuse_stamp := Heap.version_ts_peek a

let reuse_cfg point cm =
  { (Config.with_cm cm (Point.config point)) with Config.max_txn_retries = 2 }

(* One configuration per piece of state a run reads: the contention
   manager's generator (exponential backoff), the commit clock (timestamp
   validation), the snapshot tables and installer ring (mvcc), the
   quiescence registry and the txid registry (the wounding policies). *)
let reuse_probe_cfgs =
  Point.
    [
      reuse_cfg (v (Eager Config.Incremental) Strong) Stm_cm.Policy.Exp_backoff;
      reuse_cfg (v (Lazy Config.Timestamp) Weak) Stm_cm.Policy.Karma;
      reuse_cfg (v (Mvcc Config.Serializable) Strong) Stm_cm.Policy.Wound_wait;
      reuse_cfg (v (Mvcc Config.Snapshot) Weak) Stm_cm.Policy.Exp_backoff;
      reuse_cfg (v (Eager Config.Incremental) Quiesce) Stm_cm.Policy.Timestamp;
      reuse_cfg (v (Lazy Config.Incremental) Dea) Stm_cm.Policy.Suicide;
    ]

let reuse_probe () =
  List.map
    (fun cfg ->
      let seen = ref [] in
      let result, stats =
        Trace.with_sinks
          [ (Trace.History, fun ev -> seen := Fmt.str "%a" Trace.pp_event ev :: !seen) ]
          (fun () -> Stm.run ~policy:(Sched.Random 5) ~cfg reuse_program)
      in
      ( Config.describe cfg,
        ( result.Sched.status = Sched.Completed && result.Sched.exns = [],
          result.Sched.makespan,
          result.Sched.switches,
          !reuse_stamp,
          Stats.to_assoc stats ),
        List.rev !seen ))
    reuse_probe_cfgs

(* Module initialisation runs before any test, so these are the first
   runs of the process: the STM state is the one built at start-up. *)
let first_probe = reuse_probe ()

(* Runs that leave the state in every condition a run can end in: every
   point under every policy, a run out of fuel and a deadlocked one with
   transactions still open, an exception out of a thread body, and a
   block given up as [Starved]. *)
let reuse_churn () =
  List.iter
    (fun point ->
      List.iter
        (fun cm ->
          ignore (Stm.run ~policy:(Sched.Random 3) ~cfg:(reuse_cfg point cm) reuse_program))
        Stm_cm.Policy.all)
    Point.all;
  let stuck ~cfg stop =
    Stm.run ~max_steps:500 ~cfg (fun () ->
        let o = Stm.alloc_public ~cls:"C" 2 in
        let t =
          Sched.spawn (fun () ->
              Stm.atomic (fun () ->
                  ignore (Stm.read o 1);
                  Stm.write o 0 (vi 1);
                  stop ()))
        in
        Sched.join t)
  in
  let forever () =
    while true do
      Sched.yield ()
    done
  in
  List.iter
    (fun cfg ->
      let fuel, _ = stuck ~cfg forever in
      check_bool "out of fuel" true (fuel.Sched.status = Sched.Fuel_exhausted);
      let dead, _ = stuck ~cfg Sched.suspend in
      check_bool "deadlocked" true
        (match dead.Sched.status with Sched.Deadlock _ -> true | _ -> false))
    [
      Config.eager_strong;
      Config.lazy_weak;
      Config.mvcc_strong;
      Point.(config (v (Eager Config.Incremental) Quiesce));
      Point.(config (v (Lazy Config.Incremental) Quiesce));
    ];
  let escaped ~cfg body =
    let r, _ = Stm.run ~cfg (fun () -> Sched.join (Sched.spawn body)) in
    List.map (fun (_, e) -> Printexc.to_string e) r.Sched.exns
  in
  Alcotest.(check (list string)) "exception out of a thread body"
    [ Printexc.to_string (Failure "boom") ]
    (escaped ~cfg:Config.eager_strong boom);
  Alcotest.(check (list string)) "Starved block"
    [ Printexc.to_string (Stm.Starved { attempts = 2 }) ]
    (escaped ~cfg:starving_cfg starve)

let reuse_is_invisible () =
  reuse_churn ();
  nothing_left "after the churn";
  List.iter2
    (fun (what, first, first_events) (_, again, events) ->
      let status, makespan, switches, stamp, stats = first in
      let status', makespan', switches', stamp', stats' = again in
      check_bool (what ^ ": first run completed") true status;
      check_bool (what ^ ": status") status status';
      Alcotest.(check (list int))
        (what ^ ": makespan, switches, final commit stamp")
        [ makespan; switches; stamp ] [ makespan'; switches'; stamp' ];
      Alcotest.(check (list (pair string int))) (what ^ ": stats") stats stats';
      check_bool (what ^ ": the run aborted something") true
        (List.assoc "aborts" stats > 0);
      Alcotest.(check (list string)) (what ^ ": History events") first_events events)
    first_probe (reuse_probe ())

(* Weak references to every heap object a run allocates are empty after
   the run and a full collection: neither the descriptors' logs and
   buffers, nor the pool, nor the current-transaction table keep any.
   Each object's field holds a reference to the next one, and every
   transaction overwrites such references, so undo logs, write buffers
   and mvcc versions all hold objects. *)
let run_leaves_nothing_reachable () =
  let writes ~retries objs () =
    let n = Array.length objs in
    let tries = ref 0 in
    Stm.atomic (fun () ->
        for i = 0 to n - 1 do
          ignore (Stm.read objs.(i) 1);
          Stm.write objs.(i) 0 (Stm.vref objs.((i + 1) mod n))
        done;
        incr tries;
        if !tries <= retries then Stm.abort_and_retry ())
  in
  let cases =
    [
      ("eager, undo log", Config.eager_strong, 0, false);
      ("lazy, write buffer", Config.lazy_weak, 0, false);
      ("mvcc, versions", Config.mvcc_strong, 0, false);
      ("eager, aborted attempts", Config.eager_weak, 3, false);
      ("lazy, aborted attempts", Config.lazy_strong, 3, false);
      ("mvcc, aborted attempts", Config.mvcc_weak, 3, false);
      ("eager, stopped inside a transaction", Config.eager_strong, 0, true);
      ("lazy, stopped inside a transaction", Config.lazy_weak, 0, true);
    ]
  in
  List.iter
    (fun (what, cfg, retries, stop) ->
      let count = 12 in
      let refs = Weak.create count in
      let result, _ =
        Stm.run ~max_steps:5_000 ~cfg (fun () ->
            let objs =
              Array.init count (fun i ->
                  let o = Stm.alloc_public ~cls:"C" 2 in
                  Weak.set refs i (Some o);
                  o)
            in
            Array.iteri (fun i o -> Stm.write o 0 (Stm.vref objs.(count - 1 - i))) objs;
            let t =
              Sched.spawn (fun () ->
                  writes ~retries objs ();
                  writes ~retries:0 objs ();
                  if stop then
                    Stm.atomic (fun () ->
                        writes ~retries:0 objs ();
                        while true do
                          Sched.yield ()
                        done))
            in
            writes ~retries objs ();
            Sched.join t)
      in
      check_bool (what ^ ": ran to its end") true
        (result.Sched.status = (if stop then Sched.Fuel_exhausted else Sched.Completed));
      Gc.full_major ();
      for i = 0 to count - 1 do
        check_bool (Printf.sprintf "%s: object %d unreachable" what i) false (Weak.check refs i)
      done)
    cases

let suite =
  suite
  @ [
      ( "core:reuse",
        [
          case "reuse is invisible" reuse_is_invisible;
          case "nothing of a run stays reachable" run_leaves_nothing_reachable;
        ] );
    ]
