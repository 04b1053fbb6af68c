open Stm_runtime
module Stm = Stm_core.Stm
module Trace = Stm_core.Trace
module Config = Stm_core.Config
module Mode = Stm_core.Mode
module Point = Stm_core.Point
module History = Stm_check.History
module Collector = Stm_check.Collector

type params = {
  mode : Mode.t;
  shards : int;
  clients : int;
  keys : int;
  buckets : int;
  value_size : int;
  batch : int;
  scan_len : int;
  ops_per_client : int;
  dist : Keydist.dist;
  profile : Profile.t;
  seed : int;
  cm : Stm_cm.Policy.t;
  record : bool;
  fuel : int;
}

let default =
  {
    mode = Mode.Stm (Point.v (Point.Eager Config.Incremental) Point.Strong);
    shards = 4;
    clients = 8;
    keys = 1024;
    buckets = 64;
    value_size = 4;
    batch = 8;
    scan_len = 8;
    ops_per_client = 128;
    dist = Keydist.Zipfian 0.99;
    profile = Profile.read_heavy;
    seed = 0;
    cm = Stm_cm.Policy.Timestamp;
    record = false;
    fuel = 20_000_000;
  }

let config p =
  { (Mode.config p.mode) with Config.cm = p.cm; cm_seed = p.seed }

let validate p =
  if p.shards <= 0 then invalid_arg "store: shards must be positive";
  if p.clients <= 0 then invalid_arg "store: clients must be positive";
  if p.keys < p.clients then invalid_arg "store: need at least one key per client";
  if p.ops_per_client <= 0 then invalid_arg "store: ops_per_client must be positive";
  if p.batch <= 0 || p.scan_len <= 0 then
    invalid_arg "store: batch and scan_len must be positive";
  if p.record && Profile.structural p.profile then
    invalid_arg
      (Printf.sprintf
         "store: profile %s inserts/deletes keys and cannot be oracle-recorded"
         p.profile.Profile.pname)

type class_stat = {
  cs_ops : int;
  cs_misses : int;
  cs_hist : Stm_obs.Hist.t;
}

type report = {
  r_params : params;
  r_status : Sched.status;
  r_completed : bool;
  r_makespan : int;
  r_total_ops : int;
  r_throughput : float;
  r_classes : (Profile.op * class_stat) list;
  r_shard_aborts : int array;
  r_shard_commits : int array;
  r_stats : Stm_core.Stats.t;
  r_metrics : Stm_obs.Metrics.t;
  r_invariants : string list;
  r_increments : int;
  r_deviation : int option;
  r_verdict : History.verdict option;
  r_resolve_oid : int -> (int * int) option;
}

(* Mutable per-class accounting, shared by every client: the simulation
   is cooperative, so there is no host-level data race. *)
type class_acc = {
  mutable a_ops : int;
  mutable a_misses : int;
  a_hist : Stm_obs.Hist.t;
}

type ctx = {
  p : params;
  keyspace : Keydist.space;  (** shared by every client's sampler *)
  mutable store : Kv.t option;
  accs : (Profile.op * class_acc) list;
  shard_commits : int array;
  token_next : int ref;  (** record mode: globally-unique value tokens *)
  mutable increments : int;
  mutable invariants : string list;
  mutable final_sum : int;
  mutable final_kvs : (History.loc * History.value) list;  (** record mode *)
}

let store_of ctx = Option.get ctx.store

let acc_of ctx op = List.assq op ctx.accs

let fresh_token ctx =
  let t = !(ctx.token_next) in
  ctx.token_next := t + 1;
  t

(* ------------------------------------------------------------------ *)
(* Client bodies                                                       *)
(* ------------------------------------------------------------------ *)

(* The [Add] class models non-transactional read-modify-writes issued by
   code that "knows" it is the only writer that changes a key's value —
   each client increments only its own residue class, and the
   transactional [Touch] traffic it races is value-preserving. Any lost
   or phantom update is therefore attributable to transactional /
   non-transactional interplay inside the TM (the paper's subject),
   never to an application-level race: strong atomicity isolates add's
   two accesses individually, and since no concurrent writer changes
   the value, that is enough for the sum to stay exact. *)
let own_slice p c k =
  let k' = k - (k mod p.clients) + c in
  if k' >= p.keys then c else k'

let run_op ctx c ~sampler ~rng ~next_insert ~inserted op =
  let p = ctx.p in
  let store = store_of ctx in
  let miss = ref false in
  (match (op : Profile.op) with
  | Profile.Get ->
      let k = Keydist.next sampler in
      if Kv.get store k = None then miss := true
  | Profile.Put ->
      let k = Keydist.next sampler in
      let v = if p.record then fresh_token ctx else Det_rng.int rng 1_000 in
      ignore (Kv.put store k v)
  | Profile.Add ->
      let k = own_slice p c (Keydist.next sampler) in
      if p.record then begin
        (* record mode wants globally-unique values, and add writes back
           the value it read — a duplicate. Keep the traffic shape
           (non-txn read then non-txn write racing the rmw transactions)
           but make the write blind with a fresh token. *)
        let v = fresh_token ctx in
        (match Kv.get store k with None -> miss := true | Some _ -> ());
        ignore (Kv.put store k v)
      end
      else begin
        match Kv.add store k 1 with
        | Some _ -> ctx.increments <- ctx.increments + 1
        | None -> miss := true
      end
  | Profile.Rmw ->
      let k = Keydist.next sampler in
      let f v = if p.record then fresh_token ctx else v + 1 in
      (match Kv.rmw store k ~f with
      | Some _ ->
          if not p.record then ctx.increments <- ctx.increments + 1;
          ctx.shard_commits.(Kv.shard_of_key store k) <-
            ctx.shard_commits.(Kv.shard_of_key store k) + 1
      | None -> miss := true)
  | Profile.Touch ->
      (* value-preserving transactional re-write on the shared hot keys:
         commits are invisible to the key-sum, so only implementation
         anomalies (weak-mode rollback clobber, dirty reads) move it *)
      let k = Keydist.next sampler in
      let f v = if p.record then fresh_token ctx else v in
      (match Kv.rmw store k ~f with
      | Some _ ->
          ctx.shard_commits.(Kv.shard_of_key store k) <-
            ctx.shard_commits.(Kv.shard_of_key store k) + 1
      | None -> miss := true)
  | Profile.Multi_get ->
      let ks = Array.init p.batch (fun _ -> Keydist.next sampler) in
      let vs = Kv.multi_get store ks in
      if Array.exists (fun v -> v = None) vs then miss := true
  | Profile.Scan ->
      let k0 = Keydist.next sampler in
      let k0 = if k0 + p.scan_len > p.keys then Int.max 0 (p.keys - p.scan_len) else k0 in
      if Kv.scan store k0 ~len:p.scan_len = 0 then miss := true
  | Profile.Insert ->
      let k = !next_insert in
      next_insert := k + 1;
      let v = if p.record then fresh_token ctx else Det_rng.int rng 1_000 in
      if Kv.insert store k v then begin
        inserted := k :: !inserted;
        ctx.shard_commits.(Kv.shard_of_key store k) <-
          ctx.shard_commits.(Kv.shard_of_key store k) + 1
      end
  | Profile.Delete ->
      let k =
        match !inserted with
        | k :: rest ->
            inserted := rest;
            k
        | [] -> Keydist.next sampler
      in
      if Kv.delete store k then
        ctx.shard_commits.(Kv.shard_of_key store k) <-
          ctx.shard_commits.(Kv.shard_of_key store k) + 1
      else miss := true);
  !miss

let client_body ctx c ~op_rng ~key_rng () =
  let p = ctx.p in
  let sampler = Keydist.sampler ctx.keyspace key_rng in
  let next_insert = ref (p.keys + (c * p.ops_per_client)) in
  let inserted = ref [] in
  for _ = 1 to p.ops_per_client do
    let op = Det_rng.weighted op_rng p.profile.Profile.mix in
    let acc = acc_of ctx op in
    let t0 = Sched.time () in
    let miss = run_op ctx c ~sampler ~rng:op_rng ~next_insert ~inserted op in
    Stm_obs.Hist.add acc.a_hist (Sched.time () - t0);
    acc.a_ops <- acc.a_ops + 1;
    if miss then acc.a_misses <- acc.a_misses + 1
  done

(* ------------------------------------------------------------------ *)
(* Main body                                                           *)
(* ------------------------------------------------------------------ *)

(* Record mode preloads each key with a token of its own. *)
let preload_value p k = if p.record then k + 1 else 0

let main ctx col () =
  let p = ctx.p in
  let cost = (Stm.config ()).Config.cost in
  let store =
    Kv.create ~buckets:p.buckets ~value_size:p.value_size ~mode:p.mode
      ~shards:p.shards ~keys:p.keys ~value:(preload_value p) ~cost ()
  in
  ctx.store <- Some store;
  Option.iter (fun c -> Collector.set_enabled c true) col;
  let master = Det_rng.create p.seed in
  let clients =
    List.init p.clients (fun c ->
        let op_rng = Det_rng.split master in
        let key_rng = Det_rng.split master in
        (c, op_rng, key_rng))
  in
  let tids =
    List.map
      (fun (c, op_rng, key_rng) ->
        Sched.spawn
          ~name:(Printf.sprintf "client-%d" c)
          (client_body ctx c ~op_rng ~key_rng))
      clients
  in
  List.iter Sched.join tids;
  Option.iter (fun c -> Collector.set_enabled c false) col;
  ctx.invariants <- Kv.check_invariants store;
  ctx.final_sum <- Kv.fold store ~init:0 ~f:(fun acc _ v -> acc + v);
  if Option.is_some col then
    ctx.final_kvs <-
      List.rev
        (Kv.fold store ~init:[] ~f:(fun acc k v -> (History.Cell k, History.Vi v) :: acc))

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let run p =
  validate p;
  let metrics = Stm_obs.Metrics.create () in
  let shard_aborts = Array.make p.shards 0 in
  let ctx =
    {
      p;
      keyspace = Keydist.space ~keys:p.keys ~dist:p.dist;
      store = None;
      accs =
        List.map
          (fun (_, op) ->
            (op, { a_ops = 0; a_misses = 0; a_hist = Stm_obs.Hist.create () }))
          p.profile.Profile.mix;
      shard_commits = Array.make p.shards 0;
      token_next = ref (Int.max 1_000_000 (p.keys + (p.clients * p.ops_per_client) + 1));
      increments = 0;
      invariants = [];
      final_sum = 0;
      final_kvs = [];
    }
  in
  let cfg = config p in
  (* The audit judges the data the store serves: only an entry's first
     value word is recorded, at its key; chain links, shard headers and
     the payload mirror words are structural. *)
  let col =
    if p.record then
      Some
        (Collector.create ~cfg
           ~loc:(fun oid fld ->
             match Option.bind ctx.store (fun s -> Kv.key_of_oid s oid) with
             | Some key when fld = Kv.fld_val -> History.Cell key
             | _ -> Collector.no_loc)
           ~value:(function Heap.Vint n -> History.Vi n | _ -> Collector.no_value))
    else None
  in
  let count_shard_abort = function
    | Trace.Txn_abort { oid; _ } when oid >= 0 -> (
        match Option.bind ctx.store (fun s -> Kv.shard_of_oid s oid) with
        | Some sh -> shard_aborts.(sh) <- shard_aborts.(sh) + 1
        | None -> ())
    | _ -> ()
  in
  Trace.with_sinks
    ((Trace.Info, Stm_obs.Metrics.handle metrics)
    :: (Trace.Info, count_shard_abort)
    :: Option.fold col ~none:[] ~some:(fun c ->
           [ (Trace.History, Collector.on_event c) ]))
    (fun () ->
      let result, stats =
        Stm.run ~policy:Sched.Min_clock ~max_steps:p.fuel ~cfg (main ctx col)
      in
      let completed =
        result.Sched.status = Sched.Completed && result.Sched.exns = []
      in
      let verdict =
        match col with
        | None -> None
        | Some _ when not completed -> Some (History.Inconclusive "run did not complete")
        | Some c -> (
            let init =
              List.init p.keys (fun k -> (History.Cell k, History.Vi (preload_value p k)))
            in
            match History.check_graph (Collector.history c ~init ~final:ctx.final_kvs) with
            | None -> Some History.Serializable
            | Some a -> Some (History.Anomalous a))
      in
      let total_ops =
        List.fold_left (fun n (_, a) -> n + a.a_ops) 0 ctx.accs
      in
      let deviation =
        if
          (not p.record) && completed
          && Profile.counts_increments p.profile
        then Some (ctx.final_sum - ctx.increments)
        else None
      in
      let resolve_oid oid =
        match ctx.store with
        | None -> None
        | Some s -> (
            match (Kv.key_of_oid s oid, Kv.shard_of_oid s oid) with
            | Some k, Some sh -> Some (k, sh)
            | _ -> None)
      in
      {
        r_params = p;
        r_status = result.Sched.status;
        r_completed = completed;
        r_makespan = result.Sched.makespan;
        r_total_ops = total_ops;
        r_throughput =
          (if result.Sched.makespan > 0 then
             float_of_int total_ops /. float_of_int result.Sched.makespan
             *. 1_000_000.
           else 0.);
        r_classes =
          List.map
            (fun (op, a) ->
              ( op,
                { cs_ops = a.a_ops; cs_misses = a.a_misses; cs_hist = a.a_hist }
              ))
            ctx.accs;
        r_shard_aborts = shard_aborts;
        r_shard_commits = ctx.shard_commits;
        r_stats = stats;
        r_metrics = metrics;
        r_invariants = ctx.invariants;
        r_increments = ctx.increments;
        r_deviation = deviation;
        r_verdict = verdict;
        r_resolve_oid = resolve_oid;
      })

(* Mean simulated latency of the non-transactional op classes: those pay
   only the isolation barriers (no txn protocol, no retries), so the
   strong-vs-weak delta on identical traffic is the barrier overhead,
   immune to contention-manager timing noise. *)
let nontxn_mean_latency r =
  let tot, n =
    List.fold_left
      (fun (tot, n) (op, c) ->
        if Profile.nontransactional op then
          (tot + Stm_obs.Hist.sum c.cs_hist, n + Stm_obs.Hist.count c.cs_hist)
        else (tot, n))
      (0, 0) r.r_classes
  in
  if n = 0 then 0. else float_of_int tot /. float_of_int n

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let status_string = function
  | Sched.Completed -> "completed"
  | Sched.Fuel_exhausted -> "fuel-exhausted"
  | Sched.Deadlock _ -> "deadlock"

let to_json r =
  let open Stm_obs in
  let p = r.r_params in
  Json.Obj
    [
      ("schema", Json.Str "stm-store/1");
      ("kind", Json.Str "run");
      ( "params",
        Json.Obj
          [
            ("mode", Json.Str (Mode.name p.mode));
            ("profile", Json.Str p.profile.Profile.pname);
            ("shards", Json.Int p.shards);
            ("clients", Json.Int p.clients);
            ("keys", Json.Int p.keys);
            ("buckets", Json.Int p.buckets);
            ("value_size", Json.Int p.value_size);
            ("batch", Json.Int p.batch);
            ("scan_len", Json.Int p.scan_len);
            ("ops_per_client", Json.Int p.ops_per_client);
            ("dist", Json.Str (Keydist.dist_to_string p.dist));
            ( "theta",
              match p.dist with
              | Keydist.Zipfian t -> Json.Float t
              | Keydist.Uniform -> Json.Null );
            ("seed", Json.Int p.seed);
            ("cm", Json.Str (Stm_cm.Policy.to_string p.cm));
            ("record", Json.Bool p.record);
          ] );
      ("status", Json.Str (status_string r.r_status));
      ("completed", Json.Bool r.r_completed);
      ("makespan", Json.Int r.r_makespan);
      ("total_ops", Json.Int r.r_total_ops);
      ("throughput_ops_per_mcycle", Json.Float r.r_throughput);
      ( "classes",
        Json.Obj
          (List.map
             (fun (op, c) ->
               ( Profile.op_name op,
                 Json.Obj
                   [
                     ("ops", Json.Int c.cs_ops);
                     ("misses", Json.Int c.cs_misses);
                     ("latency", Hist.to_json c.cs_hist);
                   ] ))
             r.r_classes) );
      ( "shards",
        Json.List
          (List.init (Array.length r.r_shard_aborts) (fun s ->
               Json.Obj
                 [
                   ("shard", Json.Int s);
                   ("aborts", Json.Int r.r_shard_aborts.(s));
                   ("commits", Json.Int r.r_shard_commits.(s));
                 ])) );
      ("increments", Json.Int r.r_increments);
      ( "update_deviation",
        match r.r_deviation with Some d -> Json.Int d | None -> Json.Null );
      ( "invariant_violations",
        Json.List (List.map (fun s -> Json.Str s) r.r_invariants) );
      ( "oracle",
        match r.r_verdict with
        | Some v -> History.verdict_to_json v
        | None -> Json.Null );
      ("metrics", Metrics.to_json ~stats:r.r_stats r.r_metrics);
    ]

let pp_report ppf r =
  let p = r.r_params in
  Fmt.pf ppf "@[<v>store %s/%s: %d shards, %d clients, %d keys, %s, seed %d: %s@,"
    (Mode.name p.mode) p.profile.Profile.pname p.shards p.clients p.keys
    (Keydist.dist_to_string p.dist)
    p.seed (status_string r.r_status);
  Fmt.pf ppf "  makespan=%d ops=%d throughput=%.1f ops/Mcycle@." r.r_makespan
    r.r_total_ops r.r_throughput;
  Fmt.pf ppf "  commits=%d aborts=%d conflicts=%d backoff=%d@."
    r.r_stats.Stm_core.Stats.commits r.r_stats.Stm_core.Stats.aborts
    r.r_stats.Stm_core.Stats.conflicts r.r_stats.Stm_core.Stats.backoff_cycles;
  List.iter
    (fun (op, c) ->
      Fmt.pf ppf "  %-10s %6d ops %4d misses  p50=%d p99=%d cycles@."
        (Profile.op_name op) c.cs_ops c.cs_misses
        (Stm_obs.Hist.quantile c.cs_hist 0.5)
        (Stm_obs.Hist.quantile c.cs_hist 0.99))
    r.r_classes;
  Fmt.pf ppf "  shard aborts: [%a]@."
    Fmt.(array ~sep:(any ", ") int)
    r.r_shard_aborts;
  (match r.r_deviation with
  | Some d ->
      Fmt.pf ppf "  update deviation: %d (%d committed increments)@." d
        r.r_increments
  | None -> ());
  (match r.r_verdict with
  | Some v -> Fmt.pf ppf "  oracle: %a@." History.pp_verdict v
  | None -> ());
  (match r.r_invariants with
  | [] -> Fmt.pf ppf "  invariants: ok@,@]"
  | vs ->
      Fmt.pf ppf "  INVARIANT VIOLATIONS:@.";
      List.iter (fun v -> Fmt.pf ppf "    %s@." v) vs;
      Fmt.pf ppf "@]")
