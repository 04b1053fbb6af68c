open Stm_runtime
module Stm = Stm_core.Stm
module Mode = Stm_core.Mode

(* [Heap]'s field accessors without the calls: the match on
   [Footprint.sink] (the DPOR explorer's access report), then the load
   or store, in [Heap]'s order. *)
let[@inline] report oid kind =
  match !Footprint.sink with None -> () | Some f -> f oid kind

let[@inline] heap_get (o : Heap.obj) i =
  report o.Heap.oid Footprint.Read;
  o.Heap.fields.(i)

let[@inline] heap_set (o : Heap.obj) i v =
  report o.Heap.oid Footprint.Write;
  o.Heap.fields.(i) <- v

(* Entry object layout: field 0 = key, field 1 = next link,
   fields 2 .. 2+value_size-1 = value words. *)
let fld_key = 0
let fld_next = 1
let fld_val = 2

(* Shard header layout: field 0 = commit seqno, field 1 = entry count. *)
let fld_seqno = 0
let fld_count = 1

(* The audit's key set, kept from call to call: key [k] was seen in the
   shard under audit iff [stamp.(k) = epoch], and each shard of each
   audit takes a fresh epoch, so starting a shard writes nothing. The
   array covers the keys from 0 to the largest ever linked ([key_max]
   below), up to a few times the entries ever linked, so a sparse key
   space cannot blow it up; any other key goes to [overflow]. *)
type audit = {
  mutable stamp : int array;
  mutable epoch : int;
  overflow : unit Int_index.t;
}

type t = {
  mode : Mode.t;
  shards : int;
  buckets : int;
  value_size : int;
  tables : Heap.obj array;  (** per shard: fields are the chain heads *)
  headers : Heap.obj array;
  locks : Sim_mutex.t array;  (** empty unless [Locks] *)
  mutable oid_shard : int array;
  mutable oid_key : int array;
  mutable entries : int;  (** entries ever linked, aborted inserts too *)
  mutable key_max : int;  (** the largest key ever linked, -1 before any *)
  audit : audit;
}
(* [oid_shard] and [oid_key] are a dense index on object ids, grown on
   demand; oids restart at 1 in every [Stm.run], so the index is as long
   as the run's object count. [oid_shard.(oid)] is the shard of a
   store-owned table or header, the shard plus [shards] for an entry
   (whose key is then [oid_key.(oid)]), and -1 for any other object. *)

let mix k =
  let k = (k + 0x27d4eb2f165667c5) land max_int in
  let k = k lxor (k lsr 29) in
  let k = k * 0x165667b19e3779f9 land max_int in
  let k = k lxor (k lsr 32) in
  k

let shard_of_key t k = mix k mod t.shards
let bucket_of_key t k = mix k / t.shards mod t.buckets

let register t oid code =
  let n = Array.length t.oid_shard in
  if oid >= n then begin
    let n' = Int.max 1024 (Int.max (oid + 1) (2 * n)) in
    let grow a fill =
      let a' = Array.make n' fill in
      Array.blit a 0 a' 0 n;
      a'
    in
    t.oid_shard <- grow t.oid_shard (-1);
    t.oid_key <- grow t.oid_key 0
  end;
  t.oid_shard.(oid) <- code

let register_entry t e k sh =
  register t e.Heap.oid (t.shards + sh);
  t.oid_key.(e.Heap.oid) <- k;
  t.entries <- t.entries + 1;
  if k > t.key_max then t.key_max <- k

(* ------------------------------------------------------------------ *)
(* Creation: a fresh build, or the kept image reissued                 *)
(* ------------------------------------------------------------------ *)

(* Every store run builds the same preloaded store, and at 1,024 keys
   that is over a thousand heap objects. The last build is kept as an
   image: its objects in oid order (the shard tables, the headers, then
   the entries by key), the fields the preload left in them, and the oid
   index as it stood. A run of the same shape starting at the same oid
   reissues the objects (see [Heap.reissue]) instead: the same oids, the
   same clock charges and the same fields, so nothing the run computes
   can tell the two apart. *)
type image = {
  i_locks : bool;
  i_shards : int;
  i_buckets : int;
  i_value_size : int;
  i_values : int array;  (** key [k]'s preload value *)
  i_base : int;  (** [Heap.last_oid ()] before the build *)
  i_tables : Heap.obj array;
  i_headers : Heap.obj array;
  i_objs : Heap.obj array;  (** tables, headers, entries: oid order *)
  i_fields : Heap.value array array;  (** [i_objs]' post-preload fields *)
  i_oid_shard : int array;
  i_oid_key : int array;
  i_audit : audit;
}

let kept : image option ref = ref None

let rec same_values (a : int array) b i =
  i >= Array.length a || (a.(i) = b.(i) && same_values a b (i + 1))

let is_locks = function Mode.Locks -> true | Mode.Stm _ -> false

(* A build reports field stores to [Footprint]'s sink and a reissue does
   not, so a run with a sink installed (the DPOR explorer's) builds. *)
let reusable i ~mode ~shards ~buckets ~value_size ~values =
  i.i_locks = is_locks mode
  && i.i_shards = shards && i.i_buckets = buckets
  && i.i_value_size = value_size
  && Array.length i.i_values = Array.length values
  && same_values i.i_values values 0
  && i.i_base = Heap.last_oid ()
  && not (Footprint.active ())

let build ~mode ~shards ~buckets ~value_size ~values ~locks =
  let base = Heap.last_oid () in
  (* [Stm.alloc_public] charges [cost.alloc] for each table and header *)
  let tables =
    Array.init shards (fun _ -> Stm.alloc_public ~cls:"StoreTable" buckets)
  in
  let headers =
    Array.init shards (fun _ ->
        let o = Stm.alloc_public ~cls:"StoreHeader" 2 in
        heap_set o fld_seqno (Heap.Vint 0);
        o)
  in
  let t =
    {
      mode;
      shards;
      buckets;
      value_size;
      tables;
      headers;
      locks;
      oid_shard = [||];
      oid_key = [||];
      entries = 0;
      key_max = -1;
      audit = { stamp = [||]; epoch = 0; overflow = Int_index.create () };
    }
  in
  Array.iteri (fun s o -> register t o.Heap.oid s) tables;
  Array.iteri (fun s o -> register t o.Heap.oid s) headers;
  (* The preload: raw heap stores, no barriers, no cost, no trace
     events, so the measured window starts on a loaded store. *)
  let counts = Array.make shards 0 in
  let entries =
    Array.mapi
      (fun k v ->
        let sh = shard_of_key t k and b = bucket_of_key t k in
        let e = Heap.alloc ~cls:"StoreEntry" (fld_val + value_size) in
        register_entry t e k sh;
        heap_set e fld_key (Heap.Vint k);
        heap_set e fld_next (heap_get tables.(sh) b);
        let v = Heap.Vint v in
        for i = 0 to value_size - 1 do
          heap_set e (fld_val + i) v
        done;
        heap_set tables.(sh) b (Heap.Vref e);
        counts.(sh) <- counts.(sh) + 1;
        e)
      values
  in
  Array.iteri (fun sh n -> heap_set headers.(sh) fld_count (Heap.Vint n)) counts;
  let objs = Array.concat [ tables; headers; entries ] in
  kept :=
    Some
      {
        i_locks = is_locks mode;
        i_shards = shards;
        i_buckets = buckets;
        i_value_size = value_size;
        i_values = values;
        i_base = base;
        i_tables = tables;
        i_headers = headers;
        i_objs = objs;
        i_fields = Array.map (fun (o : Heap.obj) -> Array.copy o.Heap.fields) objs;
        i_oid_shard = Array.copy t.oid_shard;
        i_oid_key = Array.copy t.oid_key;
        i_audit = t.audit;
      };
  t

let reissue i ~mode ~locks =
  let alloc = (Stm.config ()).Stm_core.Config.cost.Cost.alloc in
  let charged = 2 * i.i_shards in
  Array.iteri
    (fun j o ->
      if j < charged then Sched.tick alloc;
      Heap.reissue o i.i_fields.(j))
    i.i_objs;
  {
    mode;
    shards = i.i_shards;
    buckets = i.i_buckets;
    value_size = i.i_value_size;
    tables = i.i_tables;
    headers = i.i_headers;
    locks;
    oid_shard = Array.copy i.i_oid_shard;
    oid_key = Array.copy i.i_oid_key;
    entries = Array.length i.i_values;
    key_max = Array.length i.i_values - 1;
    audit = i.i_audit;
  }

let create ?(buckets = 64) ?(value_size = 4) ~mode ~shards ~keys ~value ~cost () =
  if shards <= 0 then invalid_arg "Kv.create: shards must be positive";
  if buckets <= 0 then invalid_arg "Kv.create: buckets must be positive";
  if value_size <= 0 then invalid_arg "Kv.create: value_size must be positive";
  if keys < 0 then invalid_arg "Kv.create: keys must be non-negative";
  let values = Array.init keys value in
  let locks =
    match mode with
    | Mode.Locks ->
        Array.init shards (fun s ->
            Sim_mutex.create ~name:(Printf.sprintf "shard-%d" s) cost)
    | Mode.Stm _ -> [||]
  in
  match !kept with
  | Some i when reusable i ~mode ~shards ~buckets ~value_size ~values ->
      reissue i ~mode ~locks
  | Some _ | None -> build ~mode ~shards ~buckets ~value_size ~values ~locks

(* Mode-sensitive access path: the lock baseline runs on the
   barrier-elided accesses (the paper's "Synch" series has no STM
   barriers at all); the STM modes go through the context-sensitive
   read/write, which is transactional inside [Stm.atomic] and the
   configured non-transactional path outside. *)
let rd t o f =
  match t.mode with
  | Mode.Locks -> Stm.read_nobarrier o f
  | Mode.Stm _ -> Stm.read o f

let wr t o f v =
  match t.mode with
  | Mode.Locks -> Stm.write_nobarrier o f v
  | Mode.Stm _ -> Stm.write o f v

(* Run [f] atomically with respect to the given shards: an atomic block
   under the STM modes, the shard mutexes in ascending order under the
   lock baseline (total order on locks = no simulated deadlock).

   Under the STM modes a doomed transaction can read a half-built entry
   (a concurrent insert's null value) and fault in [Stm.to_int] before
   any validation runs. As the interpreter does for its own faults, the
   block validates on a fault (Section 3.4): a transaction that is no
   longer valid aborts and retries; a valid one re-raises. *)
let atomically t shs f =
  match t.mode with
  | Mode.Stm _ ->
      Stm.atomic (fun () ->
          match f () with
          | v -> v
          | exception Invalid_argument _ when not (Stm.valid ()) ->
              Stm.abort_and_retry ())
  | Mode.Locks ->
      let shs = List.sort_uniq Int.compare shs in
      let rec go = function
        | [] -> f ()
        | s :: rest -> Sim_mutex.with_lock t.locks.(s) (fun () -> go rest)
      in
      go shs

(* Single-key non-transactional ops take the shard lock in [Locks] mode
   and run bare otherwise (that is the point of the mixed traffic). *)
let nontxn t sh f =
  match t.mode with
  | Mode.Stm _ -> f ()
  | Mode.Locks -> Sim_mutex.with_lock t.locks.(sh) f

let find t k =
  let sh = shard_of_key t k and b = bucket_of_key t k in
  let rec walk v =
    match v with
    | Heap.Vref e ->
        if Stm.to_int (rd t e fld_key) = k then Some e else walk (rd t e fld_next)
    | _ -> None
  in
  walk (rd t t.tables.(sh) b)

let write_value t e v =
  for i = 0 to t.value_size - 1 do
    wr t e (fld_val + i) (Stm.vint v)
  done

let read_value t e = Stm.to_int (rd t e fld_val)

let bump_seqno t sh =
  let h = t.headers.(sh) in
  wr t h fld_seqno (Stm.vint (Stm.to_int (rd t h fld_seqno) + 1))

let adjust_count t sh d =
  let h = t.headers.(sh) in
  wr t h fld_count (Stm.vint (Stm.to_int (rd t h fld_count) + d))

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

let get t k =
  nontxn t (shard_of_key t k) (fun () ->
      match find t k with Some e -> Some (read_value t e) | None -> None)

let insert_body t k v =
  let sh = shard_of_key t k and b = bucket_of_key t k in
  bump_seqno t sh;
  match find t k with
  | Some e ->
      write_value t e v;
      false
  | None ->
      let e = Stm.alloc_public ~cls:"StoreEntry" (fld_val + t.value_size) in
      register_entry t e k sh;
      wr t e fld_key (Stm.vint k);
      wr t e fld_next (rd t t.tables.(sh) b);
      write_value t e v;
      wr t t.tables.(sh) b (Stm.vref e);
      adjust_count t sh 1;
      true

let insert t k v = atomically t [ shard_of_key t k ] (fun () -> insert_body t k v)

let put t k v =
  let sh = shard_of_key t k in
  let updated =
    nontxn t sh (fun () ->
        match find t k with
        | Some e ->
            write_value t e v;
            true
        | None -> false)
  in
  if updated then false else insert t k v

let add t k d =
  nontxn t (shard_of_key t k) (fun () ->
      match find t k with
      | Some e ->
          let v = read_value t e + d in
          write_value t e v;
          Some v
      | None -> None)

(* rmw bumps the seqno *after* the entry write: writers still serialize
   per shard on the header granule, but a conflict between two writers
   of the same hot key is detected at the entry first, so the diag
   heatmap attributes it to the key rather than to the shard header. *)
let rmw t k ~f =
  atomically t
    [ shard_of_key t k ]
    (fun () ->
      let r =
        match find t k with
        | Some e ->
            let v = f (read_value t e) in
            write_value t e v;
            Some v
        | None -> None
      in
      bump_seqno t (shard_of_key t k);
      r)

let delete t k =
  let sh = shard_of_key t k and b = bucket_of_key t k in
  atomically t [ sh ] (fun () ->
      bump_seqno t sh;
      let table = t.tables.(sh) in
      let rec walk prev v =
        match v with
        | Heap.Vref e ->
            if Stm.to_int (rd t e fld_key) = k then begin
              let nxt = rd t e fld_next in
              (match prev with
              | None -> wr t table b nxt
              | Some p -> wr t p fld_next nxt);
              adjust_count t sh (-1);
              true
            end
            else walk (Some e) (rd t e fld_next)
        | _ -> false
      in
      walk None (rd t table b))

(* [List.mem] on shards without the polymorphic compare. *)
let rec mem_shard (s : int) = function
  | [] -> false
  | u :: rest -> u = s || mem_shard s rest

let shards_of_keys t ks =
  let acc = ref [] in
  for i = 0 to Array.length ks - 1 do
    let s = shard_of_key t ks.(i) in
    if not (mem_shard s !acc) then acc := s :: !acc
  done;
  !acc

let read_headers t shs =
  match t.mode with
  | Mode.Locks -> ()  (* the locks are held; no snapshot validation needed *)
  | Mode.Stm _ ->
      List.iter (fun s -> ignore (rd t t.headers.(s) fld_seqno)) shs

let multi_get t ks =
  let shs = List.sort_uniq Int.compare (shards_of_keys t ks) in
  atomically t shs (fun () ->
      read_headers t shs;
      Array.map
        (fun k -> match find t k with Some e -> Some (read_value t e) | None -> None)
        ks)

let scan t k0 ~len =
  let ks = Array.init (Int.max 1 len) (fun i -> k0 + i) in
  let shs = List.sort_uniq Int.compare (shards_of_keys t ks) in
  atomically t shs (fun () ->
      read_headers t shs;
      Array.fold_left
        (fun n k -> match find t k with Some _ -> n + 1 | None -> n)
        0 ks)

(* ------------------------------------------------------------------ *)
(* Post-run inspection                                                 *)
(* ------------------------------------------------------------------ *)

let raw_int o f = match heap_get o f with Heap.Vint n -> n | _ -> 0

let fold t ~init ~f =
  let acc = ref init in
  for s = 0 to t.shards - 1 do
    for b = 0 to t.buckets - 1 do
      let rec walk v =
        match v with
        | Heap.Vref e ->
            acc := f !acc (raw_int e fld_key) (raw_int e fld_val);
            walk (heap_get e fld_next)
        | _ -> ()
      in
      walk (heap_get t.tables.(s) b)
    done
  done;
  !acc

let entry_count t = fold t ~init:0 ~f:(fun n _ _ -> n + 1)

let check_invariants t =
  let viols = ref [] in
  let viol fmt = Printf.ksprintf (fun s -> viols := s :: !viols) fmt in
  (* a chain longer than every entry ever linked must be a cycle *)
  let chain_bound = 1 + t.entries in
  let a = t.audit in
  let span = 1 + Int.min t.key_max ((4 * t.entries) + 1023) in
  if Array.length a.stamp < span then a.stamp <- Array.make span 0;
  let stamp = a.stamp in
  (* [k]'s first sighting in the shard under audit *)
  let first k =
    if k >= 0 && k < Array.length stamp then
      if stamp.(k) = a.epoch then false
      else begin
        stamp.(k) <- a.epoch;
        true
      end
    else Int_index.add a.overflow k
  in
  for s = 0 to t.shards - 1 do
    a.epoch <- a.epoch + 1;
    Int_index.clear a.overflow;
    let count = ref 0 in
    for b = 0 to t.buckets - 1 do
      let steps = ref 0 in
      let rec walk v =
        match v with
        | Heap.Vref e ->
            incr steps;
            if !steps > chain_bound then
              viol "shard %d bucket %d: chain cycle" s b
            else begin
              let k = raw_int e fld_key in
              if shard_of_key t k <> s || bucket_of_key t k <> b then
                viol "key %d misplaced in shard %d bucket %d" k s b;
              if not (first k) then viol "key %d duplicated in shard %d" k s;
              incr count;
              walk (heap_get e fld_next)
            end
        | _ -> ()
      in
      walk (heap_get t.tables.(s) b)
    done;
    let declared = raw_int t.headers.(s) fld_count in
    if declared <> !count then
      viol "shard %d header count %d but %d entries reachable" s declared !count
  done;
  List.rev !viols

let table t s = t.tables.(s)
let header t s = t.headers.(s)

let code_of_oid t oid =
  if oid >= 0 && oid < Array.length t.oid_shard then t.oid_shard.(oid) else -1

let key_of_oid t oid =
  if code_of_oid t oid >= t.shards then Some t.oid_key.(oid) else None

let shard_of_oid t oid =
  let c = code_of_oid t oid in
  if c < 0 then None else Some (c mod t.shards)
