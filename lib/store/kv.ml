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

let create ?(buckets = 64) ?(value_size = 4) ~mode ~shards ~cost () =
  if shards <= 0 then invalid_arg "Kv.create: shards must be positive";
  if buckets <= 0 then invalid_arg "Kv.create: buckets must be positive";
  if value_size <= 0 then invalid_arg "Kv.create: value_size must be positive";
  let tables =
    Array.init shards (fun _ -> Stm.alloc_public ~cls:"StoreTable" buckets)
  in
  let headers =
    Array.init shards (fun _ ->
        let o = Stm.alloc_public ~cls:"StoreHeader" 2 in
        heap_set o fld_seqno (Heap.Vint 0);
        heap_set o fld_count (Heap.Vint 0);
        o)
  in
  let locks =
    match mode with
    | Mode.Locks ->
        Array.init shards (fun s ->
            Sim_mutex.create ~name:(Printf.sprintf "shard-%d" s) cost)
    | Mode.Stm _ -> [||]
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
    }
  in
  Array.iteri (fun s o -> register t o.Heap.oid s) tables;
  Array.iteri (fun s o -> register t o.Heap.oid s) headers;
  t

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

let register_entry t e k sh =
  register t e.Heap.oid (t.shards + sh);
  t.oid_key.(e.Heap.oid) <- k;
  t.entries <- t.entries + 1

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
(* Preload                                                             *)
(* ------------------------------------------------------------------ *)

let preload t ~keys ~value =
  let counts = Array.make t.shards 0 in
  for k = 0 to keys - 1 do
    let sh = shard_of_key t k and b = bucket_of_key t k in
    let e = Heap.alloc ~cls:"StoreEntry" (fld_val + t.value_size) in
    register_entry t e k sh;
    heap_set e fld_key (Heap.Vint k);
    heap_set e fld_next (heap_get t.tables.(sh) b);
    let v = Heap.Vint (value k) in
    for i = 0 to t.value_size - 1 do
      heap_set e (fld_val + i) v
    done;
    heap_set t.tables.(sh) b (Heap.Vref e);
    counts.(sh) <- counts.(sh) + 1
  done;
  Array.iteri
    (fun sh n ->
      let h = t.headers.(sh) in
      match heap_get h fld_count with
      | Heap.Vint c -> heap_set h fld_count (Heap.Vint (c + n))
      | _ -> heap_set h fld_count (Heap.Vint n))
    counts

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
  let seen = Int_index.create () in
  for s = 0 to t.shards - 1 do
    Int_index.clear seen;
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
              if not (Int_index.add seen k) then
                viol "key %d duplicated in shard %d" k s;
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

let code_of_oid t oid =
  if oid >= 0 && oid < Array.length t.oid_shard then t.oid_shard.(oid) else -1

let key_of_oid t oid =
  if code_of_oid t oid >= t.shards then Some t.oid_key.(oid) else None

let shard_of_oid t oid =
  let c = code_of_oid t oid in
  if c < 0 then None else Some (c mod t.shards)
