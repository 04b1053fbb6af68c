(* The one history collector: folds the runtime's History-level trace
   events into History nodes for the fuzz executor (Exec) and the store
   audit (Stm_store.Engine).

   The cooperative scheduler emits each event with no preemption point
   between the heap operation and the emission, so trace-arrival order
   is memory-visibility order: the arrival index is a sound
   serialization stamp.

   Committed transactions become one node each, stamped at their
   Txn_serialized event (under lazy versioning the commit event fires
   only after the write-back window, which can legitimately reorder
   against other threads). Aborted attempts are dropped - their writes
   are rolled back, and any value another node observed from them has no
   committed writer, which the oracle reports as a dirty read. *)

open Stm_runtime
module Config = Stm_core.Config
module Trace = Stm_core.Trace

type frame = {
  f_txid : int;
  f_tag : History.tag option;
  f_begin : int;  (* arrival stamp of Txn_begin = snapshot point under mvcc *)
  mutable f_accs : (History.loc * History.value * bool) list;  (* reversed *)
  mutable f_serial : int;  (* arrival stamp of Txn_serialized, -1 before *)
}

(* fills the unused tail of [nodes] *)
let no_node =
  { History.id = -1; tid = -1; txn = false; stamp = -1; tag = None; reads = []; writes = [] }

let no_loc = History.Cell (-1)
let no_value = History.Vi min_int

type t = {
  loc : int -> int -> History.loc;
  value : Heap.value -> History.value;
  mv : bool;  (* multi-version run: ro txns serialize at snapshot *)
  mutable enabled : bool;
  mutable stamp : int;
  (* Indexed by simulated tid; the three arrays grow together. *)
  mutable tags : History.tag option array;  (* current tag *)
  mutable tids : int array;  (* logical thread index, -1 if unnamed *)
  mutable frames : frame list array;  (* open txn stack *)
  mutable nodes : History.node array;  (* commit order, first [nnodes] *)
  mutable nnodes : int;
}

let create ~cfg ~loc ~value =
  {
    loc;
    value;
    mv = cfg.Config.versioning = Config.Mvcc;
    enabled = false;
    stamp = 0;
    tags = Array.make 8 None;
    tids = Array.make 8 (-1);
    frames = Array.make 8 [];
    nodes = Array.make 16 no_node;
    nnodes = 0;
  }

let set_enabled t on = t.enabled <- on

let grow arr len fill =
  let a = Array.make len fill in
  Array.blit arr 0 a 0 (Array.length arr);
  a

(* Make [tid] a valid index of the per-thread arrays. *)
let reserve t tid =
  let n = Array.length t.tids in
  if tid >= n then begin
    let len = Int.max (tid + 1) (2 * n) in
    t.tags <- grow t.tags len None;
    t.tids <- grow t.tids len (-1);
    t.frames <- grow t.frames len []
  end

let name t ~tid i =
  reserve t tid;
  t.tids.(tid) <- i

let set_tag t ~tid tag =
  reserve t tid;
  t.tags.(tid) <- Some tag

let tag_of t tid = if tid < Array.length t.tags then t.tags.(tid) else None

let logical_tid t tid =
  if tid < Array.length t.tids && t.tids.(tid) >= 0 then t.tids.(tid) else tid

let frames_of t tid = if tid < Array.length t.frames then t.frames.(tid) else []

(* The open frame of [txid] in a stack, or [Not_found]: no option is
   allocated on the per-access path. *)
let rec frame_of txid = function
  | [] -> raise Not_found
  | f :: rest -> if f.f_txid = txid then f else frame_of txid rest

let rec remove_frame txid = function
  | [] -> []
  | f :: rest -> if f.f_txid = txid then rest else f :: remove_frame txid rest

let pop_frame t tid txid =
  let stack = frames_of t tid in
  let f = frame_of txid stack in
  t.frames.(tid) <- remove_frame txid stack;
  f

let add_node t node =
  if t.nnodes = Array.length t.nodes then
    t.nodes <- grow t.nodes (2 * t.nnodes) no_node;
  t.nodes.(t.nnodes) <- node;
  t.nnodes <- t.nnodes + 1

let on_event t (ev : Trace.event) =
  t.stamp <- t.stamp + 1;
  let now = t.stamp in
  if t.enabled then
    match ev with
    | Trace.Access { tid; txid; oid; fld; value; write } ->
        let l = t.loc oid fld in
        if l != no_loc then
          let v = t.value value in
          if v != no_value then
            if txid >= 0 then (
              match frame_of txid (frames_of t tid) with
              | f -> f.f_accs <- (l, v, write) :: f.f_accs
              | exception Not_found -> ())
            else
              add_node t
                {
                  History.id = 0;
                  tid = logical_tid t tid;
                  txn = false;
                  stamp = now;
                  tag = tag_of t tid;
                  reads = (if write then [] else [ (l, v) ]);
                  writes = (if write then [ (l, v) ] else []);
                }
    | Trace.Txn_begin { txid; tid } ->
        (* begin_txn takes the mvcc snapshot and emits this event in one
           yield-free stretch, so [now] doubles as the snapshot stamp *)
        reserve t tid;
        t.frames.(tid) <-
          { f_txid = txid; f_tag = tag_of t tid; f_begin = now; f_accs = []; f_serial = -1 }
          :: t.frames.(tid)
    | Trace.Txn_serialized { txid; tid } -> (
        match frame_of txid (frames_of t tid) with
        | f -> f.f_serial <- now
        | exception Not_found -> ())
    | Trace.Txn_commit { txid; tid; _ } -> (
        match pop_frame t tid txid with
        | exception Not_found -> ()
        | { f_accs = []; _ } -> ()
        | f ->
            let reads, writes = History.split_accs f.f_accs in
            (* A multi-version read-only transaction serializes at its
               snapshot, not at commit: it reads the versions current at
               begin and skips validation, so a commit that lands between
               its snapshot and its (arbitrarily later) commit event must
               order AFTER it. Update transactions keep the commit-time
               stamp - their writes install at the commit clock. *)
            let stamp =
              if t.mv && writes = [] then f.f_begin
              else if f.f_serial >= 0 then f.f_serial
              else now
            in
            add_node t
              {
                History.id = 0;
                tid = logical_tid t tid;
                txn = true;
                stamp;
                tag = f.f_tag;
                reads;
                writes;
              })
    | Trace.Txn_abort { txid; tid; _ } -> (
        try ignore (pop_frame t tid txid) with Not_found -> ())
    | _ -> ()

(* Sort the nodes by stamp once (stably, as they arrived in commit
   order) and number them densely. *)
let history t ~init ~final =
  let raw = Array.sub t.nodes 0 t.nnodes in
  Array.stable_sort (fun (a : History.node) b -> Int.compare a.stamp b.stamp) raw;
  let nodes = ref [] in
  for i = t.nnodes - 1 downto 0 do
    nodes := { (raw.(i)) with History.id = i } :: !nodes
  done;
  { History.init; nodes = !nodes; final }
