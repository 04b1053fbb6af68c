open Stm_core
module History = Stm_check.History

(* First value word of an entry object (Kv's layout). Only accesses to
   this field enter the history: the key and link words, the shard
   headers, and the payload mirror words are structural and projected
   out. *)
let fld_val = 2

type frame = {
  f_txid : int;
  mutable f_accs : (History.loc * History.value * bool) list;  (* reversed *)
  mutable f_serial : int option;
}

type t = {
  lookup : int -> int option;
  mutable enabled : bool;
  mutable stamp : int;
  frames : (int, frame list) Hashtbl.t;  (* sched tid -> open txn stack *)
  mutable raw_nodes : History.node list;  (* reversed *)
  mutable init : (History.loc * History.value) list;
  mutable final : (History.loc * History.value) list;
}

let create ~lookup () =
  {
    lookup;
    enabled = false;
    stamp = 0;
    frames = Hashtbl.create 16;
    raw_nodes = [];
    init = [];
    final = [];
  }

let set_enabled t on = t.enabled <- on

let set_init t kvs =
  t.init <- List.map (fun (k, v) -> (History.Cell k, History.Vi v)) kvs

let set_final t kvs =
  t.final <- List.map (fun (k, v) -> (History.Cell k, History.Vi v)) kvs

let push_frame t tid f =
  let stack = Option.value (Hashtbl.find_opt t.frames tid) ~default:[] in
  Hashtbl.replace t.frames tid (f :: stack)

let find_frame t tid txid =
  match Hashtbl.find_opt t.frames tid with
  | None -> None
  | Some stack -> List.find_opt (fun f -> f.f_txid = txid) stack

let pop_frame t tid txid =
  match Hashtbl.find_opt t.frames tid with
  | None -> None
  | Some stack ->
      let popped = List.find_opt (fun f -> f.f_txid = txid) stack in
      Hashtbl.replace t.frames tid
        (List.filter (fun f -> f.f_txid <> txid) stack);
      popped

let add_raw t node = t.raw_nodes <- node :: t.raw_nodes

let on_event t (ev : Trace.event) =
  t.stamp <- t.stamp + 1;
  let now = t.stamp in
  if t.enabled then
    match ev with
    | Trace.Access { tid; txid; oid; fld; value; write } when fld = fld_val -> (
        match (t.lookup oid, value) with
        | Some key, Stm_runtime.Heap.Vint n ->
            let l = History.Cell key and v = History.Vi n in
            if txid >= 0 then (
              match find_frame t tid txid with
              | Some f -> f.f_accs <- (l, v, write) :: f.f_accs
              | None -> ())
            else
              add_raw t
                {
                  History.id = 0;
                  tid;
                  txn = false;
                  stamp = now;
                  tag = None;
                  reads = (if write then [] else [ (l, v) ]);
                  writes = (if write then [ (l, v) ] else []);
                }
        | _ -> ())
    | Trace.Txn_begin { txid; tid } ->
        push_frame t tid { f_txid = txid; f_accs = []; f_serial = None }
    | Trace.Txn_serialized { txid; tid } -> (
        match find_frame t tid txid with
        | Some f -> f.f_serial <- Some now
        | None -> ())
    | Trace.Txn_commit { txid; tid; _ } -> (
        match pop_frame t tid txid with
        | None -> ()
        | Some f ->
            let reads, writes = History.split_accs f.f_accs in
            add_raw t
              {
                History.id = 0;
                tid;
                txn = true;
                stamp = Option.value f.f_serial ~default:now;
                reads;
                writes;
                tag = None;
              })
    | Trace.Txn_abort { txid; tid; _ } -> ignore (pop_frame t tid txid)
    | _ -> ()

let history t =
  let nodes =
    (* transactions that touched only structural state (scan presence
       checks, bare seqno bumps) project to empty nodes — drop them *)
    List.filter
      (fun (n : History.node) -> n.History.reads <> [] || n.History.writes <> [])
      (List.rev t.raw_nodes)
    |> List.sort (fun (a : History.node) b ->
           compare a.History.stamp b.History.stamp)
  in
  let nodes =
    List.mapi (fun i (n : History.node) -> { n with History.id = i }) nodes
  in
  { History.init = t.init; nodes; final = t.final }

let check t =
  match History.check_graph (history t) with
  | None -> History.Serializable
  | Some a -> History.Anomalous a
