(* Execute a fuzz program on the real STM and collect its history.

   The program runs under the cooperative scheduler through the public
   Stm API, with a Debug-level trace sink recording every completed
   memory access (Trace.Access) and every serialization point
   (Trace.Txn_serialized). Because the scheduler is cooperative and the
   runtime emits these events with no preemption point between the heap
   operation and the emission, trace-arrival order is memory-visibility
   order: the arrival index is a sound serialization stamp.

   Committed transactions become one node each, stamped at their
   Txn_serialized event (under lazy versioning the commit event fires
   only after the write-back window, which can legitimately reorder
   against other threads). Aborted attempts are dropped - their writes
   are rolled back, and any value another node observed from them has no
   committed writer, which the oracle reports as a dirty read. *)

open Stm_runtime
module Config = Stm_core.Config
module Stm = Stm_core.Stm
module Trace = Stm_core.Trace

(* ------------------------------------------------------------------ *)
(* Collector                                                           *)
(* ------------------------------------------------------------------ *)

type frame = {
  f_txid : int;
  f_tag : History.tag option;
  f_begin : int;  (* arrival stamp of Txn_begin = snapshot point under mvcc *)
  mutable f_accs : (History.loc * History.value * bool) list;  (* reversed *)
  mutable f_serial : int;  (* arrival stamp of Txn_serialized, -1 before *)
}

(* fills the unused tail of [collector.nodes] *)
let no_node =
  { History.id = -1; tid = -1; txn = false; stamp = -1; tag = None; reads = []; writes = [] }

type collector = {
  mutable enabled : bool;
  mutable mv : bool;  (* multi-version run: ro txns serialize at snapshot *)
  mutable stamp : int;
  mutable cells_oid : int;
  mutable roots_oid : int;
  mutable box_objs : (History.box_id * Heap.obj) list;  (* reversed *)
  (* Indexed by simulated tid; the three arrays grow together. *)
  mutable tags : History.tag option array;  (* current tag *)
  mutable tids : int array;  (* logical thread index, -1 if none *)
  mutable frames : frame list array;  (* open txn stack *)
  mutable nodes : History.node array;  (* commit order, first [nnodes] *)
  mutable nnodes : int;
  mutable init : (History.loc * History.value) list;
  mutable final : (History.loc * History.value) list option;
}

let create_collector () =
  {
    enabled = false;
    mv = false;
    stamp = 0;
    cells_oid = -1;
    roots_oid = -1;
    box_objs = [];
    tags = Array.make 8 None;
    tids = Array.make 8 (-1);
    frames = Array.make 8 [];
    nodes = Array.make 16 no_node;
    nnodes = 0;
    init = [];
    final = None;
  }

let grow arr len fill =
  let a = Array.make len fill in
  Array.blit arr 0 a 0 (Array.length arr);
  a

(* Make [tid] a valid index of the per-thread arrays. *)
let reserve col tid =
  let n = Array.length col.tids in
  if tid >= n then begin
    let len = max (tid + 1) (2 * n) in
    col.tags <- grow col.tags len None;
    col.tids <- grow col.tids len (-1);
    col.frames <- grow col.frames len []
  end

let tag_of col tid = if tid < Array.length col.tags then col.tags.(tid) else None

let logical_tid col tid = if tid < Array.length col.tids then col.tids.(tid) else -1

let frames_of col tid = if tid < Array.length col.frames then col.frames.(tid) else []

let rec box_of oid = function
  | [] -> None
  | (b, (o : Heap.obj)) :: rest -> if o.Heap.oid = oid then Some b else box_of oid rest

let loc_of col ~oid ~fld =
  if oid = col.cells_oid then Some (History.Cell fld)
  else if oid = col.roots_oid then Some (History.Root fld)
  else
    match box_of oid col.box_objs with
    | Some b -> Some (History.Box_field b)
    | None -> None

let value_of col (v : Heap.value) : History.value option =
  match v with
  | Heap.Vint n -> Some (History.Vi n)
  | Heap.Vref o -> (
      match box_of o.Heap.oid col.box_objs with
      | Some b -> Some (History.Vr b)
      | None -> None)
  | _ -> None

let push_frame col tid f =
  reserve col tid;
  col.frames.(tid) <- f :: col.frames.(tid)

(* The open frame of [txid] in a stack, or [Not_found]: no option is
   allocated on the per-access path. *)
let rec frame_of txid = function
  | [] -> raise Not_found
  | f :: rest -> if f.f_txid = txid then f else frame_of txid rest

let pop_frame col tid txid =
  let stack = frames_of col tid in
  let f = frame_of txid stack in
  col.frames.(tid) <- List.filter (fun g -> g.f_txid <> txid) stack;
  f

let add_node col node =
  if col.nnodes = Array.length col.nodes then
    col.nodes <- grow col.nodes (2 * col.nnodes) no_node;
  col.nodes.(col.nnodes) <- node;
  col.nnodes <- col.nnodes + 1

let on_event col (ev : Trace.event) =
  col.stamp <- col.stamp + 1;
  let now = col.stamp in
  if col.enabled then
    match ev with
    | Trace.Access { tid; txid; oid; fld; value; write } -> (
        match (loc_of col ~oid ~fld, value_of col value) with
        | Some l, Some v ->
            if txid >= 0 then (
              match frame_of txid (frames_of col tid) with
              | f -> f.f_accs <- (l, v, write) :: f.f_accs
              | exception Not_found -> ())
            else
              add_node col
                {
                  History.id = 0;
                  tid = logical_tid col tid;
                  txn = false;
                  stamp = now;
                  tag = tag_of col tid;
                  reads = (if write then [] else [ (l, v) ]);
                  writes = (if write then [ (l, v) ] else []);
                }
        | _ -> ())
    | Trace.Txn_begin { txid; tid } ->
        (* begin_txn takes the mvcc snapshot and emits this event in one
           yield-free stretch, so [now] doubles as the snapshot stamp *)
        push_frame col tid
          {
            f_txid = txid;
            f_tag = tag_of col tid;
            f_begin = now;
            f_accs = [];
            f_serial = -1;
          }
    | Trace.Txn_serialized { txid; tid } -> (
        match frame_of txid (frames_of col tid) with
        | f -> f.f_serial <- now
        | exception Not_found -> ())
    | Trace.Txn_commit { txid; tid; _ } -> (
        match pop_frame col tid txid with
        | exception Not_found -> ()
        | f ->
            let reads, writes = History.split_accs f.f_accs in
            (* A multi-version read-only transaction serializes at its
               snapshot, not at commit: it reads the versions current at
               begin and skips validation, so a commit that lands between
               its snapshot and its (arbitrarily later) commit event must
               order AFTER it. Update transactions keep the commit-time
               stamp - their writes install at the commit clock. *)
            let stamp =
              if col.mv && writes = [] then f.f_begin
              else if f.f_serial >= 0 then f.f_serial
              else now
            in
            add_node col
              {
                History.id = 0;
                tid = logical_tid col tid;
                txn = true;
                stamp;
                tag = f.f_tag;
                reads;
                writes;
              })
    | Trace.Txn_abort { txid; tid; _ } -> (
        try ignore (pop_frame col tid txid) with Not_found -> ())
    | _ -> ()

(* Sort the nodes by stamp once (stably, as they arrived in commit
   order) and number them densely. *)
let finalize_history col =
  let raw = Array.sub col.nodes 0 col.nnodes in
  Array.stable_sort (fun (a : History.node) b -> Int.compare a.stamp b.stamp) raw;
  let nodes = ref [] in
  for i = col.nnodes - 1 downto 0 do
    nodes := { (raw.(i)) with History.id = i } :: !nodes
  done;
  {
    History.init = col.init;
    nodes = !nodes;
    final = Option.value col.final ~default:[];
  }

(* ------------------------------------------------------------------ *)
(* Program body                                                        *)
(* ------------------------------------------------------------------ *)

type ctx = {
  col : collector;
  prog : Prog.t;
  level : Config.isolation;  (* which contract the oracle certifies *)
  mutable cells : Heap.obj option;
  mutable roots : Heap.obj option;
  mutable clobbered : History.anomaly option;
}

(* The certification level follows the configuration: an mvcc run at the
   snapshot isolation level is judged against the SI contract (write
   skew is legal there); everything else must be serializable. *)
let check_level (cfg : Config.t) =
  match cfg.Config.versioning with
  | Config.Mvcc -> cfg.Config.isolation
  | Config.Eager | Config.Lazy -> Config.Serializable

let set_tag ctx ~thread ~step part =
  let tid = Sched.self () in
  reserve ctx.col tid;
  ctx.col.tags.(tid) <- Some { History.thread; step; part }

let as_int (v : Heap.value) = match v with Heap.Vint n -> n | _ -> 0

let cells_of ctx = Option.get ctx.cells
let roots_of ctx = Option.get ctx.roots

let exec_op ctx ~thread ~step acc k (op : Prog.op) =
  match op with
  | Prog.Read c -> acc := Prog.combine !acc (as_int (Stm.read (cells_of ctx) c))
  | Prog.Write (c, e) ->
      let token = Prog.op_token ~thread ~step ~op:k in
      Stm.write (cells_of ctx) c (Stm.vint (Prog.value_of e ~token ~acc:!acc))
  | Prog.Box_read s -> (
      match Stm.read (roots_of ctx) s with
      | Heap.Vref b -> acc := Prog.combine !acc (as_int (Stm.read b 0))
      | _ -> ())
  | Prog.Box_write s -> (
      match Stm.read (roots_of ctx) s with
      | Heap.Vref b ->
          let token = Prog.op_token ~thread ~step ~op:k in
          Stm.write b 0 (Stm.vint (Prog.value_of Prog.Tok_acc ~token ~acc:!acc))
      | _ -> ())

let exec_step ctx ~thread acc step_idx (step : Prog.step) =
  match step with
  | Prog.Atomic ops ->
      set_tag ctx ~thread ~step:step_idx History.Body;
      let before = !acc in
      Stm.atomic (fun () ->
          acc := before;
          List.iteri (exec_op ctx ~thread ~step:step_idx acc) ops)
  | Prog.Plain op ->
      set_tag ctx ~thread ~step:step_idx History.Body;
      exec_op ctx ~thread ~step:step_idx acc 0 op
  | Prog.Publish s ->
      let b = Stm.alloc ~cls:"fuzz-box" 1 in
      let bid = History.New_box { thread; step = step_idx } in
      ctx.col.box_objs <- (bid, b) :: ctx.col.box_objs;
      set_tag ctx ~thread ~step:step_idx History.Pub_init;
      Stm.write b 0
        (Stm.vint (Prog.pub_token ~thread ~step:step_idx * Prog.token_scale));
      set_tag ctx ~thread ~step:step_idx History.Body;
      Stm.atomic (fun () -> Stm.write (roots_of ctx) s (Stm.vref b))
  | Prog.Privatize s -> (
      set_tag ctx ~thread ~step:step_idx History.Body;
      let before = !acc in
      let got =
        Stm.atomic (fun () ->
            acc := before;
            match Stm.read (roots_of ctx) s with
            | Heap.Vref b ->
                Stm.write (roots_of ctx) s
                  (Stm.vint
                     (Prog.tomb_token ~thread ~step:step_idx * Prog.token_scale));
                Some b
            | _ -> None)
      in
      match got with
      | None -> ()
      | Some b ->
          set_tag ctx ~thread ~step:step_idx History.Priv_write;
          let expected =
            Prog.priv_token ~thread ~step:step_idx * Prog.token_scale
          in
          Stm.write b 0 (Stm.vint expected);
          set_tag ctx ~thread ~step:step_idx History.Priv_read;
          let v = Stm.read b 0 in
          acc := Prog.combine !acc (as_int v);
          let ok = match v with Heap.Vint n -> n = expected | _ -> false in
          if (not ok) && ctx.clobbered = None then
            ctx.clobbered <-
              Some
                (History.Private_clobbered
                   {
                     thread;
                     step = step_idx;
                     expected;
                     seen =
                       Option.value (value_of ctx.col v)
                         ~default:(History.Vi (as_int v));
                   }))

let thread_body ctx thread steps () =
  let acc = ref 0 in
  List.iteri (exec_step ctx ~thread acc) steps

let snapshot_final ctx =
  let col = ctx.col in
  let conv v = Option.value (value_of col v) ~default:(History.Vi (as_int v)) in
  let cells = cells_of ctx and roots = roots_of ctx in
  let fin = ref [] in
  for i = ctx.prog.Prog.ncells - 1 downto 0 do
    fin := (History.Cell i, conv (Heap.get cells i)) :: !fin
  done;
  for s = ctx.prog.Prog.nslots - 1 downto 0 do
    fin := (History.Root s, conv (Heap.get roots s)) :: !fin
  done;
  List.iter
    (fun (bid, obj) ->
      fin := (History.Box_field bid, conv (Heap.get obj 0)) :: !fin)
    (List.rev col.box_objs);
  col.final <- Some !fin

let main ctx () =
  let prog = ctx.prog in
  let col = ctx.col in
  let ncells = max 1 prog.Prog.ncells in
  let cells = Stm.alloc_public ~cls:"fuzz-cells" ncells in
  for i = 0 to ncells - 1 do
    Stm.write cells i (Stm.vint 0)
  done;
  let roots = Stm.alloc_public ~cls:"fuzz-roots" (max 1 prog.Prog.nslots) in
  for s = 0 to prog.Prog.nslots - 1 do
    let b = Stm.alloc_public ~cls:"fuzz-box" 1 in
    let bid = History.Slot_box s in
    col.box_objs <- (bid, b) :: col.box_objs;
    Stm.write b 0
      (Stm.vint (Prog.init_box_token ~slot:s * Prog.token_scale));
    Stm.write roots s (Stm.vref b)
  done;
  ctx.cells <- Some cells;
  ctx.roots <- Some roots;
  col.cells_oid <- cells.Heap.oid;
  col.roots_oid <- roots.Heap.oid;
  col.init <-
    List.init prog.Prog.ncells (fun i -> (History.Cell i, History.Vi 0))
    @ List.init prog.Prog.nslots (fun s ->
          (History.Root s, History.Vr (History.Slot_box s)))
    @ List.init prog.Prog.nslots (fun s ->
          ( History.Box_field (History.Slot_box s),
            History.Vi (Prog.init_box_token ~slot:s * Prog.token_scale) ));
  col.enabled <- true;
  let tids =
    List.mapi
      (fun i steps ->
        let t = Sched.spawn ~name:(Printf.sprintf "T%d" i) (thread_body ctx i steps) in
        reserve col t;
        col.tids.(t) <- i;
        t)
      prog.Prog.threads
  in
  List.iter Sched.join tids;
  col.enabled <- false;
  snapshot_final ctx

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let default_fuel = 400_000

let verdict_of_run ctx (result : Sched.result) =
  match result.Sched.status with
  | Sched.Fuel_exhausted -> (History.Inconclusive "scheduler fuel exhausted", None)
  | Sched.Deadlock tids ->
      ( History.Inconclusive
          (Printf.sprintf "deadlock (%d threads blocked)" (List.length tids)),
        None )
  | Sched.Completed -> (
      match result.Sched.exns with
      | (tid, e) :: _ ->
          ( History.Anomalous
              (History.Exec_failure
                 (Printf.sprintf "thread %d raised %s" tid (Printexc.to_string e))),
            None )
      | [] -> (
          let h = finalize_history ctx.col in
          match ctx.clobbered with
          | Some a -> (History.Anomalous a, Some h)
          | None -> (History.check_at ctx.level ctx.prog h, Some h)))

let run ?policy ?(max_steps = default_fuel) ~cfg prog =
  let ctx =
    {
      col = create_collector ();
      prog;
      level = check_level cfg;
      cells = None;
      roots = None;
      clobbered = None;
    }
  in
  ctx.col.mv <- cfg.Config.versioning = Config.Mvcc;
  Trace.set_sink ~level:Trace.Debug (Some (on_event ctx.col));
  Fun.protect
    ~finally:(fun () -> Trace.set_sink None)
    (fun () ->
      let result, _stats = Stm.run ?policy ~max_steps ~cfg (main ctx) in
      verdict_of_run ctx result)

(* ------------------------------------------------------------------ *)
(* Systematic exploration driver                                       *)
(* ------------------------------------------------------------------ *)

(* Reuses the litmus explorer's preemption-bounded DFS as the schedule
   source: each explored schedule re-executes the program, the observed
   outcome is the verdict's JSON rendering, and the search stops at the
   first anomalous outcome. *)

let anomalous_outcome s = String.length s > 0 && s.[0] = 'A'

let explore_make ~cfg ~first prog () =
    let ctx =
      {
        col = create_collector ();
        prog;
        level = check_level cfg;
        cells = None;
        roots = None;
        clobbered = None;
      }
    in
    ctx.col.mv <- cfg.Config.versioning = Config.Mvcc;
    Trace.set_sink ~level:Trace.Debug (Some (on_event ctx.col));
    {
      Stm_litmus.Explorer.main = main ctx;
      observe =
        (fun () ->
          match ctx.col.final with
          | None -> "inconclusive"
          | Some _ ->
              let h = finalize_history ctx.col in
              let v =
                match ctx.clobbered with
                | Some a -> History.Anomalous a
                | None -> History.check_at ctx.level prog h
              in
              (match v with
              | History.Anomalous _ when !first = None -> first := Some v
              | _ -> ());
              (* Prefix encodes the class so [stop_when] needs no parse. *)
              (match v with
              | History.Anomalous _ -> "A:"
              | History.Serializable -> "S:"
              | History.Inconclusive _ -> "I:")
              ^ Stm_obs.Json.to_string (History.verdict_to_json v));
  }

let explore ?preemption_bound ?max_runs ?(max_steps = 60_000) ~cfg prog =
  let first = ref None in
  let make = explore_make ~cfg ~first prog in
  Fun.protect
    ~finally:(fun () -> Trace.set_sink None)
    (fun () ->
      let exploration =
        Stm_litmus.Explorer.explore ?preemption_bound ?max_runs ~max_steps
          ~stop_when:anomalous_outcome ~cfg ~make ()
      in
      (!first, exploration))

let explore_dpor ?preemption_bound ?max_runs ?(max_steps = 60_000) ~cfg prog =
  let first = ref None in
  let make = explore_make ~cfg ~first prog in
  Fun.protect
    ~finally:(fun () -> Trace.set_sink None)
    (fun () ->
      let d =
        Stm_litmus.Explorer.explore_dpor ?preemption_bound ?max_runs ~max_steps
          ~stop_when:anomalous_outcome ~cfg ~make ()
      in
      (!first, d))
