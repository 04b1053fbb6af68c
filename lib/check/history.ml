(* Serializability oracle.

   An execution history is a list of committed nodes - transactions and
   single non-transactional accesses - each carrying its read set, write
   set and a serialization stamp taken at the node's linearization point
   (see Trace.Txn_serialized). Because every write in a fuzz program
   stores an occurrence-unique token, the reads-from relation is exact:
   the token of an observed value names the (committed) write that
   produced it, or convicts the execution of reading doomed data.

   Two independent checks:

   - [check_graph]: build the conflict graph (wr, ww, rw edges from the
     per-location version order, plus program-order edges) and demand
     acyclicity; also demand that every location's final value is its
     last committed version. A one-pass stamp-order certificate
     ([certified]) settles most clean histories first, without building
     the graph.

   - [differential]: replay the committed nodes, in stamp order, against
     a sequential reference interpreter of the original program, and
     diff the resulting heap against the observed final state.

   [check] demands serializability (both checks). [check_si] certifies
   the weaker snapshot-isolation contract instead: reads must name
   committed versions (no dirty reads), each transaction's reads of a
   location must agree (no fractured reads - every transaction saw
   *some* atomic snapshot per location), a read-modify-write must write
   the version directly after the one it read (no lost updates - the
   first-committer-wins certificate), and the final state must be the
   last committed version per location. It deliberately runs no
   dependency-graph or sequential-replay check: write skew and long
   fork produce rw-cycles and have no sequential replay, yet are
   admitted under snapshot isolation. *)

type box_id = Slot_box of int | New_box of { thread : int; step : int }

type loc = Cell of int | Root of int | Box_field of box_id

type value = Vi of int | Vr of box_id

type part = Body | Pub_init | Priv_write | Priv_read

type tag = { thread : int; step : int; part : part }

type node = {
  id : int;  (* dense, ascending with stamp *)
  tid : int;  (* logical thread index *)
  txn : bool;
  stamp : int;
  tag : tag option;
  reads : (loc * value) list;  (* in program order, duplicates kept *)
  writes : (loc * value) list;  (* last write per location *)
}

type history = {
  init : (loc * value) list;
  nodes : node list;  (* ascending stamp *)
  final : (loc * value) list;
}

type edge_kind = Wr | Ww | Rw | Po

type edge = { src : int; dst : int; kind : edge_kind; eloc : loc option }

type anomaly =
  | Cycle of edge list
  | Dirty_read of { node : int; rloc : loc; seen : value }
  | Final_mismatch of { floc : loc; expected : value option; actual : value option }
  | Divergence of { dloc : loc; replayed : value option; actual : value option }
  | Control_divergence of { thread : int; step : int; detail : string }
  | Private_clobbered of { thread : int; step : int; expected : int; seen : value }
  | Exec_failure of string
  | Lost_update of { node : int; uloc : loc; read_idx : int; write_idx : int }
      (* the node read version [read_idx] of the location but installed
         version [write_idx] <> read_idx + 1: a concurrent committed
         write was overwritten (first-committer-wins forbids this) *)
  | Fractured_read of { node : int; floc : loc; first : value; second : value }
      (* one transaction observed two different committed versions of
         the same location: no single snapshot contains both *)

type verdict = Serializable | Inconclusive of string | Anomalous of anomaly

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let box_to_string = function
  | Slot_box s -> Printf.sprintf "b%d" s
  | New_box { thread; step } -> Printf.sprintf "n%d.%d" thread step

let loc_to_string = function
  | Cell i -> Printf.sprintf "c%d" i
  | Root s -> Printf.sprintf "s%d" s
  | Box_field b -> box_to_string b ^ ".f"

let value_to_string = function
  | Vr b -> "&" ^ box_to_string b
  | Vi n ->
      if n >= Prog.token_scale then
        Printf.sprintf "%d:%d" (n / Prog.token_scale) (n mod Prog.token_scale)
      else string_of_int n

let pp_loc ppf l = Fmt.string ppf (loc_to_string l)
let pp_value ppf v = Fmt.string ppf (value_to_string v)

let part_to_string = function
  | Body -> "body"
  | Pub_init -> "pub-init"
  | Priv_write -> "priv-write"
  | Priv_read -> "priv-read"

let pp_tag ppf t = Fmt.pf ppf "T%d.%d/%s" t.thread t.step (part_to_string t.part)

let pp_node ppf n =
  Fmt.pf ppf "#%d %s tid=%d stamp=%d%a R[%a] W[%a]" n.id
    (if n.txn then "txn" else "acc")
    n.tid n.stamp
    (Fmt.option (fun ppf t -> Fmt.pf ppf " %a" pp_tag t))
    n.tag
    Fmt.(list ~sep:comma (pair ~sep:(any "=") pp_loc pp_value))
    n.reads
    Fmt.(list ~sep:comma (pair ~sep:(any "=") pp_loc pp_value))
    n.writes

let pp_history ppf h =
  Fmt.pf ppf "init: %a@."
    Fmt.(list ~sep:comma (pair ~sep:(any "=") pp_loc pp_value))
    h.init;
  List.iter (fun n -> Fmt.pf ppf "  %a@." pp_node n) h.nodes;
  Fmt.pf ppf "final: %a@."
    Fmt.(list ~sep:comma (pair ~sep:(any "=") pp_loc pp_value))
    h.final

let kind_to_string = function Wr -> "wr" | Ww -> "ww" | Rw -> "rw" | Po -> "po"

let pp_edge ppf e =
  Fmt.pf ppf "#%d -%s%a-> #%d" e.src (kind_to_string e.kind)
    (Fmt.option (fun ppf l -> Fmt.pf ppf "(%a)" pp_loc l))
    e.eloc e.dst

let pp_anomaly ppf = function
  | Cycle edges ->
      Fmt.pf ppf "dependency cycle: %a" Fmt.(list ~sep:(any " ") pp_edge) edges
  | Dirty_read { node; rloc; seen } ->
      Fmt.pf ppf "dirty read: node #%d read %a = %a (no committed writer)" node
        pp_loc rloc pp_value seen
  | Final_mismatch { floc; expected; actual } ->
      Fmt.pf ppf "final state mismatch at %a: last committed version %a, heap has %a"
        pp_loc floc
        Fmt.(option ~none:(any "<none>") pp_value)
        expected
        Fmt.(option ~none:(any "<none>") pp_value)
        actual
  | Divergence { dloc; replayed; actual } ->
      Fmt.pf ppf "differential divergence at %a: sequential replay %a, heap has %a"
        pp_loc dloc
        Fmt.(option ~none:(any "<none>") pp_value)
        replayed
        Fmt.(option ~none:(any "<none>") pp_value)
        actual
  | Control_divergence { thread; step; detail } ->
      Fmt.pf ppf "control divergence at T%d.%d: %s" thread step detail
  | Private_clobbered { thread; step; expected; seen } ->
      Fmt.pf ppf
        "privatized object clobbered at T%d.%d: wrote %s non-transactionally, read back %a"
        thread step
        (value_to_string (Vi expected))
        pp_value seen
  | Exec_failure msg -> Fmt.pf ppf "execution failure: %s" msg
  | Lost_update { node; uloc; read_idx; write_idx } ->
      Fmt.pf ppf
        "lost update: node #%d read version %d of %a but installed version %d \
         (a concurrent commit was overwritten)"
        node read_idx pp_loc uloc write_idx
  | Fractured_read { node; floc; first; second } ->
      Fmt.pf ppf "fractured read: node #%d read %a = %a and later %a" node
        pp_loc floc pp_value first pp_value second

let pp_verdict ppf = function
  | Serializable -> Fmt.string ppf "serializable"
  | Inconclusive msg -> Fmt.pf ppf "inconclusive (%s)" msg
  | Anomalous a -> Fmt.pf ppf "ANOMALY: %a" pp_anomaly a

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

open Stm_obs

(* The full match doubles as a compile-time exhaustiveness guard: a new
   anomaly constructor must be given a kind string here (and the
   [test_check] classifier test forces the strings to stay distinct). *)
let anomaly_kind = function
  | Cycle _ -> "cycle"
  | Dirty_read _ -> "dirty-read"
  | Final_mismatch _ -> "final-mismatch"
  | Divergence _ -> "divergence"
  | Control_divergence _ -> "control-divergence"
  | Private_clobbered _ -> "private-clobbered"
  | Exec_failure _ -> "exec-failure"
  | Lost_update _ -> "lost-update"
  | Fractured_read _ -> "fractured-read"

let all_anomaly_kinds =
  [
    "cycle";
    "dirty-read";
    "final-mismatch";
    "divergence";
    "control-divergence";
    "private-clobbered";
    "exec-failure";
    "lost-update";
    "fractured-read";
  ]

(* Which anomalies the snapshot-isolation contract still forbids: a
   history whose only defects are admitted kinds is SI-consistent. *)
let si_forbids = function
  | Dirty_read _ | Final_mismatch _ | Lost_update _ | Fractured_read _
  | Private_clobbered _ | Exec_failure _ ->
      true
  | Cycle _ | Divergence _ | Control_divergence _ -> false

let value_to_json = function
  | Vi n -> Json.Int n
  | Vr b -> Json.Str ("&" ^ box_to_string b)

let opt_value_to_json = function None -> Json.Null | Some v -> value_to_json v

let edge_to_json e =
  Json.Obj
    [
      ("src", Json.Int e.src);
      ("dst", Json.Int e.dst);
      ("kind", Json.Str (kind_to_string e.kind));
      ( "loc",
        match e.eloc with None -> Json.Null | Some l -> Json.Str (loc_to_string l)
      );
    ]

let anomaly_to_json = function
  | Cycle edges ->
      Json.Obj
        [ ("anomaly", Json.Str "cycle"); ("edges", Json.List (List.map edge_to_json edges)) ]
  | Dirty_read { node; rloc; seen } ->
      Json.Obj
        [
          ("anomaly", Json.Str "dirty-read");
          ("node", Json.Int node);
          ("loc", Json.Str (loc_to_string rloc));
          ("seen", value_to_json seen);
        ]
  | Final_mismatch { floc; expected; actual } ->
      Json.Obj
        [
          ("anomaly", Json.Str "final-mismatch");
          ("loc", Json.Str (loc_to_string floc));
          ("expected", opt_value_to_json expected);
          ("actual", opt_value_to_json actual);
        ]
  | Divergence { dloc; replayed; actual } ->
      Json.Obj
        [
          ("anomaly", Json.Str "divergence");
          ("loc", Json.Str (loc_to_string dloc));
          ("replayed", opt_value_to_json replayed);
          ("actual", opt_value_to_json actual);
        ]
  | Control_divergence { thread; step; detail } ->
      Json.Obj
        [
          ("anomaly", Json.Str "control-divergence");
          ("thread", Json.Int thread);
          ("step", Json.Int step);
          ("detail", Json.Str detail);
        ]
  | Private_clobbered { thread; step; expected; seen } ->
      Json.Obj
        [
          ("anomaly", Json.Str "private-clobbered");
          ("thread", Json.Int thread);
          ("step", Json.Int step);
          ("expected", Json.Int expected);
          ("seen", value_to_json seen);
        ]
  | Exec_failure msg ->
      Json.Obj [ ("anomaly", Json.Str "exec-failure"); ("detail", Json.Str msg) ]
  | Lost_update { node; uloc; read_idx; write_idx } ->
      Json.Obj
        [
          ("anomaly", Json.Str "lost-update");
          ("node", Json.Int node);
          ("loc", Json.Str (loc_to_string uloc));
          ("read_idx", Json.Int read_idx);
          ("write_idx", Json.Int write_idx);
        ]
  | Fractured_read { node; floc; first; second } ->
      Json.Obj
        [
          ("anomaly", Json.Str "fractured-read");
          ("node", Json.Int node);
          ("loc", Json.Str (loc_to_string floc));
          ("first", value_to_json first);
          ("second", value_to_json second);
        ]

let verdict_to_json = function
  | Serializable -> Json.Obj [ ("verdict", Json.Str "serializable") ]
  | Inconclusive msg ->
      Json.Obj [ ("verdict", Json.Str "inconclusive"); ("detail", Json.Str msg) ]
  | Anomalous a ->
      Json.Obj [ ("verdict", Json.Str "anomalous"); ("detail", anomaly_to_json a) ]

let verdict_equal a b =
  Json.to_string (verdict_to_json a) = Json.to_string (verdict_to_json b)

let is_anomalous = function Anomalous _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Monomorphic location map                                            *)
(* ------------------------------------------------------------------ *)

let box_equal a b =
  match (a, b) with
  | Slot_box s, Slot_box s' -> s = s'
  | New_box a, New_box b -> a.thread = b.thread && a.step = b.step
  | Slot_box _, New_box _ | New_box _, Slot_box _ -> false

(* without the polymorphic compare *)
let loc_equal a b =
  match (a, b) with
  | Cell i, Cell j | Root i, Root j -> i = j
  | Box_field a, Box_field b -> box_equal a b
  | (Cell _ | Root _ | Box_field _), _ -> false

let value_equal a b =
  match (a, b) with
  | Vi m, Vi n -> m = n
  | Vr a, Vr b -> box_equal a b
  | (Vi _ | Vr _), _ -> false

(* Per-location state of the one-pass checks below is an association
   list scanned with [loc_equal], which costs less than hashing on the
   small histories they run on: [certified] refuses any history larger
   than [certify_limit], and [differential] replays a fuzz program, whose
   locations are its few cells, slots and boxes. *)
let rec find_loc l = function
  | [] -> None
  | (l', x) :: rest -> if loc_equal l l' then Some x else find_loc l rest

let rec written l = function
  | [] -> false
  | (l', _) :: rest -> loc_equal l l' || written l rest

let rec writes_to l = function
  | [] -> false
  | (l', _, w) :: rest -> (w && loc_equal l l') || writes_to l rest

(* Split a node's access list, most recent first, into its reads and
   writes. Writes: the newest write per location, found by walking the
   list and skipping locations already kept. Reads: program order,
   duplicates kept, except that a read of a location an older access
   wrote observes the node's own pending write (undo-log or write-buffer
   semantics), not another node's version, and imposes no inter-node
   dependency. Only reads of written locations scan the older accesses,
   so a node that writes a few locations splits in linear time. Walking
   the list and consing yields program order. *)
let split_accs accs_rev =
  let rec last_writes ws = function
    | [] -> ws
    | (l, v, w) :: older ->
        last_writes (if w && not (written l ws) then (l, v) :: ws else ws) older
  in
  let rec foreign_reads writes rs = function
    | [] -> rs
    | (l, v, w) :: older ->
        let own = w || (written l writes && writes_to l older) in
        foreign_reads writes (if own then rs else (l, v) :: rs) older
  in
  let writes = last_writes [] accs_rev in
  (foreign_reads writes [] accs_rev, writes)

(* ------------------------------------------------------------------ *)
(* Stamp-order certificate                                             *)
(* ------------------------------------------------------------------ *)

(* One pass that proves most histories clean before any graph is built.
   It replays the nodes in stamp order and holds, per location, the
   current value and the earlier ones. Suppose that every read returns
   the value the replay holds when its node runs, that stamps strictly
   ascend, that every written value is new to its location and no node
   writes a location twice, and that the final state agrees with the
   replay. Then each location's version order is the replay order, so
   every ww, wr, rw and po edge points forward in stamp order: the
   conflict graph is acyclic, no read is dirty or fractured, every
   read-modify-write installs the version right after the one it read,
   and each location ends on its last version. [check_graph] and
   [check_si_graph] would both return [None]. Anything else - an anomaly,
   a write skew, or a history that breaks the invariants the exact
   checks assume - falls through to them. *)

(* The replay's scans cost up to the square of the history's size: its
   init and final entries plus every recorded read and write. Larger
   histories skip the certificate and take the graph check directly.
   A fuzz history has fewer than 64; a store history lists every
   preloaded key in [init] and [final]. *)
let certify_limit = 128

let small (h : history) =
  let rec left budget = function
    | [] -> budget
    | nd :: rest ->
        if budget < 0 then budget
        else left (budget - List.length nd.reads - List.length nd.writes) rest
  in
  left (certify_limit - List.length h.init - List.length h.final) h.nodes >= 0

type replay_slot = {
  mutable cur : value;
  mutable older : value list;
  mutable writer : int;  (* id of the node that wrote [cur]; -1 for init *)
}

let certified (h : history) =
  small h
  &&
  let slots = ref [] in
  let add l v writer = slots := (l, { cur = v; older = []; writer }) :: !slots in
  List.iter
    (fun (l, v) -> if Option.is_none (find_loc l !slots) then add l v (-1))
    h.init;
  let holds ~absent (l, v) =
    match find_loc l !slots with Some s -> value_equal s.cur v | None -> absent
  in
  let install id (l, v) =
    match find_loc l !slots with
    | None ->
        add l v id;
        true
    | Some s ->
        s.writer <> id
        && (not (value_equal v s.cur || List.exists (value_equal v) s.older))
        && begin
             s.older <- s.cur :: s.older;
             s.cur <- v;
             s.writer <- id;
             true
           end
  in
  let rec replay i prev_stamp = function
    | [] -> true
    | nd :: rest ->
        assert (nd.id = i);
        nd.stamp > prev_stamp
        && List.for_all (holds ~absent:false) nd.reads
        && List.for_all (install nd.id) nd.writes
        && replay (i + 1) nd.stamp rest
  in
  (* a location nothing wrote and [init] lacks has no version to check *)
  replay 0 min_int h.nodes && List.for_all (holds ~absent:true) h.final

(* ------------------------------------------------------------------ *)
(* Conflict-graph check                                                *)
(* ------------------------------------------------------------------ *)

exception Found of anomaly

(* Per-location lookups in [h.init] / [h.final]: a store history lists
   every preloaded key, where a [List.assoc_opt] per location would be
   quadratic, so each list is indexed once. The first binding wins, as
   with [List.assoc_opt]. *)
let index_assoc (l : (loc * value) list) =
  let tbl = Hashtbl.create (List.length l) in
  List.iter (fun (k, v) -> if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k v) l;
  tbl

(* Version order per location: committed writes sorted by stamp, preceded
   by the initial value when the location has one. Writer id -1 stands
   for "initial state". Also returns the (loc, value) -> version-index
   map; values are unique per location because tokens are unique per
   static occurrence and each occurrence commits at most once. *)
let build_versions (h : history) nodes =
  let writes_by_loc : (loc, (int * int * value) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  Array.iter
    (fun nd ->
      List.iter
        (fun (l, v) ->
          let r =
            match Hashtbl.find_opt writes_by_loc l with
            | Some r -> r
            | None ->
                let r = ref [] in
                Hashtbl.add writes_by_loc l r;
                r
          in
          r := (nd.stamp, nd.id, v) :: !r)
        nd.writes)
    nodes;
  let versions : (loc, (int * value) array) Hashtbl.t = Hashtbl.create 64 in
  let init = index_assoc h.init in
  let add_versions l ws =
    let ws = List.sort (fun (s1, _, _) (s2, _, _) -> compare s1 s2) ws in
    let ws = List.map (fun (_, id, v) -> (id, v)) ws in
    let ws =
      match Hashtbl.find_opt init l with
      | Some iv -> (-1, iv) :: ws
      | None -> ws
    in
    Hashtbl.replace versions l (Array.of_list ws)
  in
  Hashtbl.iter (fun l r -> add_versions l !r) writes_by_loc;
  List.iter
    (fun (l, _) ->
      if not (Hashtbl.mem versions l) then add_versions l [])
    h.init;
  let vindex : (loc * value, int) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun l vs -> Array.iteri (fun i (_, v) -> Hashtbl.replace vindex (l, v) i) vs)
    versions;
  (versions, vindex)

(* Final state: every snapshotted location must hold its last committed
   version (shared by the serializable and snapshot-isolation checks).
   Raises [Found]. *)
let check_final (h : history) versions =
  let final = index_assoc h.final in
  Hashtbl.iter
    (fun l vs ->
      match Hashtbl.find_opt final l with
      | None -> ()  (* location not snapshotted; nothing to check *)
      | Some actual ->
          let expected = snd vs.(Array.length vs - 1) in
          if actual <> expected then
            raise
              (Found
                 (Final_mismatch
                    { floc = l; expected = Some expected; actual = Some actual })))
    versions

let conflict_graph (h : history) : anomaly option =
  let nodes = Array.of_list h.nodes in
  let n = Array.length nodes in
  Array.iteri (fun i nd -> assert (nd.id = i)) nodes;
  let versions, vindex = build_versions h nodes in
  let edges = ref [] in
  let adj = Array.make n [] in
  let add_edge src dst kind eloc =
    if src <> dst && src >= 0 && dst >= 0 then begin
      let e = { src; dst; kind; eloc } in
      edges := e :: !edges;
      adj.(src) <- e :: adj.(src)
    end
  in
  try
    (* ww: consecutive committed versions. *)
    Hashtbl.iter
      (fun l vs ->
        for i = 0 to Array.length vs - 2 do
          add_edge (fst vs.(i)) (fst vs.(i + 1)) Ww (Some l)
        done)
      versions;
    (* wr and rw from each observed read. *)
    Array.iter
      (fun nd ->
        List.iter
          (fun (l, v) ->
            match Hashtbl.find_opt vindex (l, v) with
            | None -> raise (Found (Dirty_read { node = nd.id; rloc = l; seen = v }))
            | Some i ->
                let vs = Hashtbl.find versions l in
                let writer = fst vs.(i) in
                add_edge writer nd.id Wr (Some l);
                if i + 1 < Array.length vs then
                  add_edge nd.id (fst vs.(i + 1)) Rw (Some l))
          nd.reads)
      nodes;
    (* Program order within each logical thread. *)
    let last_of_tid : (int, int) Hashtbl.t = Hashtbl.create 8 in
    Array.iter
      (fun nd ->
        (match Hashtbl.find_opt last_of_tid nd.tid with
        | Some prev -> add_edge prev nd.id Po None
        | None -> ());
        Hashtbl.replace last_of_tid nd.tid nd.id)
      nodes;
    check_final h versions;
    (* Acyclicity. Colors: 0 white, 1 gray, 2 black. *)
    let color = Array.make n 0 in
    let rec dfs path v =
      color.(v) <- 1;
      List.iter
        (fun e ->
          if color.(e.dst) = 1 then begin
            (* Back edge: the cycle is [e] plus the path suffix from
               e.dst back to v. *)
            let rec suffix acc = function
              | [] -> acc
              | e' :: rest ->
                  if e'.src = e.dst then e' :: acc else suffix (e' :: acc) rest
            in
            raise (Found (Cycle (suffix [ e ] path)))
          end
          else if color.(e.dst) = 0 then dfs (e :: path) e.dst)
        adj.(v);
      color.(v) <- 2
    in
    for v = 0 to n - 1 do
      if color.(v) = 0 then dfs [] v
    done;
    None
  with Found a -> Some a

let check_graph h = if certified h then None else conflict_graph h

(* ------------------------------------------------------------------ *)
(* Differential replay                                                 *)
(* ------------------------------------------------------------------ *)

(* Replays the committed nodes in serialization order against a
   sequential reference interpreter of the program, then diffs the
   reference heap against the observed final state. Catches divergences
   the per-location graph check cannot see (e.g. wrong data payloads
   flowing through accumulators). *)

let differential (prog : Prog.t) (h : history) : anomaly option =
  let heap = ref [] in
  let store l v =
    match find_loc l !heap with Some r -> r := v | None -> heap := (l, ref v) :: !heap
  in
  List.iter (fun (l, v) -> store l v) h.init;
  let nthreads = Prog.nthreads prog in
  let accs = Array.make (max 1 nthreads) 0 in
  let priv = Array.make (max 1 nthreads) None in
  let as_int = function Vi n -> n | Vr _ -> 0 in
  let load l = match find_loc l !heap with Some r -> !r | None -> Vi 0 in
  let exception Diverged of anomaly in
  let apply_op thread step idx op =
    match (op : Prog.op) with
    | Prog.Read c -> accs.(thread) <- Prog.combine accs.(thread) (as_int (load (Cell c)))
    | Prog.Write (c, e) ->
        let token = Prog.op_token ~thread ~step ~op:idx in
        store (Cell c) (Vi (Prog.value_of e ~token ~acc:accs.(thread)))
    | Prog.Box_read s -> (
        match load (Root s) with
        | Vr b -> accs.(thread) <- Prog.combine accs.(thread) (as_int (load (Box_field b)))
        | _ -> ())
    | Prog.Box_write s -> (
        match load (Root s) with
        | Vr b ->
            let token = Prog.op_token ~thread ~step ~op:idx in
            store (Box_field b)
              (Vi (Prog.value_of Prog.Tok_acc ~token ~acc:accs.(thread)))
        | _ -> ())
  in
  let step_of thread step =
    match List.nth_opt prog.Prog.threads thread with
    | None -> None
    | Some steps -> List.nth_opt steps step
  in
  let replay_node (nd : node) =
    match nd.tag with
    | None -> ()
    | Some { thread; step; part } -> (
        match (part, step_of thread step) with
        | Body, Some (Prog.Atomic ops) -> List.iteri (apply_op thread step) ops
        | Body, Some (Prog.Plain op) -> apply_op thread step 0 op
        | Body, Some (Prog.Publish s) -> store (Root s) (Vr (New_box { thread; step }))
        | Pub_init, Some (Prog.Publish _) ->
            store
              (Box_field (New_box { thread; step }))
              (Vi (Prog.pub_token ~thread ~step * Prog.token_scale))
        | Body, Some (Prog.Privatize s) -> (
            match load (Root s) with
            | Vr b ->
                store (Root s)
                  (Vi (Prog.tomb_token ~thread ~step * Prog.token_scale));
                priv.(thread) <- Some b
            | _ -> priv.(thread) <- None)
        | Priv_write, Some (Prog.Privatize _) -> (
            match priv.(thread) with
            | Some b ->
                store (Box_field b)
                  (Vi (Prog.priv_token ~thread ~step * Prog.token_scale))
            | None ->
                raise
                  (Diverged
                     (Control_divergence
                        {
                          thread;
                          step;
                          detail =
                            "execution privatized a box but the sequential replay \
                             found the slot already detached";
                        })))
        | Priv_read, Some (Prog.Privatize _) -> (
            match priv.(thread) with
            | Some b ->
                accs.(thread) <- Prog.combine accs.(thread) (as_int (load (Box_field b)))
            | None -> ())
        | _, None ->
            raise
              (Diverged
                 (Control_divergence
                    { thread; step; detail = "node refers to a step outside the program" }))
        | _, Some _ ->
            raise
              (Diverged
                 (Control_divergence
                    { thread; step; detail = "node part does not match the step kind" })))
  in
  try
    List.iter replay_node h.nodes;
    List.iter
      (fun (l, actual) ->
        let replayed = Option.map ( ! ) (find_loc l !heap) in
        let same =
          match replayed with Some r -> r = actual | None -> actual = Vi 0
        in
        if not same then
          raise (Diverged (Divergence { dloc = l; replayed; actual = Some actual })))
      h.final;
    None
  with Diverged a -> Some a

(* ------------------------------------------------------------------ *)
(* Combined verdict                                                    *)
(* ------------------------------------------------------------------ *)

let check prog h =
  match check_graph h with
  | Some a -> Anomalous a
  | None -> (
      match differential prog h with Some a -> Anomalous a | None -> Serializable)

(* ------------------------------------------------------------------ *)
(* Snapshot-isolation certification                                    *)
(* ------------------------------------------------------------------ *)

(* Certify the weaker contract: dirty reads, fractured reads, lost
   updates, and final-state mismatches are rejected; dependency cycles
   are not checked (write skew and long fork are admitted), and there is
   no sequential differential replay (an SI execution need not have
   one). Reads already exclude a node's own-write observations (see
   split_accs), so every recorded read names a foreign version. *)
let si_graph (h : history) : anomaly option =
  let nodes = Array.of_list h.nodes in
  Array.iteri (fun i nd -> assert (nd.id = i)) nodes;
  let versions, vindex = build_versions h nodes in
  try
    Array.iter
      (fun nd ->
        let seen : (loc, value) Hashtbl.t = Hashtbl.create 4 in
        List.iter
          (fun (l, v) ->
            if not (Hashtbl.mem vindex (l, v)) then
              raise (Found (Dirty_read { node = nd.id; rloc = l; seen = v }));
            match Hashtbl.find_opt seen l with
            | Some v0 when v0 <> v ->
                raise
                  (Found
                     (Fractured_read
                        { node = nd.id; floc = l; first = v0; second = v }))
            | Some _ -> ()
            | None -> Hashtbl.add seen l v)
          nd.reads;
        (* first-committer-wins certificate: a read-modify-write must
           install the version directly after the one it read *)
        List.iter
          (fun (l, wv) ->
            match (Hashtbl.find_opt seen l, Hashtbl.find_opt vindex (l, wv)) with
            | Some rv, Some j -> (
                match Hashtbl.find_opt vindex (l, rv) with
                | Some i when j <> i + 1 ->
                    raise
                      (Found
                         (Lost_update
                            { node = nd.id; uloc = l; read_idx = i; write_idx = j }))
                | Some _ | None -> ())
            | _ -> ())
          nd.writes)
      nodes;
    check_final h versions;
    None
  with Found a -> Some a

let check_si_graph h = if certified h then None else si_graph h

let check_si h =
  match check_si_graph h with Some a -> Anomalous a | None -> Serializable

let check_at (isolation : Stm_core.Config.isolation) prog h =
  match isolation with
  | Stm_core.Config.Serializable -> check prog h
  | Stm_core.Config.Snapshot -> check_si h

(* Certify a history at both levels: serializable; failing that,
   SI-consistent-but-not-serializable (the serializable anomaly is the
   witness - for write skew, the rw-cycle); failing both, anomalous with
   the SI-level defect. *)
type certification =
  | Cert_serializable
  | Cert_snapshot_only of anomaly  (* the serializability violation *)
  | Cert_anomalous of anomaly  (* violates snapshot isolation too *)

let certify prog h =
  match check prog h with
  | Serializable | Inconclusive _ -> Cert_serializable
  | Anomalous a -> (
      match check_si_graph h with
      | None -> Cert_snapshot_only a
      | Some si_a -> Cert_anomalous si_a)

let certification_to_string = function
  | Cert_serializable -> "serializable"
  | Cert_snapshot_only _ -> "snapshot-only"
  | Cert_anomalous _ -> "anomalous"
