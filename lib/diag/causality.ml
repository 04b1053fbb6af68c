open Stm_core
open Stm_obs

(* Abort-causality graph: who killed whom, over what, and under which
   policy decision. Nodes are simulated threads; an edge victim -> aggr
   aggregates every abort of a transaction on [victim] attributed to a
   transaction on [aggr]. Abort records are also kept per txid so that
   kill chains (A aborted by B, B in turn aborted by C, ...) can be
   reconstructed - the cascades that turn one hot granule into a
   run-wide livelock. *)

type edge = {
  victim_tid : int;
  aggr_tid : int;  (* -1: aggressor thread unknown *)
  mutable count : int;
  mutable wasted : int;  (* victim cycles thrown away across these aborts *)
  mutable oids : (int * int) list;  (* granule -> count *)
  mutable causes : (Trace.abort_cause * int) list;
  mutable decisions : (string * int) list;
      (* CM decision in force on the victim at abort time *)
}

(* One abort occurrence, kept per victim txid for chain-walking. *)
type abort_rec = {
  a_txid : int;
  a_tid : int;
  a_by : int;  (* aggressor txid, -1 unknown *)
  a_by_tid : int;
  a_oid : int;
  a_cause : Trace.abort_cause;
  a_wasted : int;
  a_order : int;  (* arrival index; chains run backwards in time *)
}

type tstat = {
  mutable commits : int;
  mutable aborts : int;
  mutable self_wasted : int;  (* cycles this thread lost to aborts *)
  mutable caused : int;  (* aborts this thread inflicted on others *)
  mutable caused_wasted : int;  (* cycles it cost other threads *)
}

type t = {
  edges : (int * int, edge) Hashtbl.t;
  aborts_of : (int, abort_rec) Hashtbl.t;  (* victim txid -> last abort *)
  last_decision : (int, string) Hashtbl.t;  (* txid -> last CM decision *)
  threads : (int, tstat) Hashtbl.t;
  mutable nseen : int;  (* abort arrival counter *)
}

let create () =
  {
    edges = Hashtbl.create 32;
    aborts_of = Hashtbl.create 256;
    last_decision = Hashtbl.create 64;
    threads = Hashtbl.create 16;
    nseen = 0;
  }

let tstat t tid =
  match Hashtbl.find_opt t.threads tid with
  | Some s -> s
  | None ->
      let s =
        { commits = 0; aborts = 0; self_wasted = 0; caused = 0; caused_wasted = 0 }
      in
      Hashtbl.replace t.threads tid s;
      s

let bump assoc key =
  let rec go = function
    | [] -> [ (key, 1) ]
    | (k, n) :: rest when k = key -> (k, n + 1) :: rest
    | kv :: rest -> kv :: go rest
  in
  go assoc

let edge t ~victim_tid ~aggr_tid =
  let key = (victim_tid, aggr_tid) in
  match Hashtbl.find_opt t.edges key with
  | Some e -> e
  | None ->
      let e =
        {
          victim_tid;
          aggr_tid;
          count = 0;
          wasted = 0;
          oids = [];
          causes = [];
          decisions = [];
        }
      in
      Hashtbl.replace t.edges key e;
      e

let handle t (ev : Trace.event) =
  match ev with
  | Trace.Txn_commit { tid; _ } -> (tstat t tid).commits <- (tstat t tid).commits + 1
  | Trace.Cm_decision { txid; decision; _ } ->
      Hashtbl.replace t.last_decision txid decision
  | Trace.Txn_abort { txid; tid; cause; latency; by; by_tid; oid; _ } ->
      let wasted = max 0 latency in
      t.nseen <- t.nseen + 1;
      let vs = tstat t tid in
      vs.aborts <- vs.aborts + 1;
      vs.self_wasted <- vs.self_wasted + wasted;
      if by_tid >= 0 then begin
        let a = tstat t by_tid in
        a.caused <- a.caused + 1;
        a.caused_wasted <- a.caused_wasted + wasted
      end;
      (* every attributed abort contributes an edge; fully unattributed
         (retry/exn) aborts only feed the per-thread stats *)
      if by >= 0 || oid >= 0 then begin
        let e = edge t ~victim_tid:tid ~aggr_tid:by_tid in
        e.count <- e.count + 1;
        e.wasted <- e.wasted + wasted;
        if oid >= 0 then e.oids <- bump e.oids oid;
        e.causes <- bump e.causes cause;
        match Hashtbl.find_opt t.last_decision txid with
        | Some d -> e.decisions <- bump e.decisions d
        | None -> ()
      end;
      Hashtbl.replace t.aborts_of txid
        {
          a_txid = txid;
          a_tid = tid;
          a_by = by;
          a_by_tid = by_tid;
          a_oid = oid;
          a_cause = cause;
          a_wasted = wasted;
          a_order = t.nseen;
        };
      Hashtbl.remove t.last_decision txid
  | _ -> ()

let sort_desc keyf l =
  List.sort
    (fun a b ->
      let ka = keyf a and kb = keyf b in
      if ka <> kb then compare kb ka else compare a b)
    l

let edges t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.edges []
  |> List.sort (fun a b ->
         if a.count <> b.count then compare b.count a.count
         else compare (a.victim_tid, a.aggr_tid) (b.victim_tid, b.aggr_tid))

let total_attributed t =
  Hashtbl.fold (fun _ e acc -> acc + e.count) t.edges 0

(* A kill chain starting at [txid]: the victim, then the transaction that
   killed it, then that one's own killer, and so on. Each hop must have
   aborted no later than its victim's abort was recorded (the aggressor's
   death already stood when we learned of the victim's), and a txid is
   never revisited. *)
let chain_of t txid =
  let rec go seen order txid =
    if List.mem txid seen then []
    else
      match Hashtbl.find_opt t.aborts_of txid with
      | Some a when a.a_order <= order ->
          a :: go (txid :: seen) a.a_order a.a_by
      | _ -> []
  in
  go [] max_int txid

(* A chain has at least one victim <- aggressor hop where both died. *)
let chain_min_len = 2

let chains t =
  (* txids that appear as someone's aggressor are interior nodes; chains
     are rooted at victims nobody else points to, so each maximal chain
     is reported once. *)
  let interior = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ a -> if a.a_by >= 0 then Hashtbl.replace interior a.a_by ())
    t.aborts_of;
  Hashtbl.fold
    (fun txid _ acc ->
      if Hashtbl.mem interior txid then acc
      else
        let c = chain_of t txid in
        if List.length c >= chain_min_len then c :: acc else acc)
    t.aborts_of []
  |> sort_desc List.length

let thread_stats t =
  Hashtbl.fold (fun tid s acc -> (tid, s) :: acc) t.threads []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let wasted_of t ~tid =
  match Hashtbl.find_opt t.threads tid with
  | Some s -> s.self_wasted
  | None -> 0

let total_wasted t =
  Hashtbl.fold (fun _ s acc -> acc + s.self_wasted) t.threads 0

(* The thread with the worst abort/commit imbalance: most aborts, ties
   broken toward fewer commits then more wasted cycles. *)
let most_starved t =
  Hashtbl.fold
    (fun tid s acc ->
      match acc with
      | None -> Some (tid, s)
      | Some (_, best)
        when s.aborts > best.aborts
             || (s.aborts = best.aborts && s.commits < best.commits)
             || (s.aborts = best.aborts && s.commits = best.commits
                && s.self_wasted > best.self_wasted) ->
          Some (tid, s)
      | Some _ -> acc)
    t.threads None

let top_aggressor t =
  Hashtbl.fold
    (fun tid s acc ->
      match acc with
      | None when s.caused > 0 -> Some (tid, s)
      | Some (_, best) when s.caused > best.caused -> Some (tid, s)
      | _ -> acc)
    t.threads None

let edge_json e =
  Json.Obj
    [
      ("victim_tid", Json.Int e.victim_tid);
      ("aggr_tid", Json.Int e.aggr_tid);
      ("count", Json.Int e.count);
      ("wasted_cycles", Json.Int e.wasted);
      ( "oids",
        Json.Obj (List.map (fun (o, n) -> (string_of_int o, Json.Int n)) e.oids)
      );
      ( "causes",
        Json.Obj
          (List.map
             (fun (c, n) -> (Trace.string_of_cause c, Json.Int n))
             e.causes) );
      ( "decisions",
        Json.Obj (List.map (fun (d, n) -> (d, Json.Int n)) e.decisions) );
    ]

let chain_json c =
  Json.List
    (List.map
       (fun a ->
         Json.Obj
           [
             ("txid", Json.Int a.a_txid);
             ("tid", Json.Int a.a_tid);
             ("by", Json.Int a.a_by);
             ("oid", Json.Int a.a_oid);
             ("cause", Json.Str (Trace.string_of_cause a.a_cause));
             ("wasted", Json.Int a.a_wasted);
           ])
       c)

let to_json t =
  let threads =
    List.map
      (fun (tid, s) ->
        ( string_of_int tid,
          Json.Obj
            [
              ("commits", Json.Int s.commits);
              ("aborts", Json.Int s.aborts);
              ("wasted_cycles", Json.Int s.self_wasted);
              ("caused_aborts", Json.Int s.caused);
              ("caused_wasted_cycles", Json.Int s.caused_wasted);
            ] ))
      (thread_stats t)
  in
  let chains_ = List.filteri (fun i _ -> i < 5) (chains t) in
  Json.Obj
    [
      ("edges", Json.List (List.map edge_json (edges t)));
      ("threads", Json.Obj threads);
      ("chains", Json.List (List.map chain_json chains_));
    ]

let pp_tid ppf tid =
  if tid < 0 then Fmt.string ppf "?" else Fmt.pf ppf "t%d" tid

let pp ppf t =
  let es = edges t in
  if es = [] then Fmt.pf ppf "no attributed aborts@."
  else begin
    Fmt.pf ppf "abort causality (%d attributed aborts):@." (total_attributed t);
    List.iter
      (fun e ->
        let oids =
          String.concat ","
            (List.map (fun (o, n) -> Printf.sprintf "@%d x%d" o n) e.oids)
        in
        let causes =
          String.concat ","
            (List.map
               (fun (c, n) ->
                 Printf.sprintf "%s x%d" (Trace.string_of_cause c) n)
               e.causes)
        in
        let dec =
          match e.decisions with
          | [] -> ""
          | ds ->
              Printf.sprintf " cm=[%s]"
                (String.concat ","
                   (List.map (fun (d, n) -> Printf.sprintf "%s x%d" d n) ds))
        in
        Fmt.pf ppf "  %a <- %a  x%-4d on %s (%s)%s wasted=%d@." pp_tid
          e.victim_tid pp_tid e.aggr_tid e.count
          (if oids = "" then "?" else oids)
          causes dec e.wasted)
      es;
    (match chains t with
    | [] -> ()
    | cs ->
        Fmt.pf ppf "kill chains:@.";
        List.iteri
          (fun i c ->
            if i < 3 then
              Fmt.pf ppf "  %s@."
                (String.concat " <- "
                   (List.map
                      (fun a ->
                        Printf.sprintf "txn %d(t%d%s)" a.a_txid a.a_tid
                          (if a.a_oid >= 0 then Printf.sprintf ",@%d" a.a_oid
                           else ""))
                      c)))
          cs)
  end
