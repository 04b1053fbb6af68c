open Stm_core

(* Per-site barrier profile, accumulated from [Trace.Barrier] /
   [Trace.Conflict] events. Emissions in the core sit next to the global
   [Stats] increments, so every column's sum over all sites (plus the
   [-1] "unknown" site for accesses made directly through the Stm API)
   equals the corresponding global counter - [check_against_stats]
   verifies exactly that and the tests run it. *)

type counters = {
  mutable reads : int;  (* non-txn read barriers fired (incl. ordering) *)
  mutable writes : int;  (* non-txn write barriers fired *)
  mutable txn_reads : int;
  mutable txn_writes : int;
  mutable private_hits : int;  (* DEA private fast-path hits *)
  mutable elided : int;  (* accesses at compiler-removed barrier sites *)
  mutable conflicts : int;  (* conflict-manager invocations *)
}

let zero () =
  {
    reads = 0;
    writes = 0;
    txn_reads = 0;
    txn_writes = 0;
    private_hits = 0;
    elided = 0;
    conflicts = 0;
  }

let activity c =
  c.reads + c.writes + c.txn_reads + c.txn_writes + c.private_hits + c.elided
  + c.conflicts

type t = {
  sites : (int, counters) Hashtbl.t;
  threads : (int, counters) Hashtbl.t;
  total : counters;
}

let create () =
  { sites = Hashtbl.create 64; threads = Hashtbl.create 16; total = zero () }

let slot tbl key =
  match Hashtbl.find_opt tbl key with
  | Some c -> c
  | None ->
      let c = zero () in
      Hashtbl.replace tbl key c;
      c

let bump t ~site ~tid f =
  f (slot t.sites site);
  f (slot t.threads tid);
  f t.total

let handle t (ev : Trace.event) =
  match ev with
  | Trace.Barrier { tid; site; op; path } ->
      let f =
        match (path, op) with
        | Trace.Path_private, _ -> fun c -> c.private_hits <- c.private_hits + 1
        | Trace.Path_elided, _ -> fun c -> c.elided <- c.elided + 1
        | Trace.Path_fired, (Trace.Op_read | Trace.Op_read_ordering) ->
            fun c -> c.reads <- c.reads + 1
        | Trace.Path_fired, Trace.Op_write -> fun c -> c.writes <- c.writes + 1
        | Trace.Path_fired, Trace.Op_txn_read ->
            fun c -> c.txn_reads <- c.txn_reads + 1
        | Trace.Path_fired, Trace.Op_txn_write ->
            fun c -> c.txn_writes <- c.txn_writes + 1
      in
      bump t ~site ~tid f
  | Trace.Conflict { tid; site; _ } ->
      bump t ~site ~tid (fun c -> c.conflicts <- c.conflicts + 1)
  | Trace.Txn_begin _ | Trace.Txn_commit _ | Trace.Txn_abort _
  | Trace.Txn_wound _ | Trace.Publish _ | Trace.Quiesce_wait _
  | Trace.Backoff _ | Trace.Validation _ | Trace.Cm_decision _
  | Trace.Access _ | Trace.Txn_serialized _ ->
      ()

let sites t =
  Hashtbl.fold (fun site c acc -> (site, c) :: acc) t.sites []
  |> List.sort (fun (sa, a) (sb, b) ->
         match compare (activity b) (activity a) with
         | 0 -> compare sa sb
         | n -> n)

let threads t =
  Hashtbl.fold (fun tid c acc -> (tid, c) :: acc) t.threads []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let total t = t.total

(* Column sums vs the run's global Stats. Returns mismatching
   (column, profiled, stats) triples; [] means the profile accounts for
   every counted barrier action. *)
let check_against_stats t (stats : Stats.t) =
  let checks =
    [
      ("reads", t.total.reads, stats.Stats.barrier_reads);
      ("writes", t.total.writes, stats.Stats.barrier_writes);
      ("txn_reads", t.total.txn_reads, stats.Stats.txn_reads);
      ("txn_writes", t.total.txn_writes, stats.Stats.txn_writes);
      ("private_hits", t.total.private_hits, stats.Stats.barrier_private_hits);
      ("conflicts", t.total.conflicts, stats.Stats.conflicts);
    ]
  in
  List.filter (fun (_, a, b) -> a <> b) checks

let default_resolve site = if site < 0 then Some "(api)" else None

let site_label resolve site =
  match resolve site with
  | Some s -> s
  | None -> ( match default_resolve site with
    | Some s -> s
    | None -> Printf.sprintf "site %d" site)

let pp ?(resolve = fun _ -> None) ?(limit = max_int) ppf t =
  let rows = sites t in
  Fmt.pf ppf "%-36s %10s %10s %10s %10s %8s %8s %8s@." "site" "reads"
    "writes" "txn-rd" "txn-wr" "private" "elided" "confl";
  List.iteri
    (fun i (site, c) ->
      if i < limit then
        Fmt.pf ppf "%-36s %10d %10d %10d %10d %8d %8d %8d@."
          (site_label resolve site) c.reads c.writes c.txn_reads c.txn_writes
          c.private_hits c.elided c.conflicts)
    rows;
  let tot = t.total in
  Fmt.pf ppf "%-36s %10d %10d %10d %10d %8d %8d %8d@." "TOTAL" tot.reads
    tot.writes tot.txn_reads tot.txn_writes tot.private_hits tot.elided
    tot.conflicts
