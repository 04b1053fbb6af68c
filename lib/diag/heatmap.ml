open Stm_core
open Stm_obs

(* Per-granule contention accounting: one counter record per granule in
   an Int_index keyed by oid, so charging one conflict or abort to a
   granule is O(1) and allocates only at the granule's first charge.
   All ranking and site mapping happens at report time. *)

type counters = {
  mutable c_read : int;
  mutable c_write : int;
  mutable c_aborts : int;
  mutable c_wounds : int;
  mutable c_wasted : int;  (* abort latency charged to this granule *)
}

type t = {
  granules : counters Stm_runtime.Int_index.t;
  (* (oid, site) -> conflict count, for mapping hot granules back to the
     source sites that fight over them. Only touched on Conflict events
     (Info level, per contention episode - not per access). *)
  site_counts : (int * int, int ref) Hashtbl.t;
  mutable total_conflicts : int;
}

let no_counters = { c_read = 0; c_write = 0; c_aborts = 0; c_wounds = 0; c_wasted = 0 }

let create () =
  {
    granules = Stm_runtime.Int_index.create no_counters;
    site_counts = Hashtbl.create 64;
    total_conflicts = 0;
  }

(* The granule's counters, created at its first charge. *)
let granule t oid =
  let c = Stm_runtime.Int_index.find t.granules oid in
  if c != no_counters then c
  else begin
    let c = { c_read = 0; c_write = 0; c_aborts = 0; c_wounds = 0; c_wasted = 0 } in
    Stm_runtime.Int_index.replace t.granules oid c;
    c
  end

let bump_site t ~oid ~site =
  match Hashtbl.find_opt t.site_counts (oid, site) with
  | Some r -> incr r
  | None -> Hashtbl.replace t.site_counts (oid, site) (ref 1)

let handle t (ev : Trace.event) =
  match ev with
  | Trace.Conflict { oid; writer; site; _ } ->
      let c = granule t oid in
      if writer then c.c_write <- c.c_write + 1 else c.c_read <- c.c_read + 1;
      t.total_conflicts <- t.total_conflicts + 1;
      bump_site t ~oid ~site
  | Trace.Txn_abort { oid; latency; wounded; _ } when oid >= 0 ->
      let c = granule t oid in
      c.c_aborts <- c.c_aborts + 1;
      if wounded then c.c_wounds <- c.c_wounds + 1;
      c.c_wasted <- c.c_wasted + max 0 latency
  | _ -> ()

type cell = {
  oid : int;
  read_conflicts : int;
  write_conflicts : int;
  aborts : int;
  wounds : int;
  wasted : int;
  sites : (int * int) list;  (* site -> conflict count, hottest first *)
}

let conflicts c = c.read_conflicts + c.write_conflicts

(* Heat ranks granules for the report: every conflict episode and every
   abort attributed to the granule counts once. *)
let heat c = conflicts c + c.aborts

let sites_of t oid =
  Hashtbl.fold
    (fun (o, site) r acc -> if o = oid then (site, !r) :: acc else acc)
    t.site_counts []
  |> List.sort (fun (s1, n1) (s2, n2) ->
         if n1 <> n2 then compare n2 n1 else compare s1 s2)

let cells t =
  Stm_runtime.Int_index.fold
    (fun oid c acc ->
      {
        oid;
        read_conflicts = c.c_read;
        write_conflicts = c.c_write;
        aborts = c.c_aborts;
        wounds = c.c_wounds;
        wasted = c.c_wasted;
        sites = sites_of t oid;
      }
      :: acc)
    t.granules []
  |> List.sort (fun a b ->
         if heat a <> heat b then compare (heat b) (heat a) else compare a.oid b.oid)

let top t ~k = List.filteri (fun i _ -> i < k) (cells t)
let total_conflicts t = t.total_conflicts
let distinct_granules t = Stm_runtime.Int_index.length t.granules

let site_label resolve site =
  if site < 0 then "(api)"
  else
    match resolve site with
    | Some s -> s
    | None -> Printf.sprintf "site %d" site

let cell_json resolve c =
  Json.Obj
    [
      ("oid", Json.Int c.oid);
      ("read_conflicts", Json.Int c.read_conflicts);
      ("write_conflicts", Json.Int c.write_conflicts);
      ("aborts", Json.Int c.aborts);
      ("wounds", Json.Int c.wounds);
      ("wasted_cycles", Json.Int c.wasted);
      ("heat", Json.Int (heat c));
      ( "sites",
        Json.List
          (List.map
             (fun (site, n) ->
               Json.Obj
                 [
                   ("site", Json.Str (site_label resolve site));
                   ("conflicts", Json.Int n);
                 ])
             c.sites) );
    ]

let to_json ?(resolve = fun _ -> None) ?(k = 10) t =
  Json.Obj
    [
      ("total_conflicts", Json.Int t.total_conflicts);
      ("distinct_granules", Json.Int (distinct_granules t));
      ("top", Json.List (List.map (cell_json resolve) (top t ~k)));
    ]

let pp ?(resolve = fun _ -> None) ?(k = 10) ppf t =
  if distinct_granules t = 0 then Fmt.pf ppf "no contention recorded@."
  else begin
    Fmt.pf ppf "contention heatmap: %d conflicts over %d granules@."
      t.total_conflicts (distinct_granules t);
    List.iter
      (fun c ->
        Fmt.pf ppf "  @%-6d heat=%-5d conflicts=%d(r%d/w%d) aborts=%d%s wasted=%d@."
          c.oid (heat c) (conflicts c) c.read_conflicts c.write_conflicts
          c.aborts
          (if c.wounds > 0 then Printf.sprintf " (wounds %d)" c.wounds else "")
          c.wasted;
        match c.sites with
        | [] -> ()
        | sites ->
            Fmt.pf ppf "          sites: %s@."
              (String.concat ", "
                 (List.map
                    (fun (site, n) ->
                      Printf.sprintf "%s x%d" (site_label resolve site) n)
                    sites)))
      (top t ~k)
  end
