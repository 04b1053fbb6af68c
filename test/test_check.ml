(* Unit tests for the stm_check fuzzing stack: the serializability
   oracle on hand-built histories, the shrinker, the generator, the
   repro (de)serialization, replay determinism, and the quiescence
   publish/privatize regression. *)

open Stm_check

(* ------------------------------------------------------------------ *)
(* Hand-built histories for the graph oracle                           *)
(* ------------------------------------------------------------------ *)

let node ?(txn = true) ~id ~tid ~stamp ~reads ~writes () =
  { History.id; tid; txn; stamp; tag = None; reads; writes }

let cell i = History.Cell i

let vi n = History.Vi n

let check_anomaly = Alcotest.(check bool)

let test_graph_serializable () =
  (* T0 writes c0; T1 reads that write and overwrites it: a clean
     wr-chain, final state is the last version. *)
  let h =
    {
      History.init = [ (cell 0, vi 0) ];
      nodes =
        [
          node ~id:0 ~tid:0 ~stamp:0
            ~reads:[ (cell 0, vi 0) ]
            ~writes:[ (cell 0, vi 10) ]
            ();
          node ~id:1 ~tid:1 ~stamp:1
            ~reads:[ (cell 0, vi 10) ]
            ~writes:[ (cell 0, vi 20) ]
            ();
        ];
      final = [ (cell 0, vi 20) ];
    }
  in
  check_anomaly "wr chain accepted" true (History.check_graph h = None)

(* Write skew: each transaction reads the initial value of the cell the
   other one writes. Both rw edges point opposite ways - the canonical
   serializable/SI separator, shared by the graph and SI tests below. *)
let write_skew_history =
  {
    History.init = [ (cell 0, vi 0); (cell 1, vi 0) ];
    nodes =
      [
        node ~id:0 ~tid:0 ~stamp:0
          ~reads:[ (cell 0, vi 0) ]
          ~writes:[ (cell 1, vi 10) ]
          ();
        node ~id:1 ~tid:1 ~stamp:1
          ~reads:[ (cell 1, vi 0) ]
          ~writes:[ (cell 0, vi 20) ]
          ();
      ];
    final = [ (cell 0, vi 20); (cell 1, vi 10) ];
  }

let test_graph_rw_cycle () =
  let h = write_skew_history in
  match History.check_graph h with
  | Some (History.Cycle edges) ->
      Alcotest.(check bool) "cycle has >= 2 edges" true (List.length edges >= 2)
  | other ->
      Alcotest.failf "expected rw cycle, got %a"
        Fmt.(option History.pp_anomaly)
        other

let test_graph_wr_cycle () =
  (* Each transaction reads the other's write: wr edges both ways. *)
  let h =
    {
      History.init = [ (cell 0, vi 0); (cell 1, vi 0) ];
      nodes =
        [
          node ~id:0 ~tid:0 ~stamp:0
            ~reads:[ (cell 1, vi 21) ]
            ~writes:[ (cell 0, vi 10) ]
            ();
          node ~id:1 ~tid:1 ~stamp:1
            ~reads:[ (cell 0, vi 10) ]
            ~writes:[ (cell 1, vi 21) ]
            ();
        ];
      final = [ (cell 0, vi 10); (cell 1, vi 21) ];
    }
  in
  check_anomaly "wr cycle rejected" true
    (match History.check_graph h with Some (History.Cycle _) -> true | _ -> false)

let test_graph_lost_update () =
  (* Both transactions read the initial value and write: ww orders them
     but the later one's read points back - the classic lost update. *)
  let h =
    {
      History.init = [ (cell 0, vi 0) ];
      nodes =
        [
          node ~id:0 ~tid:0 ~stamp:0
            ~reads:[ (cell 0, vi 0) ]
            ~writes:[ (cell 0, vi 10) ]
            ();
          node ~id:1 ~tid:1 ~stamp:1
            ~reads:[ (cell 0, vi 0) ]
            ~writes:[ (cell 0, vi 20) ]
            ();
        ];
      final = [ (cell 0, vi 20) ];
    }
  in
  check_anomaly "lost update rejected" true
    (match History.check_graph h with Some (History.Cycle _) -> true | _ -> false)

let test_graph_dirty_read () =
  let h =
    {
      History.init = [ (cell 0, vi 0) ];
      nodes =
        [ node ~id:0 ~tid:0 ~stamp:0 ~reads:[ (cell 0, vi 999) ] ~writes:[] () ];
      final = [ (cell 0, vi 0) ];
    }
  in
  check_anomaly "dirty read detected" true
    (match History.check_graph h with
    | Some (History.Dirty_read { seen = History.Vi 999; _ }) -> true
    | _ -> false)

let test_graph_final_mismatch () =
  (* The only committed write never reached the heap (a lost
     non-transactional overwrite would look like this). *)
  let h =
    {
      History.init = [ (cell 0, vi 0) ];
      nodes = [ node ~id:0 ~tid:0 ~stamp:0 ~reads:[] ~writes:[ (cell 0, vi 10) ] () ];
      final = [ (cell 0, vi 0) ];
    }
  in
  check_anomaly "final mismatch detected" true
    (match History.check_graph h with
    | Some (History.Final_mismatch _) -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Snapshot-isolation certifier on hand-built histories                *)
(* ------------------------------------------------------------------ *)

(* The differential replay inside [certify] only runs once the graph
   check passes; the hand-built anomalous histories never reach it, so
   an empty program is enough. *)
let dummy_prog = { Prog.ncells = 2; nslots = 0; threads = [] }

let lost_update_history =
  (* Both transactions read version 0 of c0; the second installs version
     2 - the first committer's update is silently overwritten. *)
  {
    History.init = [ (cell 0, vi 0) ];
    nodes =
      [
        node ~id:0 ~tid:0 ~stamp:0
          ~reads:[ (cell 0, vi 0) ]
          ~writes:[ (cell 0, vi 10) ]
          ();
        node ~id:1 ~tid:1 ~stamp:1
          ~reads:[ (cell 0, vi 0) ]
          ~writes:[ (cell 0, vi 20) ]
          ();
      ];
    final = [ (cell 0, vi 20) ];
  }

let long_fork_history =
  (* Two independent writers; each reader sees exactly one of the two
     writes - the forked observers agree on no single prefix, but every
     individual snapshot is causally consistent. *)
  {
    History.init = [ (cell 0, vi 0); (cell 1, vi 0) ];
    nodes =
      [
        node ~id:0 ~tid:0 ~stamp:0 ~reads:[] ~writes:[ (cell 0, vi 10) ] ();
        node ~id:1 ~tid:1 ~stamp:1
          ~reads:[ (cell 0, vi 10); (cell 1, vi 0) ]
          ~writes:[] ();
        node ~id:2 ~tid:2 ~stamp:2 ~reads:[] ~writes:[ (cell 1, vi 20) ] ();
        node ~id:3 ~tid:3 ~stamp:3
          ~reads:[ (cell 1, vi 20); (cell 0, vi 0) ]
          ~writes:[] ();
      ];
    final = [ (cell 0, vi 10); (cell 1, vi 20) ];
  }

let dirty_read_history =
  {
    History.init = [ (cell 0, vi 0) ];
    nodes =
      [ node ~id:0 ~tid:0 ~stamp:0 ~reads:[ (cell 0, vi 999) ] ~writes:[] () ];
    final = [ (cell 0, vi 0) ];
  }

let test_si_admits_write_skew () =
  check_anomaly "write skew passes SI" true
    (History.check_si_graph write_skew_history = None);
  check_anomaly "write skew fails serializability" true
    (History.check_graph write_skew_history <> None)

let test_si_admits_long_fork () =
  check_anomaly "long fork passes SI" true
    (History.check_si_graph long_fork_history = None);
  check_anomaly "long fork fails serializability" true
    (match History.check_graph long_fork_history with
    | Some (History.Cycle _) -> true
    | _ -> false)

let test_si_rejects_lost_update () =
  check_anomaly "lost update rejected under SI" true
    (match History.check_si_graph lost_update_history with
    | Some (History.Lost_update { read_idx = 0; write_idx = 2; _ }) -> true
    | _ -> false)

let test_si_rejects_dirty_read () =
  check_anomaly "dirty read rejected under SI" true
    (match History.check_si_graph dirty_read_history with
    | Some (History.Dirty_read _) -> true
    | _ -> false)

let test_si_rejects_fractured_read () =
  (* One transaction observes two committed versions of c0: no snapshot
     contains both. *)
  let h =
    {
      History.init = [ (cell 0, vi 0) ];
      nodes =
        [
          node ~id:0 ~tid:0 ~stamp:0 ~reads:[] ~writes:[ (cell 0, vi 10) ] ();
          node ~id:1 ~tid:1 ~stamp:1
            ~reads:[ (cell 0, vi 0); (cell 0, vi 10) ]
            ~writes:[] ();
        ];
      final = [ (cell 0, vi 10) ];
    }
  in
  check_anomaly "fractured read rejected under SI" true
    (match History.check_si_graph h with
    | Some (History.Fractured_read _) -> true
    | _ -> false)

let test_certify_levels () =
  (match History.certify dummy_prog write_skew_history with
  | History.Cert_snapshot_only (History.Cycle _) -> ()
  | c ->
      Alcotest.failf "write skew certified %s"
        (History.certification_to_string c));
  (match History.certify dummy_prog lost_update_history with
  | History.Cert_anomalous (History.Lost_update _) -> ()
  | c ->
      Alcotest.failf "lost update certified %s"
        (History.certification_to_string c));
  match History.certify dummy_prog dirty_read_history with
  | History.Cert_anomalous (History.Dirty_read _) -> ()
  | c ->
      Alcotest.failf "dirty read certified %s"
        (History.certification_to_string c)

(* One witness per anomaly constructor: adding a constructor without
   extending this list (and [all_anomaly_kinds]) fails the test, so the
   classifier can never silently lag the type. *)
let anomaly_witnesses =
  [
    History.Cycle [];
    History.Dirty_read { node = 0; rloc = cell 0; seen = vi 1 };
    History.Final_mismatch { floc = cell 0; expected = None; actual = None };
    History.Divergence { dloc = cell 0; replayed = None; actual = None };
    History.Control_divergence { thread = 0; step = 0; detail = "" };
    History.Private_clobbered { thread = 0; step = 0; expected = 1; seen = vi 0 };
    History.Exec_failure "boom";
    History.Lost_update { node = 0; uloc = cell 0; read_idx = 0; write_idx = 2 };
    History.Fractured_read { node = 0; floc = cell 0; first = vi 0; second = vi 1 };
  ]

let test_anomaly_kinds_exhaustive () =
  let kinds = List.map History.anomaly_kind anomaly_witnesses in
  Alcotest.(check (list string))
    "every kind witnessed, no duplicates, order stable"
    History.all_anomaly_kinds kinds;
  Alcotest.(check int)
    "kinds distinct"
    (List.length kinds)
    (List.length (List.sort_uniq compare kinds))

let test_si_forbids_partition () =
  let forbidden =
    List.filter History.si_forbids anomaly_witnesses
    |> List.map History.anomaly_kind
  in
  Alcotest.(check (list string))
    "SI forbids exactly the single-snapshot violations"
    [
      "dirty-read";
      "final-mismatch";
      "private-clobbered";
      "exec-failure";
      "lost-update";
      "fractured-read";
    ]
    forbidden

(* ------------------------------------------------------------------ *)
(* Stamp-order certificate against the graph checks it fronts          *)
(* ------------------------------------------------------------------ *)

(* Reference: the graph checks as they were before the certificate was
   put in front of them, kept verbatim. The certificate may only skip
   work; it must never change a verdict or a witness. *)
module Reference = struct
  open History

  exception Found of anomaly

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
    let add_versions l ws =
      let ws = List.sort (fun (s1, _, _) (s2, _, _) -> compare s1 s2) ws in
      let ws = List.map (fun (_, id, v) -> (id, v)) ws in
      let ws =
        match List.assoc_opt l h.init with
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

  let check_final (h : history) versions =
    Hashtbl.iter
      (fun l vs ->
        match List.assoc_opt l h.final with
        | None -> ()
        | Some actual ->
            let expected = snd vs.(Array.length vs - 1) in
            if actual <> expected then
              raise
                (Found
                   (Final_mismatch
                      { floc = l; expected = Some expected; actual = Some actual })))
      versions

  let check_graph (h : history) : anomaly option =
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
      Hashtbl.iter
        (fun l vs ->
          for i = 0 to Array.length vs - 2 do
            add_edge (fst vs.(i)) (fst vs.(i + 1)) Ww (Some l)
          done)
        versions;
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
      let last_of_tid : (int, int) Hashtbl.t = Hashtbl.create 8 in
      Array.iter
        (fun nd ->
          (match Hashtbl.find_opt last_of_tid nd.tid with
          | Some prev -> add_edge prev nd.id Po None
          | None -> ());
          Hashtbl.replace last_of_tid nd.tid nd.id)
        nodes;
      check_final h versions;
      let color = Array.make n 0 in
      let rec dfs path v =
        color.(v) <- 1;
        List.iter
          (fun e ->
            if color.(e.dst) = 1 then begin
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

  let check_si_graph (h : history) : anomaly option =
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

  let check prog h =
    match check_graph h with
    | Some a -> Anomalous a
    | None -> (
        match differential prog h with Some a -> Anomalous a | None -> Serializable)

  let check_si h =
    match check_si_graph h with Some a -> Anomalous a | None -> Serializable

  let check_at (isolation : Stm_core.Config.isolation) prog h =
    match isolation with
    | Stm_core.Config.Serializable -> check prog h
    | Stm_core.Config.Snapshot -> check_si h
end

(* Locations of every shape, so [History.loc_equal] compares each
   constructor. A history uses at most three of them. *)
let loc_pool =
  [|
    History.Cell 0;
    History.Cell 1;
    History.Root 0;
    History.Box_field (History.Slot_box 0);
    History.Box_field (History.New_box { thread = 1; step = 2 });
  |]

(* A history of at most 8 nodes over at most 3 locations. It starts as
   a serial replay (every read sees the latest write, every write installs
   a fresh value, the final state is the replay's) and then takes up to
   three defects: stale, future, dirty, fractured and own-write reads,
   wrong final values, repeated or reordered stamps, repeated values,
   double writes, dropped writes and a location listed twice in the
   initial state. A stale read makes a lost update or a write skew, a
   future read a wr cycle. *)
let gen_history st =
  let int n = Random.State.int st n in
  let pick l = List.nth l (int (List.length l)) in
  let pool = Array.copy loc_pool in
  for i = Array.length pool - 1 downto 1 do
    let j = int (i + 1) in
    let t = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- t
  done;
  let locs = Array.to_list (Array.sub pool 0 (1 + int 3)) in
  let initial = function
    | History.Root s -> History.Vr (History.Slot_box s)
    | History.Cell _ | History.Box_field _ -> vi 0
  in
  let init = List.filter_map (fun l -> if int 4 = 0 then None else Some (l, initial l)) locs in
  let cur = Hashtbl.create 8 in
  List.iter (fun (l, v) -> Hashtbl.replace cur l v) init;
  let installed = ref init in
  let counter = ref 100 in
  let fresh () =
    incr counter;
    if int 4 = 0 then History.Vr (History.New_box { thread = !counter; step = 0 })
    else vi !counter
  in
  let nodes =
    Array.init (int 9) (fun i ->
        let reads =
          List.filter_map
            (fun l -> Option.map (fun v -> (l, v)) (Hashtbl.find_opt cur l))
            (List.init (int 4) (fun _ -> pick locs))
        in
        let writes = List.filter_map (fun l -> if int 2 = 0 then Some (l, fresh ()) else None) locs in
        List.iter
          (fun (l, v) ->
            Hashtbl.replace cur l v;
            installed := (l, v) :: !installed)
          writes;
        node ~txn:(int 4 > 0) ~id:i ~tid:(int 3) ~stamp:(2 * i) ~reads ~writes ())
  in
  let final =
    List.filter_map
      (fun l ->
        if int 8 = 0 then None
        else Some (l, Option.value (Hashtbl.find_opt cur l) ~default:(vi 0)))
      locs
  in
  let init = ref init and final = ref final in
  let n = Array.length nodes in
  let some_value l =
    match List.filter_map (fun (l', v) -> if l' = l then Some v else None) !installed with
    | [] -> vi 999
    | vs -> if int 5 = 0 then vi 999 else pick vs
  in
  let replace_nth k x l = List.mapi (fun i y -> if i = k then x else y) l in
  let mutate () =
    if n > 0 then begin
      let i = int n in
      let nd = nodes.(i) in
      match int 10 with
      | 0 when nd.History.reads <> [] ->
          (* stale, future or dirty read *)
          let k = int (List.length nd.reads) in
          let l, _ = List.nth nd.reads k in
          nodes.(i) <- { nd with reads = replace_nth k (l, some_value l) nd.reads }
      | 1 ->
          (* fractured read *)
          let l = pick locs in
          nodes.(i) <- { nd with reads = nd.reads @ [ (l, some_value l) ] }
      | 2 when !final <> [] ->
          (* a wrong final value *)
          let k = int (List.length !final) in
          let l, _ = List.nth !final k in
          final := replace_nth k (l, some_value l) !final
      | 3 when i > 0 ->
          (* a repeated stamp *)
          nodes.(i) <- { nd with stamp = nodes.(i - 1).History.stamp }
      | 4 ->
          (* two nodes' stamps swapped *)
          let j = int n in
          nodes.(i) <- { nd with stamp = nodes.(j).History.stamp };
          nodes.(j) <- { (nodes.(j)) with stamp = nd.stamp }
      | 5 when nd.writes <> [] ->
          (* a repeated value *)
          let k = int (List.length nd.writes) in
          let l, _ = List.nth nd.writes k in
          nodes.(i) <- { nd with writes = replace_nth k (l, some_value l) nd.writes }
      | 6 when nd.writes <> [] ->
          (* two writes to one location *)
          nodes.(i) <- { nd with writes = nd.writes @ [ (fst (pick nd.writes), fresh ()) ] }
      | 7 when nd.writes <> [] ->
          (* a read of the node's own write *)
          nodes.(i) <- { nd with reads = nd.reads @ [ pick nd.writes ] }
      | 8 when nd.writes <> [] ->
          (* a dropped write: its readers now read dirty *)
          nodes.(i) <- { nd with writes = List.tl nd.writes }
      | 9 when !init <> [] ->
          (* a location listed twice in the initial state *)
          let l, _ = pick !init in
          let dup = (l, some_value l) in
          init := if int 2 = 0 then dup :: !init else !init @ [ dup ]
      | _ -> ()
    end
  in
  for _ = 1 to int 4 do
    mutate ()
  done;
  { History.init = !init; nodes = Array.to_list nodes; final = !final }

let history_arb =
  QCheck.make ~print:(Fmt.to_to_string History.pp_history) gen_history

let verdict_json v = Stm_obs.Json.to_string (History.verdict_to_json v)

(* Reference: the read/write split as the store oracle had it, with two
   hash tables. Reads in program order minus those of a location already
   written; writes the last per location, in the order of those writes. *)
let reference_split_accs accs_rev =
  let own = Hashtbl.create 8 in
  let reads =
    List.rev accs_rev
    |> List.filter_map (fun (l, v, w) ->
           if w then begin
             Hashtbl.replace own l ();
             None
           end
           else if Hashtbl.mem own l then None
           else Some (l, v))
  in
  let seen = Hashtbl.create 8 in
  let writes =
    List.fold_left
      (fun acc (l, v, w) ->
        if w && not (Hashtbl.mem seen l) then begin
          Hashtbl.add seen l ();
          (l, v) :: acc
        end
        else acc)
      [] accs_rev
  in
  (reads, writes)

(* Up to 20 accesses, most recent first, over every location shape. *)
let accs_arb =
  let gen st =
    List.init (Random.State.int st 21) (fun _ ->
        ( loc_pool.(Random.State.int st (Array.length loc_pool)),
          vi (Random.State.int st 4),
          Random.State.bool st ))
  in
  let print accs =
    String.concat "; "
      (List.map
         (fun (l, v, w) ->
           Fmt.str "%s %a=%a" (if w then "w" else "r") History.pp_loc l History.pp_value v)
         accs)
  in
  QCheck.make ~print gen

let certificate_qcheck =
  let open QCheck in
  [
    Test.make ~name:"certificate: verdicts = reference at both levels" ~count:3000
      history_arb (fun h ->
        List.for_all
          (fun level ->
            let got = History.check_at level dummy_prog h
            and want = Reference.check_at level dummy_prog h in
            got = want && verdict_json got = verdict_json want)
          [ Stm_core.Config.Serializable; Stm_core.Config.Snapshot ]
        && History.check_graph h = Reference.check_graph h
        && History.check_si_graph h = Reference.check_si_graph h
        (* and the certificate accepts only what the reference passes *)
        && ((not (History.certified h))
           || (Reference.check_graph h = None && Reference.check_si_graph h = None)));
    Test.make ~name:"split_accs: = table-based reference" ~count:2000 accs_arb
      (fun accs -> History.split_accs accs = reference_split_accs accs);
  ]

let test_certificate_cases () =
  let serial =
    {
      History.init = [ (cell 0, vi 0) ];
      nodes =
        [
          node ~id:0 ~tid:0 ~stamp:0 ~reads:[ (cell 0, vi 0) ] ~writes:[ (cell 0, vi 10) ] ();
          node ~id:1 ~tid:1 ~stamp:1 ~reads:[ (cell 0, vi 10) ] ~writes:[ (cell 0, vi 20) ] ();
        ];
      final = [ (cell 0, vi 20) ];
    }
  in
  check_anomaly "serial chain certified" true (History.certified serial);
  List.iter
    (fun (what, h) -> check_anomaly what false (History.certified h))
    [
      ("write skew not certified", write_skew_history);
      ("lost update not certified", lost_update_history);
      ("long fork not certified", long_fork_history);
      ("dirty read not certified", dirty_read_history);
      ("final mismatch not certified", { serial with final = [ (cell 0, vi 10) ] });
    ];
  (* past the size limit the certificate declines and the graph check
     decides: a clean chain over 200 preloaded cells, as a store run
     lists every key in init and final *)
  let wide =
    let keys = List.init 200 (fun k -> (cell k, vi k)) in
    {
      serial with
      History.init = keys;
      final = (cell 0, vi 20) :: List.tl keys;
    }
  in
  check_anomaly "wide history not certified" false (History.certified wide);
  check_anomaly "wide history passes the graph check" true (History.check_graph wide = None);
  check_anomaly "wide history passes the SI check" true (History.check_si_graph wide = None)

(* ------------------------------------------------------------------ *)
(* Shrinker                                                            *)
(* ------------------------------------------------------------------ *)

let count_ops (p : Prog.t) =
  List.fold_left
    (fun acc steps ->
      List.fold_left
        (fun acc -> function Prog.Atomic ops -> acc + List.length ops | _ -> acc + 1)
        acc steps)
    0 p.Prog.threads

let has_box_write (p : Prog.t) =
  List.exists
    (List.exists (function
      | Prog.Atomic ops ->
          List.exists (function Prog.Box_write _ -> true | _ -> false) ops
      | Prog.Plain (Prog.Box_write _) -> true
      | _ -> false))
    p.Prog.threads

let shrink_start =
  {
    Prog.ncells = 2;
    nslots = 2;
    threads =
      [
        [
          Prog.Atomic [ Prog.Read 0; Prog.Box_write 1; Prog.Write (1, Prog.Tok_acc) ];
          Prog.Plain (Prog.Read 1);
        ];
        [ Prog.Atomic [ Prog.Write (0, Prog.Tok) ] ];
      ];
  }

let test_shrink_minimum () =
  let small = Shrink.minimize ~keep:has_box_write shrink_start in
  Alcotest.(check int) "one op left" 1 (count_ops small);
  Alcotest.(check bool) "box write survives" true (has_box_write small);
  (* With the demotion pass on, the singleton atomic collapses to a
     plain access and the slot index lowers to 0. *)
  Alcotest.(check string) "minimal program"
    (Prog.to_string
       { shrink_start with Prog.threads = [ [ Prog.Plain (Prog.Box_write 0) ] ] })
    (Prog.to_string small)

let test_shrink_no_demotion () =
  let small = Shrink.minimize ~demote_atomic:false ~keep:has_box_write shrink_start in
  Alcotest.(check string) "atomic singleton preserved"
    (Prog.to_string
       { shrink_start with Prog.threads = [ [ Prog.Atomic [ Prog.Box_write 0 ] ] ] })
    (Prog.to_string small)

let test_shrink_fixpoint () =
  let small = Shrink.minimize ~keep:has_box_write shrink_start in
  (* Fixpoint: no single candidate of the minimum still satisfies keep. *)
  Alcotest.(check bool) "no further shrink" true
    (Seq.for_all (fun q -> not (has_box_write q)) (Shrink.candidates small));
  (* Idempotence follows. *)
  Alcotest.(check string) "idempotent"
    (Prog.to_string small)
    (Prog.to_string (Shrink.minimize ~keep:has_box_write small))

let test_shrink_demotion_gate () =
  let p = { Prog.ncells = 1; nslots = 0; threads = [ [ Prog.Atomic [ Prog.Read 0 ] ] ] } in
  let plains cands =
    List.length
      (List.filter
         (fun (q : Prog.t) ->
           List.exists
             (List.exists (function Prog.Plain _ -> true | _ -> false))
             q.Prog.threads)
         (List.of_seq cands))
  in
  Alcotest.(check int) "demotion offered" 1 (plains (Shrink.candidates p));
  Alcotest.(check int) "demotion gated off" 0
    (plains (Shrink.candidates ~demote_atomic:false p))

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let profiles = [ Gen.Txn_only; Gen.Mixed; Gen.Handoff ]

let check_op g (op : Prog.op) =
  match op with
  | Prog.Read c | Prog.Write (c, _) -> c >= 0 && c < g.Gen.ncells
  | Prog.Box_read s | Prog.Box_write s -> s >= 0 && s < g.Gen.nslots

let check_step g profile (step : Prog.step) =
  match step with
  | Prog.Atomic ops ->
      List.length ops >= 1
      && List.length ops <= g.Gen.max_ops
      && List.for_all (check_op g) ops
      && (profile <> Gen.Txn_only && profile <> Gen.Mixed
         || List.for_all
              (function Prog.Box_read _ | Prog.Box_write _ -> false | _ -> true)
              ops)
  | Prog.Plain op -> profile = Gen.Mixed && check_op g op
  | Prog.Publish s | Prog.Privatize s ->
      profile = Gen.Handoff && s >= 0 && s < g.Gen.nslots

let test_gen_well_formed () =
  List.iter
    (fun profile ->
      let g = Gen.default profile in
      for seed = 1 to 20 do
        let p = Gen.generate g ~seed in
        let nt = Prog.nthreads p in
        if nt < g.Gen.min_threads || nt > g.Gen.max_threads then
          Alcotest.failf "%s seed %d: %d threads" (Gen.profile_to_string profile)
            seed nt;
        List.iter
          (fun steps ->
            if List.length steps < 1 || List.length steps > g.Gen.max_steps then
              Alcotest.failf "%s seed %d: bad step count"
                (Gen.profile_to_string profile) seed;
            List.iter
              (fun step ->
                if not (check_step g profile step) then
                  Alcotest.failf "%s seed %d: step out of profile: %s"
                    (Gen.profile_to_string profile) seed (Prog.to_string p))
              steps)
          p.Prog.threads
      done)
    profiles

let test_gen_deterministic () =
  List.iter
    (fun profile ->
      let g = Gen.default profile in
      for seed = 1 to 10 do
        let a = Gen.generate g ~seed and b = Gen.generate g ~seed in
        Alcotest.(check string)
          (Printf.sprintf "%s seed %d" (Gen.profile_to_string profile) seed)
          (Prog.to_string a) (Prog.to_string b)
      done)
    profiles

(* ------------------------------------------------------------------ *)
(* JSON round trips                                                    *)
(* ------------------------------------------------------------------ *)

let test_prog_json_roundtrip () =
  List.iter
    (fun profile ->
      let g = Gen.default profile in
      for seed = 1 to 10 do
        let p = Gen.generate g ~seed in
        match Prog.of_json (Prog.to_json p) with
        | Some p' ->
            Alcotest.(check string)
              (Printf.sprintf "%s seed %d" (Gen.profile_to_string profile) seed)
              (Prog.to_string p) (Prog.to_string p')
        | None -> Alcotest.failf "of_json failed: %s" (Prog.to_string p)
      done)
    profiles

let test_combo_json_roundtrip () =
  List.iter
    (fun combo ->
      match Combo.of_json (Combo.to_json combo) with
      | Some combo' -> Alcotest.(check string) "combo" (Combo.name combo) (Combo.name combo')
      | None -> Alcotest.failf "combo of_json failed: %s" (Combo.name combo))
    (Combo.all @ Combo.timestamp_grid)

let sample_repro driver =
  {
    Repro.combo =
      { Combo.versioning = Stm_core.Config.Eager;
        isolation = Stm_core.Config.Serializable;
        validation = Stm_core.Config.Incremental;
        atomicity = Combo.Weak;
        cm = Stm_cm.Policy.Suicide };
    profile = "mixed";
    prog_seed = Some 7;
    driver;
    max_steps = 10_000;
    prog =
      {
        Prog.ncells = 2;
        nslots = 0;
        threads =
          [
            [ Prog.Plain (Prog.Write (0, Prog.Tok)) ];
            [ Prog.Atomic [ Prog.Read 0; Prog.Write (1, Prog.Tok_acc) ] ];
          ];
      };
    verdict = History.verdict_to_json History.Serializable;
  }

let test_repro_json_roundtrip () =
  List.iter
    (fun driver ->
      let r = sample_repro driver in
      match Repro.of_string (Repro.to_string r) with
      | Ok r' -> Alcotest.(check string) "repro" (Repro.to_string r) (Repro.to_string r')
      | Error msg -> Alcotest.failf "repro parse failed: %s" msg)
    [ Repro.Random_sched 42; Repro.Explore { preemption_bound = 2; max_runs = 500 } ]

let test_repro_rejects_garbage () =
  (match Repro.of_string "{nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parsed syntactically invalid repro");
  match Repro.of_string "{\"format\": \"something-else\", \"version\": 1}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted wrong format tag"

(* ------------------------------------------------------------------ *)
(* Replay determinism                                                  *)
(* ------------------------------------------------------------------ *)

let priv_race_prog =
  (* One thread privatizes the slot-0 box; the other transactionally
     writes the box, a cell, and reads it back. Under weak atomicity
     this is the paper's figure-1 race. *)
  {
    Prog.ncells = 1;
    nslots = 1;
    threads =
      [
        [ Prog.Privatize 0 ];
        [ Prog.Atomic [ Prog.Box_write 0; Prog.Write (0, Prog.Tok); Prog.Read 0 ] ];
      ];
  }

let combo versioning atomicity =
  {
    Combo.versioning;
    isolation = Stm_core.Config.Serializable;
    validation = Stm_core.Config.Incremental;
    atomicity;
    cm = Stm_cm.Policy.Suicide;
  }

let test_replay_deterministic () =
  List.iter
    (fun (cmb, driver) ->
      let run () =
        Repro.run_driver ~combo:cmb ~driver ~max_steps:Exec.default_fuel
          priv_race_prog
      in
      let a = run () and b = run () in
      Alcotest.(check bool)
        (Printf.sprintf "%s deterministic" (Combo.name cmb))
        true
        (History.verdict_equal a b))
    [
      (combo Stm_core.Config.Eager Combo.Weak, Repro.Random_sched 42);
      (combo Stm_core.Config.Lazy Combo.Weak, Repro.Random_sched 43);
      (combo Stm_core.Config.Eager Combo.Quiesce, Repro.Random_sched 44);
      ( combo Stm_core.Config.Eager Combo.Weak,
        Repro.Explore { preemption_bound = 2; max_runs = 200 } );
    ]

let test_repro_replay_matches () =
  (* Record a repro from a live driver run, then replay it. *)
  let cmb = combo Stm_core.Config.Eager Combo.Weak in
  let driver = Repro.Explore { preemption_bound = 2; max_runs = 500 } in
  let verdict =
    Repro.run_driver ~combo:cmb ~driver ~max_steps:Exec.default_fuel priv_race_prog
  in
  Alcotest.(check bool) "race found" true (History.is_anomalous verdict);
  let r =
    {
      Repro.combo = cmb;
      profile = "handoff";
      prog_seed = None;
      driver;
      max_steps = Exec.default_fuel;
      prog = priv_race_prog;
      verdict = History.verdict_to_json verdict;
    }
  in
  Alcotest.(check bool) "replay matches" true (Repro.matches r (Repro.replay r))

(* ------------------------------------------------------------------ *)
(* Cross-backend differential sweep (smoke slice)                      *)
(* ------------------------------------------------------------------ *)

(* A small slice of the nightly grid: the same seeded txn-only programs
   on eager, lazy, mvcc and mvcc-snapshot, certified at each combo's own
   isolation level. Any anomalous member is a cross-backend divergence
   and fails the build with a replayable repro. *)
let test_differential_smoke () =
  let budget =
    {
      Fuzz.default_budget with
      Fuzz.programs = 6;
      seeds = 2;
      base_seed = 1;
      max_steps = Exec.default_fuel;
    }
  in
  let r = Fuzz.run_differential budget in
  Alcotest.(check int)
    "grid size" 4
    (List.length r.Fuzz.diff_combos);
  Alcotest.(check int)
    "executions = programs x seeds x combos"
    (6 * 2 * 4) r.Fuzz.diff_executions;
  if not (Fuzz.differential_passed r) then
    Alcotest.failf "cross-backend divergence: %s"
      (Stm_obs.Json.to_string (Fuzz.differential_to_json r))

(* ------------------------------------------------------------------ *)
(* Quiescence / DEA privatization regression                           *)
(* ------------------------------------------------------------------ *)

(* The same program explored under the full atomicity spectrum: weak
   configurations must exhibit the privatization race; strong barriers,
   dynamic escape analysis and commit-time quiescence must not. *)

let explore_verdict cmb =
  let cfg = Combo.to_config cmb in
  let v, _ = Exec.explore ~preemption_bound:2 ~max_runs:1500 ~cfg priv_race_prog in
  v

let test_priv_race_weak () =
  List.iter
    (fun versioning ->
      match explore_verdict (combo versioning Combo.Weak) with
      | Some v when History.is_anomalous v -> ()
      | _ ->
          Alcotest.failf "%s-weak: privatization race not found"
            (Combo.versioning_to_string versioning))
    [ Stm_core.Config.Eager; Stm_core.Config.Lazy ]

let test_priv_race_safe_configs () =
  List.iter
    (fun (versioning, atomicity) ->
      match explore_verdict (combo versioning atomicity) with
      | None -> ()
      | Some v ->
          Alcotest.failf "%s-%s: unexpected %s"
            (Combo.versioning_to_string versioning)
            (Combo.atomicity_to_string atomicity)
            (Stm_obs.Json.to_string (History.verdict_to_json v)))
    [
      (Stm_core.Config.Eager, Combo.Strong);
      (Stm_core.Config.Lazy, Combo.Strong);
      (Stm_core.Config.Eager, Combo.Strong_dea);
      (Stm_core.Config.Eager, Combo.Quiesce);
      (Stm_core.Config.Lazy, Combo.Quiesce);
    ]

let test_publish_safe_configs () =
  (* Publication handoff: T0 publishes a freshly initialized box while
     T1 transactionally reads through the slot. Safe under the same
     configurations as privatization. *)
  let pub_prog =
    {
      Prog.ncells = 1;
      nslots = 1;
      threads =
        [
          [ Prog.Publish 0 ];
          [ Prog.Atomic [ Prog.Box_read 0; Prog.Write (0, Prog.Tok_acc) ] ];
        ];
    }
  in
  List.iter
    (fun (versioning, atomicity) ->
      let cfg = Combo.to_config (combo versioning atomicity) in
      let v, _ = Exec.explore ~preemption_bound:2 ~max_runs:1500 ~cfg pub_prog in
      match v with
      | None -> ()
      | Some v ->
          Alcotest.failf "publish %s-%s: unexpected %s"
            (Combo.versioning_to_string versioning)
            (Combo.atomicity_to_string atomicity)
            (Stm_obs.Json.to_string (History.verdict_to_json v)))
    [
      (Stm_core.Config.Eager, Combo.Strong);
      (Stm_core.Config.Eager, Combo.Strong_dea);
      (Stm_core.Config.Eager, Combo.Quiesce);
      (Stm_core.Config.Lazy, Combo.Quiesce);
    ]

(* ------------------------------------------------------------------ *)
(* The trace bus around the executor and the explorer                  *)
(* ------------------------------------------------------------------ *)

module Trace = Stm_core.Trace

(* [Exec.run] subscribes its collector beside an outer subscriber: the
   outer one keeps receiving events during the run and stays afterwards. *)
let test_exec_keeps_outer_subscriber () =
  let seen = ref 0 in
  Trace.with_sinks [ (Trace.Info, fun _ -> incr seen) ] (fun () ->
      let cfg = Combo.to_config (combo Stm_core.Config.Eager Combo.Strong) in
      let v, _ = Exec.run ~cfg priv_race_prog in
      Alcotest.(check bool) "run judged" true (v = History.Serializable);
      Alcotest.(check bool) "outer saw the run's events" true (!seen > 0);
      let during = !seen in
      Trace.emit (lazy (Trace.Txn_begin { txid = 0; tid = 0 }));
      Alcotest.(check int) "outer still subscribed" (during + 1) !seen;
      Alcotest.(check bool) "collector gone" false
        (Trace.enabled_at Trace.Debug))

(* An exploration that stops early - at its first anomaly, or on its
   [max_runs] budget - leaves neither the bus nor the footprint channel
   installed. *)
let test_explorer_stops_leave_no_sink () =
  let clean () =
    Alcotest.(check bool) "no trace subscriber" false (Trace.enabled ());
    Alcotest.(check bool) "no footprint sink" false
      (Stm_runtime.Footprint.active ())
  in
  (match explore_verdict (combo Stm_core.Config.Eager Combo.Weak) with
  | Some v when History.is_anomalous v -> ()
  | _ -> Alcotest.fail "weak run found no anomaly");
  clean ();
  let cfg = Combo.to_config (combo Stm_core.Config.Eager Combo.Strong) in
  let _, d =
    Exec.explore_dpor ~preemption_bound:2 ~max_runs:1 ~cfg priv_race_prog
  in
  Alcotest.(check bool) "budget stop" true
    d.Stm_litmus.Explorer.exploration.Stm_litmus.Explorer.truncated;
  clean ()

(* [on_anomaly] fires for an anomaly an expect-clean campaign did not
   expect, naming the program and schedule seeds; the same campaign run
   as a hunt finds the anomaly by design and never fires it. On this
   budget the eager-weak mixed hunt's second schedule is anomalous. *)
let test_on_anomaly () =
  let hunt = List.hd Fuzz.hunt_campaigns in
  let budget = { Fuzz.default_budget with Fuzz.programs = 1; seeds = 2 } in
  let run campaign =
    let fired = ref [] in
    let on_anomaly c ~prog_seed ~sched_seed =
      fired := (Fuzz.campaign_name c, prog_seed, sched_seed) :: !fired
    in
    let r = Fuzz.run_campaign ~on_anomaly budget campaign in
    Alcotest.(check int) "one anomaly" 1 r.Fuzz.anomalies;
    !fired
  in
  let clean = { hunt with Fuzz.expectation = Fuzz.Expect_clean } in
  Alcotest.(check (list (triple string int int)))
    "fires for an unexpected anomaly"
    [ (Fuzz.campaign_name clean, 1, 8192) ]
    (run clean);
  Alcotest.(check (list (triple string int int)))
    "silent on a hunt" [] (run hunt)

let suite =
  [
    ( "check-oracle",
      [
        Alcotest.test_case "wr chain serializable" `Quick test_graph_serializable;
        Alcotest.test_case "rw cycle (write skew)" `Quick test_graph_rw_cycle;
        Alcotest.test_case "wr cycle" `Quick test_graph_wr_cycle;
        Alcotest.test_case "lost update" `Quick test_graph_lost_update;
        Alcotest.test_case "dirty read" `Quick test_graph_dirty_read;
        Alcotest.test_case "final mismatch" `Quick test_graph_final_mismatch;
      ] );
    ( "check-si",
      [
        Alcotest.test_case "admits write skew" `Quick test_si_admits_write_skew;
        Alcotest.test_case "admits long fork" `Quick test_si_admits_long_fork;
        Alcotest.test_case "rejects lost update" `Quick test_si_rejects_lost_update;
        Alcotest.test_case "rejects dirty read" `Quick test_si_rejects_dirty_read;
        Alcotest.test_case "rejects fractured read" `Quick
          test_si_rejects_fractured_read;
        Alcotest.test_case "certify classifies levels" `Quick test_certify_levels;
        Alcotest.test_case "anomaly kinds exhaustive" `Quick
          test_anomaly_kinds_exhaustive;
        Alcotest.test_case "si_forbids partition" `Quick test_si_forbids_partition;
      ] );
    ( "check-certificate",
      Alcotest.test_case "hand-built histories" `Quick test_certificate_cases
      :: List.map QCheck_alcotest.to_alcotest certificate_qcheck );
    ( "check-differential",
      [
        Alcotest.test_case "cross-backend smoke slice" `Quick
          test_differential_smoke;
      ] );
    ( "check-shrink",
      [
        Alcotest.test_case "reaches minimum" `Quick test_shrink_minimum;
        Alcotest.test_case "no demotion variant" `Quick test_shrink_no_demotion;
        Alcotest.test_case "fixpoint" `Quick test_shrink_fixpoint;
        Alcotest.test_case "demotion gate" `Quick test_shrink_demotion_gate;
      ] );
    ( "check-gen",
      [
        Alcotest.test_case "well-formed" `Quick test_gen_well_formed;
        Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
      ] );
    ( "check-json",
      [
        Alcotest.test_case "prog round trip" `Quick test_prog_json_roundtrip;
        Alcotest.test_case "combo round trip" `Quick test_combo_json_roundtrip;
        Alcotest.test_case "repro round trip" `Quick test_repro_json_roundtrip;
        Alcotest.test_case "repro rejects garbage" `Quick test_repro_rejects_garbage;
      ] );
    ( "check-replay",
      [
        Alcotest.test_case "drivers deterministic" `Quick test_replay_deterministic;
        Alcotest.test_case "recorded repro replays" `Quick test_repro_replay_matches;
      ] );
    ( "check-privatization",
      [
        Alcotest.test_case "weak exhibits race" `Quick test_priv_race_weak;
        Alcotest.test_case "strong/dea/quiesce clean" `Quick test_priv_race_safe_configs;
        Alcotest.test_case "publish clean" `Quick test_publish_safe_configs;
      ] );
    ( "check-trace-bus",
      [
        Alcotest.test_case "exec keeps outer subscriber" `Quick
          test_exec_keeps_outer_subscriber;
        Alcotest.test_case "explorer stops leave no sink" `Quick
          test_explorer_stops_leave_no_sink;
        Alcotest.test_case "on_anomaly fires for expect-clean only" `Quick
          test_on_anomaly;
      ] );
  ]
