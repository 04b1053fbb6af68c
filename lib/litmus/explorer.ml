open Stm_runtime

type exploration = {
  outcomes : (string * int) list;
  runs : int;
  truncated : bool;
  livelocks : int;
  deadlocks : int;
}

type instance = { main : unit -> unit; observe : unit -> string }

(* One scheduling decision observed during a run. *)
type decision = {
  chosen : Sched.tid;
  alts : Sched.tid list;  (* runnable alternatives not chosen *)
}

(* Scheduling constants shared by every engine: the default policy
   rotates after [fairness_window] consecutive decisions of one thread,
   and DPOR analyzes at most [analysis_horizon] decisions of a run. *)
let fairness_window = 64
let analysis_horizon = 2_000

(* One search: its budget, the run parameters, and the books every
   engine keeps the same way. *)
type state = {
  cfg : Stm_core.Config.t;
  make : unit -> instance;
  max_steps : int;
  max_runs : int;
  stop_when : string -> bool;
  outcome_tbl : (string, int) Hashtbl.t;
  mutable runs : int;
  mutable livelocks : int;
  mutable deadlocks : int;
  mutable truncated : bool;
  mutable stopped : bool;
}

exception Search_done

let start ~max_runs ~max_steps ?(stop_when = fun _ -> false) ~cfg ~make () =
  {
    cfg;
    make;
    max_steps;
    max_runs;
    stop_when;
    outcome_tbl = Hashtbl.create 16;
    runs = 0;
    livelocks = 0;
    deadlocks = 0;
    truncated = false;
    stopped = false;
  }

(* The default scheduling policy of one run: stay on the current thread
   while it is runnable, and rotate to the next runnable thread (wrapping)
   once one thread has taken [fairness_window] consecutive decisions.
   [last] and [streak] track the thread actually chosen, whatever picked
   it. *)
type fairness = { mutable last : Sched.tid; mutable streak : int }

let default_pick f current runnables =
  if List.mem current runnables then
    if f.last = current && f.streak >= fairness_window then
      match List.find_opt (fun t -> t > current) runnables with
      | Some t -> t
      | None -> List.hd runnables
    else current
  else List.hd runnables

let note_chosen f chosen =
  if chosen = f.last then f.streak <- f.streak + 1
  else begin
    f.last <- chosen;
    f.streak <- 1
  end

(* The one schedule executor. Runs a fresh instance under [pick], which
   every engine supplies: [pick fair i current runnables] takes decision
   [i] and must [note_chosen fair] its choice. [sink], if given, receives
   the run's footprint reports. Charges the run against [max_runs] and
   books its outcome: a fuel-exhausted schedule is accounted in
   [livelocks] only (it has no final state, so recording "<livelock>"
   would break [runs = livelocks + sum of outcome counts]); a deadlock
   reaches a final (stuck) state and stays in the outcome table. Returns
   the scheduler status, the outcome and the number of decisions. *)
let execute ?sink st pick =
  if st.runs >= st.max_runs then begin
    st.truncated <- true;
    raise Search_done
  end;
  st.runs <- st.runs + 1;
  Sim_mutex.reset_ids ();
  let inst = st.make () in
  let fair = { last = -1; streak = 0 } in
  let ndecisions = ref 0 in
  let choose current runnables =
    let i = !ndecisions in
    ndecisions := i + 1;
    pick fair i current runnables
  in
  (* cleared on every exit by hand: [Fun.protect]'s closures would cost
     every run an allocation *)
  Footprint.set_sink sink;
  let result, _ =
    match
      Stm_core.Stm.run ~policy:(Sched.Controlled choose)
        ~max_steps:st.max_steps ~cfg:st.cfg inst.main
    with
    | r ->
        Footprint.set_sink None;
        r
    | exception e ->
        Footprint.set_sink None;
        raise e
  in
  let status = result.Sched.status in
  let outcome =
    match status with
    | Sched.Completed -> (
        match result.Sched.exns with
        | [] -> inst.observe ()
        | (_, ex) :: _ -> "<exn:" ^ Printexc.to_string ex ^ ">")
    | Sched.Deadlock _ ->
        st.deadlocks <- st.deadlocks + 1;
        "<deadlock>"
    | Sched.Fuel_exhausted ->
        st.livelocks <- st.livelocks + 1;
        "<livelock>"
  in
  if status <> Sched.Fuel_exhausted then
    Hashtbl.replace st.outcome_tbl outcome
      (1 + Option.value ~default:0 (Hashtbl.find_opt st.outcome_tbl outcome));
  (status, outcome, !ndecisions)

(* Ends the search once a run produced the outcome [stop_when] asks for;
   called by each engine after it has taken what it needs from the run. *)
let stop st outcome =
  if st.stop_when outcome then begin
    st.stopped <- true;
    raise Search_done
  end

(* Runs an engine's walk until it ends or [Search_done] cuts it short,
   and reports what the search saw. *)
let search st walk =
  (try walk () with Search_done -> ());
  {
    outcomes =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.outcome_tbl []
      |> List.sort compare;
    runs = st.runs;
    truncated = st.truncated;
    livelocks = st.livelocks;
    deadlocks = st.deadlocks;
  }

let explore ?(preemption_bound = 2) ?(max_runs = 40_000) ?(max_steps = 60_000)
    ?stop_when ~cfg ~make () =
  let st = start ~max_runs ~max_steps ?stop_when ~cfg ~make () in
  (* Run one schedule: [prefix] forces the first choices, the default
     policy takes the rest. Returns the decision trace when [branching],
     and [||] for a run that has used up its preemptions: nothing
     branches below it, so it records no alternatives. *)
  let execute ~branching prefix =
    let trace = ref [] in
    let pick fair i current runnables =
      let chosen =
        if i < Array.length prefix then prefix.(i)
        else default_pick fair current runnables
      in
      note_chosen fair chosen;
      if branching then begin
        let alts = List.filter (fun t -> t <> chosen) runnables in
        trace := { chosen; alts } :: !trace
      end;
      chosen
    in
    let _, outcome, _ = execute st pick in
    stop st outcome;
    if branching then Array.of_list (List.rev !trace) else [||]
  in
  (* DFS over the scheduling tree. [prefix] replays forced choices;
     [npre] counts injected (non-default) choices in the prefix. *)
  let rec dfs prefix npre =
    let branching = npre < preemption_bound in
    let trace = execute ~branching prefix in
    if branching then begin
      let chosen = Array.map (fun d -> d.chosen) trace in
      for i = Array.length prefix to Array.length trace - 1 do
        List.iter
          (fun alt ->
            let prefix' = Array.sub chosen 0 (i + 1) in
            prefix'.(i) <- alt;
            dfs prefix' (npre + 1))
          trace.(i).alts
      done
    end
  in
  search st (fun () -> dfs [||] 0)

let observed e pred = List.exists (fun (o, _) -> pred o) e.outcomes

(* ------------------------------------------------------------------ *)
(* Dynamic partial-order reduction                                     *)
(* ------------------------------------------------------------------ *)

(* Backtracking at races instead of at every decision (Flanagan &
   Godefroid, POPL 2005), with sleep sets pruning the redundant
   interleavings that race-directed backtracking still generates.

   The unit of reordering is the {e scheduler segment}: everything one
   thread executes between two consecutive scheduling decisions. The
   runtime reports every access to cross-thread-visible state through
   {!Stm_runtime.Footprint}; the engine aggregates them into one
   footprint per segment. Two segments are dependent when they belong
   to the same thread, share a granule at least one of them writes, or
   one enables the other (a thread becomes runnable right after a
   segment: spawn, join completion, lock hand-off, quiescence wake).
   For each executed schedule the engine computes the happens-before
   relation with vector clocks; every pair of conflicting segments not
   already ordered through intermediaries is a race, and the reversal
   is scheduled by inserting the racing thread into the backtrack set
   of the earlier segment's pre-state. *)

type dpor = { exploration : exploration; complete : bool; races : int }

(* A segment footprint: granule id -> strongest access level.
   2 = write, 1 = read, 0 = futile spin-wait re-read
   ({!Stm_runtime.Footprint.Spin_read}). A write is {e dependent} on all
   three (it must be ordered against them for the happens-before pass),
   but only write/write and write/read pairs are {e races} worth
   reversing: flipping a write against a futile spin iteration merely
   changes how often the waiter re-checks before the same exit — the
   spin-assume reduction of await loops. *)
type fp = (int, int) Hashtbl.t

let level = function
  | Footprint.Spin_read -> 0
  | Footprint.Read -> 1
  | Footprint.Write -> 2

let fp_add (f : fp) oid lv =
  match Hashtbl.find_opt f oid with
  | None -> Hashtbl.add f oid lv
  | Some l -> if lv > l then Hashtbl.replace f oid lv

(* Dependency: a shared granule at least one side writes (spin reads
   included — ordering matters even where reversal is pointless). *)
let fp_conflicts (a : fp) (b : fp) =
  let small, big =
    if Hashtbl.length a <= Hashtbl.length b then (a, b) else (b, a)
  in
  try
    Hashtbl.iter
      (fun oid lv ->
        match Hashtbl.find_opt big oid with
        | Some lv' when lv = 2 || lv' = 2 -> raise Exit
        | Some _ | None -> ())
      small;
    false
  with Exit -> true

(* Per-granule race index: for each thread, its latest segment that
   accessed the granule (with that segment's level on it) and its latest
   segment that wrote it; -1 = none. *)
type granule = { acc : int array; acc_lv : int array; wr : int array }

(* Vector-clock pass over one run's segments. Dependent = same thread
   (program order), enabledness edge, or footprint conflict; each
   conflicting pair not already ordered is an immediate race. Races are
   reported only for [j >= start]: earlier pairs were analyzed when their
   segments first executed.

   A segment's conflict candidates come from the granule index, one per
   other thread and shared granule: the thread's latest accessor if the
   segment writes the granule, its latest writer otherwise. That is
   exact, not an approximation: candidates are tested nearest first, and
   a thread's earlier conflicting segment precedes the latest one in
   program order, so by the time it is reached the latest one's clock
   has been joined and already orders it; the join it would add is a
   no-op. Same-thread candidates are dropped for the same reason: the
   program-order join already orders them. *)
let races ~chosen ~runnables ~(footprints : fp array) ~start =
  let m = Array.length chosen in
  if m = 0 then []
  else begin
    let nt =
      1
      + Array.fold_left
          (fun acc rs -> List.fold_left max acc rs)
          (Array.fold_left max 0 chosen)
          runnables
    in
    (* enabledness edges: a thread runnable at decision [i+1] but not at
       [i] was enabled by segment [i]; the edge targets that thread's
       next segment, the head of its [cursor] list once the scan has
       passed [i] *)
    let cursor = Array.make nt [] in
    for j = m - 1 downto 0 do
      cursor.(chosen.(j)) <- j :: cursor.(chosen.(j))
    done;
    let edges_into = Array.make m [] in
    for i = 0 to m - 2 do
      List.iter
        (fun t ->
          if not (List.mem t runnables.(i)) then begin
            let rec adv = function s :: rest when s <= i -> adv rest | l -> l in
            cursor.(t) <- adv cursor.(t);
            match cursor.(t) with
            | s :: _ -> edges_into.(s) <- i :: edges_into.(s)
            | [] -> ()
          end)
        runnables.(i + 1)
    done;
    (* per-segment local index within its thread (1-based) *)
    let local = Array.make m 0 in
    let tindex = Array.make nt 0 in
    for j = 0 to m - 1 do
      let t = chosen.(j) in
      tindex.(t) <- tindex.(t) + 1;
      local.(j) <- tindex.(t)
    done;
    let index : (int, granule) Hashtbl.t = Hashtbl.create 64 in
    let clocks = Array.make m [||] in
    let last_seg = Array.make nt (-1) in
    (* candidate -> is the pair a reversible race (write/write or
       write/read on some shared granule) rather than merely
       ordering-relevant (write/spin-read)? *)
    let cands : (int, bool) Hashtbl.t = Hashtbl.create 8 in
    let add_cand i race =
      match Hashtbl.find_opt cands i with
      | Some true -> ()
      | Some false -> if race then Hashtbl.replace cands i true
      | None -> Hashtbl.add cands i race
    in
    let found = ref [] in
    for j = 0 to m - 1 do
      let t = chosen.(j) in
      let c = Array.make nt 0 in
      let join src =
        Array.iteri (fun u v -> if v > c.(u) then c.(u) <- v) clocks.(src)
      in
      if last_seg.(t) >= 0 then join last_seg.(t);
      List.iter join edges_into.(j);
      Hashtbl.clear cands;
      Hashtbl.iter
        (fun oid lv ->
          match Hashtbl.find_opt index oid with
          | None -> ()
          | Some g ->
              for u = 0 to nt - 1 do
                if u <> t then
                  if lv = 2 then begin
                    let i = g.acc.(u) in
                    if i >= 0 then add_cand i (g.acc_lv.(u) >= 1)
                  end
                  else
                    let i = g.wr.(u) in
                    if i >= 0 then add_cand i (lv = 1)
              done)
        footprints.(j);
      (* nearest first, so that a chain through a later conflict orders
         the earlier ones before they are tested (only immediate races
         get reversed) *)
      let sorted =
        Hashtbl.fold (fun i race acc -> (i, race) :: acc) cands []
        |> List.sort (fun (a, _) (b, _) -> compare b a)
      in
      List.iter
        (fun (i, race) ->
          if race && c.(chosen.(i)) < local.(i) && j >= start then
            (* unordered reversible pair: an immediate race *)
            found := (i, j) :: !found;
          join i)
        sorted;
      c.(t) <- local.(j);
      clocks.(j) <- c;
      last_seg.(t) <- j;
      Hashtbl.iter
        (fun oid lv ->
          let g =
            match Hashtbl.find_opt index oid with
            | Some g -> g
            | None ->
                let g =
                  {
                    acc = Array.make nt (-1);
                    acc_lv = Array.make nt 0;
                    wr = Array.make nt (-1);
                  }
                in
                Hashtbl.add index oid g;
                g
          in
          g.acc.(t) <- j;
          g.acc_lv.(t) <- lv;
          if lv = 2 then g.wr.(t) <- j)
        footprints.(j)
    done;
    List.rev !found
  end

(* One node of the schedule tree: the pre-state of segment [i], i.e.
   the state in which scheduling decision [i] is taken. Determinism of
   the simulation means the prefix of choices identifies the state, so
   the node can cache what every visit re-derives identically. *)
type node = {
  n_runnables : Sched.tid list;
  n_default : Sched.tid;  (* what the default policy picks here *)
  mutable n_chosen : Sched.tid;  (* choice of the branch being explored *)
  n_done : (Sched.tid, fp) Hashtbl.t;
      (* explored choices -> first-segment footprint of that choice *)
  mutable n_backtrack : Sched.tid list;  (* pending race reversals *)
  n_sleep : (Sched.tid * fp) list;
      (* threads whose next segment (with that footprint) is already
         covered by a sibling branch of an ancestor *)
  n_preemptions : int;  (* non-default choices among strict ancestors *)
}

(* Per-run record of one decision, before it has a node. *)
type rdec = {
  r_chosen : Sched.tid;
  r_default : Sched.tid;
  r_runnables : Sched.tid list;
  r_sleep : (Sched.tid * fp) list;  (* entry sleep set at this decision *)
}

(* Run one schedule under the footprint sink. [prefix] replays the
   current branch; free decisions follow the default policy, except that
   a default whose next step is asleep is swapped for a non-sleeping
   runnable. Returns the decisions (capped at [analysis_horizon]), their
   footprints, the scheduler status, the number of decisions and the
   outcome. *)
let execute_dpor st ~(nodes : node array) ~nnodes prefix =
  let decs = ref [] in
  let fps = ref [] in
  let cur_fp = ref (Hashtbl.create 8 : fp) in
  let cur_sleep = ref [] in
  let recording = ref true in
  let pick fair i current runnables =
    if i >= analysis_horizon then begin
      (* beyond the analysis horizon: stop recording (and sleeping) and
         let the plain default policy finish or burn out the run *)
      if !recording then begin
        recording := false;
        (* close the last recorded segment so decisions and footprints
           stay in lockstep *)
        fps := !cur_fp :: !fps
      end;
      let default = default_pick fair current runnables in
      note_chosen fair default;
      default
    end
    else begin
      (* close the previous segment (the pre-first-decision preamble is
         discarded: it is a fixed prefix of every schedule) and wake
         sleepers whose pending step conflicts with it *)
      let prev_fp = !cur_fp in
      if i > 0 then begin
        fps := prev_fp :: !fps;
        cur_sleep :=
          List.filter (fun (_, f) -> not (fp_conflicts f prev_fp)) !cur_sleep
      end;
      cur_fp := Hashtbl.create 8;
      let entry_sleep = !cur_sleep in
      let default =
        let policy_default = default_pick fair current runnables in
        if List.mem_assoc policy_default entry_sleep then
          (* the policy default's next step is covered by an explored
             sibling: divert to a non-sleeping runnable. The divert is
             the effective default — it is not a preemption the search
             chose, so it is not charged against the bound. *)
          match
            List.filter
              (fun t -> not (List.mem_assoc t entry_sleep))
              runnables
          with
          | t :: _ -> t
          | [] -> policy_default
        else policy_default
      in
      let chosen = if i < Array.length prefix then prefix.(i) else default in
      note_chosen fair chosen;
      (* siblings explored earlier from this node go to sleep for the
         branch below [chosen] *)
      let fresh =
        if i < nnodes then
          Hashtbl.fold
            (fun t f acc ->
              if t <> chosen && not (List.mem_assoc t entry_sleep) then
                (t, f) :: acc
              else acc)
            nodes.(i).n_done []
        else []
      in
      cur_sleep := fresh @ List.filter (fun (t, _) -> t <> chosen) entry_sleep;
      decs :=
        {
          r_chosen = chosen;
          r_default = default;
          r_runnables = runnables;
          r_sleep = entry_sleep;
        }
        :: !decs;
      chosen
    end
  in
  let sink oid k = if !recording then fp_add !cur_fp oid (level k) in
  let status, outcome, ndecisions = execute ~sink st pick in
  (* close the final segment *)
  if ndecisions > 0 && !recording then fps := !cur_fp :: !fps;
  ( Array.of_list (List.rev !decs),
    Array.of_list (List.rev !fps),
    status,
    ndecisions,
    outcome )

let explore_dpor ?preemption_bound ?(max_runs = 40_000) ?(max_steps = 60_000)
    ?stop_when ~cfg ~make () =
  let st = start ~max_runs ~max_steps ?stop_when ~cfg ~make () in
  (* Sleep sets prune the sibling redundancy that race-directed
     backtracking still generates. Combining any partial-order pruning
     with a preemption bound can in principle drop a behavior whose
     reduced-tree representative is over budget (the BPOR pitfall, cf.
     Coons et al., OOPSLA 2013) — which is why certification always
     cross-checks bounded-DPOR verdicts against the enumerative
     baseline (see Matrix.certify and the CI gate). *)
  let nraces = ref 0 in
  let complete = ref true in
  (* growable stack of schedule-tree nodes along the current branch *)
  let nodes = ref [||] in
  let nnodes = ref 0 in
  let push_node nd =
    if !nnodes = Array.length !nodes then begin
      let bigger = Array.make (max 64 (2 * Array.length !nodes)) nd in
      Array.blit !nodes 0 bigger 0 !nnodes;
      nodes := bigger
    end;
    !nodes.(!nnodes) <- nd;
    incr nnodes
  in
  let bound_ok nd t =
    match preemption_bound with
    | None -> true
    | Some b ->
        nd.n_preemptions + (if t <> nd.n_default then 1 else 0) <= b
  in
  (* Insert the reversal of race (i, j): schedule [tid j] at node [i] if
     it is enabled there, otherwise try every enabled thread. Choices
     already explored, pending, or asleep at [i] are covered. *)
  let insert_backtrack (decs : rdec array) i j =
    let nd = !nodes.(i) in
    let covered t =
      Hashtbl.mem nd.n_done t
      || List.mem t nd.n_backtrack
      || List.mem_assoc t nd.n_sleep
    in
    let add t = if not (covered t) then nd.n_backtrack <- t :: nd.n_backtrack in
    let tj = decs.(j).r_chosen in
    if List.mem tj nd.n_runnables then add tj
    else List.iter add nd.n_runnables
  in
  let run_branch prefix =
    let decs, fps, status, ndec, outcome =
      execute_dpor st ~nodes:!nodes ~nnodes:!nnodes prefix
    in
    let m = Array.length decs in
    (* a run that reached a final state (completed or deadlocked) and
       outran the horizon leaves races unanalyzed; a fuel-exhausted one
       is an unfair spin whose suffix adds no new final state
       (documented caveat) *)
    if status <> Sched.Fuel_exhausted && ndec > m then complete := false;
    let base = !nnodes in
    (* the flipped node's new branch enters its done set *)
    if base > 0 && m >= base then begin
      let k = base - 1 in
      Hashtbl.replace !nodes.(k).n_done decs.(k).r_chosen fps.(k)
    end;
    for i = base to m - 1 do
      let d = decs.(i) in
      let preempt =
        if i = 0 then 0
        else
          let p = !nodes.(i - 1) in
          p.n_preemptions + (if p.n_chosen <> p.n_default then 1 else 0)
      in
      push_node
        {
          n_runnables = d.r_runnables;
          n_default = d.r_default;
          n_chosen = d.r_chosen;
          n_done =
            (let h = Hashtbl.create 4 in
             Hashtbl.add h d.r_chosen fps.(i);
             h);
          n_backtrack = [];
          n_sleep = d.r_sleep;
          n_preemptions = preempt;
        }
    done;
    (* only races whose later segment is new in this run, from the
       flipped decision [base - 1] on: earlier pairs were analyzed by the
       run that first executed them *)
    List.iter
      (fun (i, j) ->
        incr nraces;
        insert_backtrack decs i j)
      (races
         ~chosen:(Array.map (fun d -> d.r_chosen) decs)
         ~runnables:(Array.map (fun d -> d.r_runnables) decs)
         ~footprints:fps
         ~start:(max 0 (base - 1)));
    stop st outcome
  in
  (* pick the deepest node with a usable pending reversal; covered or
     over-budget candidates are dropped for good (they can never become
     eligible: a node's sleep, done-by-then and preemption count are
     fixed) *)
  let rec select i =
    if i < 0 then None
    else
      let nd = !nodes.(i) in
      let rec pick = function
        | [] ->
            nd.n_backtrack <- [];
            None
        | t :: rest ->
            if
              Hashtbl.mem nd.n_done t
              || List.mem_assoc t nd.n_sleep
              || not (bound_ok nd t)
            then pick rest
            else begin
              nd.n_backtrack <- rest;
              Some t
            end
      in
      match pick nd.n_backtrack with
      | Some t -> Some (i, t)
      | None -> select (i - 1)
  in
  let exploration =
    search st (fun () ->
        run_branch [||];
        let rec loop () =
          match select (!nnodes - 1) with
          | None -> ()
          | Some (i, c) ->
              nnodes := i + 1;
              !nodes.(i).n_chosen <- c;
              let prefix = Array.init (i + 1) (fun j -> !nodes.(j).n_chosen) in
              run_branch prefix;
              loop ()
        in
        loop ())
  in
  {
    exploration;
    complete = !complete && not (st.truncated || st.stopped);
    races = !nraces;
  }

(* ------------------------------------------------------------------ *)
(* Probabilistic concurrency testing                                   *)
(* ------------------------------------------------------------------ *)

let explore_pct ?(runs = 2000) ?(depth = 3) ?(max_steps = 60_000) ?(seed = 1)
    ?stop_when ~cfg ~make () =
  (* the quota is the budget, so the executor never truncates *)
  let st = start ~max_runs:runs ~max_steps ?stop_when ~cfg ~make () in
  let rng = Det_rng.create seed in
  let max_threads = 16 in
  (* adaptive horizon: change points are sampled within the length of
     the runs actually observed, so demotions land inside the program *)
  let horizon = ref 256 in
  let run_once () =
    (* random distinct base priorities per thread; higher runs first *)
    let prio = Array.init max_threads (fun i -> 100 + ((i * 7919) mod 97)) in
    Array.iteri
      (fun i _ ->
        let j = i + Det_rng.int rng (max_threads - i) in
        let t = prio.(i) in
        prio.(i) <- prio.(j);
        prio.(j) <- t)
      prio;
    (* choose depth-1 demotion points over the adaptive horizon *)
    let change_points =
      List.init (max 0 (depth - 1)) (fun i ->
          (1 + Det_rng.int rng !horizon, i + 1))
    in
    let floor_prio = ref (-1000) in
    let pick fair i current runnables =
      (match List.assoc_opt (i + 1) change_points with
      | Some demotion when current < max_threads ->
          (* demote the running thread below everything else *)
          prio.(current) <- -demotion
      | _ -> ());
      let pick =
        List.fold_left
          (fun best t ->
            let p tid = if tid < max_threads then prio.(tid) else 0 in
            if p t > p best then t else best)
          (List.hd runnables) runnables
      in
      (* livelock avoidance (deviation from pure PCT): a thread that
         spins through more than [fairness_window] consecutive steps
         while others are runnable is waiting on a lower-priority
         thread - demote it so the owner can make progress *)
      note_chosen fair pick;
      if
        fair.streak > fairness_window
        && List.length runnables > 1
        && pick < max_threads
      then begin
        decr floor_prio;
        prio.(pick) <- !floor_prio;
        fair.streak <- 0
      end;
      pick
    in
    let status, outcome, ndecisions = execute st pick in
    (* steady-state estimate of the run length in scheduling steps *)
    if status = Sched.Completed then horizon := max 32 (min ndecisions 4096);
    stop st outcome
  in
  (* A sampler's quota is its definition of the search, not a budget
     that cut an exhaustive walk short: completing [runs] samples
     without hitting [stop_when] is the search finishing, so it never
     reports [truncated]. (Cf. [explore], where [truncated] means
     [max_runs] stopped the DFS before the bounded tree was done.) *)
  search st (fun () ->
      for _ = 1 to runs do
        run_once ()
      done)
