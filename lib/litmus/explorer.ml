open Stm_runtime

type exploration = {
  outcomes : (string * int) list;
  runs : int;
  truncated : bool;
  livelocks : int;
  deadlocks : int;
}

type instance = { main : unit -> unit; observe : unit -> string }

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

(* [List.mem] on tids without the polymorphic compare. *)
let rec mem_tid (t : Sched.tid) = function
  | [] -> false
  | u :: rest -> u = t || mem_tid t rest

(* The first tid above [t] in an ascending list, or [-1]. *)
let rec first_above (t : Sched.tid) = function
  | [] -> -1
  | u :: rest -> if u > t then u else first_above t rest

let default_pick f current runnables =
  if mem_tid current runnables then
    if f.last = current && f.streak >= fairness_window then
      match first_above current runnables with
      | -1 -> List.hd runnables
      | t -> t
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
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
    runs = st.runs;
    truncated = st.truncated;
    livelocks = st.livelocks;
    deadlocks = st.deadlocks;
  }

(* The decisions of one [explore] run: the choice and the ready list
   [Sched] handed the policy (the alternatives are its other tids; being
   immutable, the list is a correct snapshot), in grow-only arrays
   reused by every run at the same DFS depth. *)
type trail = {
  mutable t_chosen : Sched.tid array;
  mutable t_ready : Sched.tid list array;
  mutable t_len : int;
}

let new_trail () = { t_chosen = [||]; t_ready = [||]; t_len = 0 }

let trail_record tr chosen ready =
  let i = tr.t_len in
  if i = Array.length tr.t_chosen then begin
    let n = Int.max 64 (2 * i) in
    let chosen' = Array.make n 0 and ready' = Array.make n [] in
    Array.blit tr.t_chosen 0 chosen' 0 i;
    Array.blit tr.t_ready 0 ready' 0 i;
    tr.t_chosen <- chosen';
    tr.t_ready <- ready'
  end;
  tr.t_chosen.(i) <- chosen;
  tr.t_ready.(i) <- ready;
  tr.t_len <- i + 1

let explore ?(preemption_bound = 2) ?(max_runs = 40_000) ?(max_steps = 60_000)
    ?stop_when ~cfg ~make () =
  let st = start ~max_runs ~max_steps ?stop_when ~cfg ~make () in
  (* A run at depth [d] (its prefix injects [d] non-default choices)
     branches while [d] is under the bound, and records into
     [trails.(d)]. Its children replay their prefix from that trail,
     which stays as it is while they record into the next depth's. *)
  let trails = Array.init (Int.max 0 preemption_bound) (fun _ -> new_trail ()) in
  (* Run one schedule whose prefix is [src]'s first [flip] choices, then
     [alt] at decision [flip]; the default policy takes the rest. The
     root run has no prefix: [flip] is -1. *)
  let execute depth ~src ~flip ~alt =
    let branching = depth < preemption_bound in
    let tr = if branching then trails.(depth) else src in
    if branching then tr.t_len <- 0;
    let pick fair i current runnables =
      let chosen =
        if i < flip then src.t_chosen.(i)
        else if i = flip then alt
        else default_pick fair current runnables
      in
      note_chosen fair chosen;
      if branching then trail_record tr chosen runnables;
      chosen
    in
    let _, outcome, _ = execute st pick in
    stop st outcome
  in
  (* DFS over the scheduling tree: below a branching run, every ready
     alternative at every decision after its prefix, in decision order
     and then ready-list order. *)
  let rec dfs depth ~src ~flip ~alt =
    execute depth ~src ~flip ~alt;
    if depth < preemption_bound then begin
      let tr = trails.(depth) in
      for i = flip + 1 to tr.t_len - 1 do
        branch depth tr i tr.t_ready.(i)
      done
    end
  and branch depth tr i = function
    | [] -> ()
    | alt :: rest ->
        if alt <> tr.t_chosen.(i) then dfs (depth + 1) ~src:tr ~flip:i ~alt;
        branch depth tr i rest
  in
  search st (fun () -> dfs 0 ~src:(new_trail ()) ~flip:(-1) ~alt:(-1))

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

(* A segment footprint: the granules a segment touched, each with its
   strongest access level. 2 = write, 1 = read, 0 = futile spin-wait
   re-read ({!Stm_runtime.Footprint.Spin_read}). A write is {e dependent}
   on all three (it must be ordered against them for the happens-before
   pass), but only write/write and write/read pairs are {e races} worth
   reversing: flipping a write against a futile spin iteration merely
   changes how often the waiter re-checks before the same exit — the
   spin-assume reduction of await loops.

   A segment touches a handful of granules (at most five across the
   Figure-6 matrix), so the footprint is two parallel int arrays filled
   by a linear find-or-add, and the conflict test is a nested scan. *)
module Fp = struct
  type t = {
    mutable oids : int array;
    mutable lvs : int array;  (* [lvs.(k)] is the level on [oids.(k)] *)
    mutable len : int;  (* live prefix of both arrays *)
  }

  let capacity = 4

  let create () =
    { oids = Array.make capacity 0; lvs = Array.make capacity 0; len = 0 }

  let clear f = f.len <- 0
  let length f = f.len

  let grow f =
    let n = Array.length f.oids in
    let oids = Array.make (2 * n) 0 and lvs = Array.make (2 * n) 0 in
    Array.blit f.oids 0 oids 0 n;
    Array.blit f.lvs 0 lvs 0 n;
    f.oids <- oids;
    f.lvs <- lvs

  let add f oid lv =
    let n = f.len and oids = f.oids in
    let k = ref 0 in
    while !k < n && oids.(!k) <> oid do
      incr k
    done;
    if !k < n then begin
      if lv > f.lvs.(!k) then f.lvs.(!k) <- lv
    end
    else begin
      if n = Array.length oids then grow f;
      f.oids.(n) <- oid;
      f.lvs.(n) <- lv;
      f.len <- n + 1
    end

  let level f oid =
    let k = ref 0 in
    while !k < f.len && f.oids.(!k) <> oid do
      incr k
    done;
    if !k < f.len then f.lvs.(!k) else -1

  (* Dependency: a shared granule at least one side writes (spin reads
     included — ordering matters even where reversal is pointless). *)
  let conflicts a b =
    let found = ref false and i = ref 0 in
    while (not !found) && !i < a.len do
      let oid = a.oids.(!i) and la = a.lvs.(!i) in
      let j = ref 0 in
      while (not !found) && !j < b.len do
        if b.oids.(!j) = oid && (la = 2 || b.lvs.(!j) = 2) then found := true;
        incr j
      done;
      incr i
    done;
    !found
end

let level = function
  | Footprint.Spin_read -> 0
  | Footprint.Read -> 1
  | Footprint.Write -> 2

(* The race pass's per-granule tables: for granule [d] (a dense index)
   and thread [u], slot [d * nt + u] holds the thread's latest segment
   that accessed the granule, that segment's level on it, and its latest
   segment that wrote it; -1 = none. *)
type granules = {
  gindex : int Int_index.t;  (* granule id -> dense index, -1 = none *)
  mutable acc : int array;
  mutable acc_lv : int array;
  mutable wr : int array;
  mutable ng : int;  (* dense indices in use *)
}

(* The dense index of granule [oid], allocating one on first sight. *)
let granule_slot g nt oid =
  let d = Int_index.find g.gindex oid in
  if d >= 0 then d
  else begin
    let d = g.ng in
    if (d + 1) * nt > Array.length g.acc then begin
      let n = Array.length g.acc in
      let grow a fill =
        let a' = Array.make (2 * n) fill in
        Array.blit a 0 a' 0 n;
        a'
      in
      g.acc <- grow g.acc (-1);
      g.acc_lv <- grow g.acc_lv 0;
      g.wr <- grow g.wr (-1)
    end;
    Int_index.replace g.gindex oid d;
    g.ng <- d + 1;
    d
  end

(* Row [dst] of the clock matrix takes the pointwise max with row [src]. *)
let join clocks nt dst src =
  for u = 0 to nt - 1 do
    let v = clocks.(src + u) in
    if v > clocks.(dst + u) then clocks.(dst + u) <- v
  done

let rec max_tid acc = function
  | [] -> acc
  | (t : Sched.tid) :: rest -> max_tid (if t > acc then t else acc) rest

(* Enabledness edges out of segment [j]: a thread in [now] (runnable at
   decision [j + 1]) but not in [before] (at [j]) was enabled by segment
   [j]; the edge targets that thread's next segment after [j], found by
   advancing its [cursor] along [next], and joins row [j] into it. *)
let rec enable clocks nt ~cursor ~next ~m ~j before now =
  match now with
  | [] -> ()
  | u :: rest ->
      if not (mem_tid u before) then begin
        while cursor.(u) <= j do
          cursor.(u) <- next.(cursor.(u))
        done;
        if cursor.(u) < m then join clocks nt (cursor.(u) * nt) (j * nt)
      end;
      enable clocks nt ~cursor ~next ~m ~j before rest

(* Vector-clock pass over the first [m] segments of one run. Dependent =
   same thread (program order), enabledness edge, or footprint conflict;
   each conflicting pair not already ordered is an immediate race. Races
   are reported only for [j >= start]: earlier pairs were analyzed when
   their segments first executed.

   A segment's conflict candidates come from the granule index, one per
   other thread and shared granule: the thread's latest accessor if the
   segment writes the granule, its latest writer otherwise. That is
   exact, not an approximation: candidates are tested nearest first, and
   a thread's earlier conflicting segment precedes the latest one in
   program order, so by the time it is reached the latest one's clock
   has been joined and already orders it; the join it would add is a
   no-op. Same-thread candidates are dropped for the same reason: the
   program-order join already orders them.

   Everything lives in flat int arrays: the clocks are one [m * nt]
   matrix (row [j] is segment [j]'s clock), and an enabledness edge
   from segment [i] is joined into its target's row as soon as row [i]
   is final, before the target is reached. *)
let race_pass ~m ~(chosen : Sched.tid array) ~(runnables : Sched.tid list array)
    ~(footprints : Fp.t array) ~start =
  if m = 0 then []
  else begin
    let nt = ref 0 in
    for j = 0 to m - 1 do
      if chosen.(j) > !nt then nt := chosen.(j);
      nt := max_tid !nt runnables.(j)
    done;
    let nt = !nt + 1 in
    (* per-segment local index within its thread (1-based), and the
       thread's next segment ([m] = none); [cursor.(t)] walks thread
       [t]'s segments for the enabledness edges *)
    let local = Array.make m 0 and next = Array.make m m in
    let cursor = Array.make nt m and count = Array.make nt 0 in
    for j = 0 to m - 1 do
      let t = chosen.(j) in
      count.(t) <- count.(t) + 1;
      local.(j) <- count.(t)
    done;
    for j = m - 1 downto 0 do
      let t = chosen.(j) in
      next.(j) <- cursor.(t);
      cursor.(t) <- j
    done;
    let clocks = Array.make (m * nt) 0 in
    let last_seg = Array.make nt (-1) in
    let g =
      {
        gindex = Int_index.create (-1);
        acc = Array.make (8 * nt) (-1);
        acc_lv = Array.make (8 * nt) 0;
        wr = Array.make (8 * nt) (-1);
        ng = 0;
      }
    in
    (* this segment's candidates, deduplicated by [stamp.(i) = j]; a
       candidate is a reversible race (write/write or write/read on
       some shared granule) rather than merely ordering-relevant
       (write/spin-read) iff [race.(i)] *)
    let stamp = Array.make m (-1) and race = Array.make m false in
    let cands = Array.make m 0 in
    let found = ref [] in
    for j = 0 to m - 1 do
      let t = chosen.(j) in
      let row = j * nt in
      if last_seg.(t) >= 0 then join clocks nt row (last_seg.(t) * nt);
      let f = footprints.(j) in
      let ncands = ref 0 in
      for k = 0 to f.Fp.len - 1 do
        let d = Int_index.find g.gindex f.Fp.oids.(k) in
        if d >= 0 then begin
          let lv = f.Fp.lvs.(k) and base = d * nt in
          for u = 0 to nt - 1 do
            if u <> t then begin
              let i = if lv = 2 then g.acc.(base + u) else g.wr.(base + u) in
              if i >= 0 then begin
                let r = if lv = 2 then g.acc_lv.(base + u) >= 1 else lv = 1 in
                if stamp.(i) <> j then begin
                  stamp.(i) <- j;
                  race.(i) <- r;
                  cands.(!ncands) <- i;
                  incr ncands
                end
                else if r then race.(i) <- true
              end
            end
          done
        end
      done;
      (* nearest first, so that a chain through a later conflict orders
         the earlier ones before they are tested (only immediate races
         get reversed): an insertion sort, descending *)
      let n = !ncands in
      for a = 1 to n - 1 do
        let x = cands.(a) in
        let b = ref (a - 1) in
        while !b >= 0 && cands.(!b) < x do
          cands.(!b + 1) <- cands.(!b);
          decr b
        done;
        cands.(!b + 1) <- x
      done;
      for a = 0 to n - 1 do
        let i = cands.(a) in
        if race.(i) && clocks.(row + chosen.(i)) < local.(i) && j >= start then
          (* unordered reversible pair: an immediate race *)
          found := (i, j) :: !found;
        join clocks nt row (i * nt)
      done;
      clocks.(row + t) <- local.(j);
      last_seg.(t) <- j;
      for k = 0 to f.Fp.len - 1 do
        let lv = f.Fp.lvs.(k) in
        let p = (granule_slot g nt f.Fp.oids.(k) * nt) + t in
        g.acc.(p) <- j;
        g.acc_lv.(p) <- lv;
        if lv = 2 then g.wr.(p) <- j
      done;
      (* enabledness edges: a thread runnable at decision [j + 1] but not
         at [j] was enabled by segment [j]; the edge targets that
         thread's next segment after [j] *)
      if j + 1 < m then enable clocks nt ~cursor ~next ~m ~j runnables.(j) runnables.(j + 1)
    done;
    List.rev !found
  end

let races ~chosen ~runnables ~footprints ~start =
  race_pass ~m:(Array.length chosen) ~chosen ~runnables ~footprints ~start

(* A sleep set: threads whose next segment (with that footprint) is
   already covered by a sibling branch of an ancestor. A thread appears
   at most once. Only membership matters, never the order. *)
type sleep = (Sched.tid * Fp.t) list

let rec asleep (t : Sched.tid) = function
  | [] -> false
  | (u, _) :: rest -> u = t || asleep t rest

(* The sleepers whose pending step does not conflict with [f]: those it
   conflicts with wake up. Returns the list itself when nobody wakes. *)
let rec keep_asleep f (sl : sleep) =
  match sl with
  | [] -> []
  | ((_, g) as s) :: rest ->
      let rest' = keep_asleep f rest in
      if Fp.conflicts g f then rest'
      else if rest' == rest then sl
      else s :: rest'

(* [sl] without thread [t]; the list itself when [t] is not in it. *)
let rec without (t : Sched.tid) (sl : sleep) =
  match sl with
  | [] -> []
  | ((u, _) as s) :: rest ->
      let rest' = without t rest in
      if u = t then rest' else if rest' == rest then sl else s :: rest'

(* [acc] plus the explored choices of [dn] other than [chosen] that are
   not asleep in [entry]: siblings explored earlier from a node, which go
   to sleep for the branch below [chosen]. *)
let rec add_fresh (chosen : Sched.tid) entry (acc : sleep) (dn : sleep) =
  match dn with
  | [] -> acc
  | ((t, _) as d) :: rest ->
      add_fresh chosen entry
        (if t <> chosen && not (asleep t entry) then d :: acc else acc)
        rest

(* The first runnable not asleep, or [-1]. *)
let rec first_awake (sl : sleep) = function
  | [] -> -1
  | t :: rest -> if asleep t sl then first_awake sl rest else t

(* One node of the schedule tree: the pre-state of segment [i], i.e.
   the state in which scheduling decision [i] is taken. Determinism of
   the simulation means the prefix of choices identifies the state, so
   the node can cache what every visit re-derives identically. *)
type node = {
  n_runnables : Sched.tid list;
  n_default : Sched.tid;  (* what the default policy picks here *)
  mutable n_chosen : Sched.tid;  (* choice of the branch being explored *)
  mutable n_done : sleep;
      (* explored choices, each with the footprint of its first segment *)
  mutable n_backtrack : Sched.tid list;  (* pending race reversals *)
  n_sleep : sleep;  (* the entry sleep set *)
  n_preemptions : int;  (* non-default choices among strict ancestors *)
}

(* The decisions of one run, before they have nodes, and their segment
   footprints: grow-only arrays reused by every run of a search, with
   [len] decisions recorded (and as many footprints) this run. *)
type record = {
  mutable r_chosen : Sched.tid array;
  mutable r_default : Sched.tid array;
  mutable r_runnables : Sched.tid list array;
  mutable r_sleep : sleep array;  (* entry sleep set at each decision *)
  mutable r_fps : Fp.t array;
  mutable len : int;
  mutable nfps : int;
}

let empty_fp = Fp.create ()

let new_record () =
  {
    r_chosen = [||];
    r_default = [||];
    r_runnables = [||];
    r_sleep = [||];
    r_fps = [||];
    len = 0;
    nfps = 0;
  }

let grow_record r =
  let n = Int.max 64 (2 * Array.length r.r_chosen) in
  let grow a fill =
    let a' = Array.make n fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  in
  r.r_chosen <- grow r.r_chosen 0;
  r.r_default <- grow r.r_default 0;
  r.r_runnables <- grow r.r_runnables [];
  r.r_sleep <- grow r.r_sleep [];
  r.r_fps <- grow r.r_fps empty_fp

let record_decision r chosen default runnables sleep =
  let i = r.len in
  if i = Array.length r.r_chosen then grow_record r;
  r.r_chosen.(i) <- chosen;
  r.r_default.(i) <- default;
  r.r_runnables.(i) <- runnables;
  r.r_sleep.(i) <- sleep;
  r.len <- i + 1

(* Footprints trail decisions by one, so the array always has room. *)
let record_fp r f =
  r.r_fps.(r.nfps) <- f;
  r.nfps <- r.nfps + 1

(* Run one schedule under the footprint sink, recording into [r].
   [prefix] replays the current branch; free decisions follow the
   default policy, except that a default whose next step is asleep is
   swapped for a non-sleeping runnable. Records the decisions (capped at
   [analysis_horizon]) and their footprints; returns the scheduler
   status, the number of decisions and the outcome. *)
let execute_dpor st r ~(nodes : node array) ~nnodes prefix =
  r.len <- 0;
  r.nfps <- 0;
  let cur_fp = ref (Fp.create ()) in
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
        record_fp r !cur_fp
      end;
      let default = default_pick fair current runnables in
      note_chosen fair default;
      default
    end
    else begin
      (* close the previous segment (the pre-first-decision preamble is
         discarded: it is a fixed prefix of every schedule) and wake
         sleepers whose pending step conflicts with it *)
      if i > 0 then begin
        let prev_fp = !cur_fp in
        record_fp r prev_fp;
        cur_sleep := keep_asleep prev_fp !cur_sleep;
        cur_fp := Fp.create ()
      end
      else Fp.clear !cur_fp;
      let entry_sleep = !cur_sleep in
      let default =
        let policy_default = default_pick fair current runnables in
        match entry_sleep with
        | _ :: _ when asleep policy_default entry_sleep -> (
            (* the policy default's next step is covered by an explored
               sibling: divert to a non-sleeping runnable. The divert is
               the effective default — it is not a preemption the search
               chose, so it is not charged against the bound. *)
            match first_awake entry_sleep runnables with
            | -1 -> policy_default
            | t -> t)
        | _ -> policy_default
      in
      let chosen = if i < Array.length prefix then prefix.(i) else default in
      note_chosen fair chosen;
      (* siblings explored earlier from this node go to sleep for the
         branch below [chosen] *)
      let kept = without chosen entry_sleep in
      cur_sleep :=
        if i < nnodes then add_fresh chosen entry_sleep kept nodes.(i).n_done
        else kept;
      record_decision r chosen default runnables entry_sleep;
      chosen
    end
  in
  let sink oid k = if !recording then Fp.add !cur_fp oid (level k) in
  let status, outcome, ndecisions = execute ~sink st pick in
  (* close the final segment *)
  if ndecisions > 0 && !recording then record_fp r !cur_fp;
  (status, ndecisions, outcome)

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
  let r = new_record () in
  (* growable stack of schedule-tree nodes along the current branch *)
  let nodes = ref [||] in
  let nnodes = ref 0 in
  let push_node nd =
    if !nnodes = Array.length !nodes then begin
      let bigger = Array.make (Int.max 64 (2 * Array.length !nodes)) nd in
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
  let insert_backtrack i j =
    let nd = !nodes.(i) in
    let covered t =
      asleep t nd.n_done || mem_tid t nd.n_backtrack || asleep t nd.n_sleep
    in
    let add t = if not (covered t) then nd.n_backtrack <- t :: nd.n_backtrack in
    let tj = r.r_chosen.(j) in
    if mem_tid tj nd.n_runnables then add tj
    else List.iter add nd.n_runnables
  in
  let run_branch prefix =
    let status, ndec, outcome =
      execute_dpor st r ~nodes:!nodes ~nnodes:!nnodes prefix
    in
    let m = r.len in
    (* a run that reached a final state (completed or deadlocked) and
       outran the horizon leaves races unanalyzed; a fuel-exhausted one
       is an unfair spin whose suffix adds no new final state
       (documented caveat) *)
    if status <> Sched.Fuel_exhausted && ndec > m then complete := false;
    let base = !nnodes in
    (* the flipped node's new branch enters its done set *)
    if base > 0 && m >= base then begin
      let k = base - 1 in
      let nd = !nodes.(k) in
      nd.n_done <- (r.r_chosen.(k), r.r_fps.(k)) :: nd.n_done
    end;
    for i = base to m - 1 do
      let preempt =
        if i = 0 then 0
        else
          let p = !nodes.(i - 1) in
          p.n_preemptions + (if p.n_chosen <> p.n_default then 1 else 0)
      in
      push_node
        {
          n_runnables = r.r_runnables.(i);
          n_default = r.r_default.(i);
          n_chosen = r.r_chosen.(i);
          n_done = [ (r.r_chosen.(i), r.r_fps.(i)) ];
          n_backtrack = [];
          n_sleep = r.r_sleep.(i);
          n_preemptions = preempt;
        }
    done;
    (* only races whose later segment is new in this run, from the
       flipped decision [base - 1] on: earlier pairs were analyzed by the
       run that first executed them *)
    List.iter
      (fun (i, j) ->
        incr nraces;
        insert_backtrack i j)
      (race_pass ~m ~chosen:r.r_chosen ~runnables:r.r_runnables
         ~footprints:r.r_fps ~start:(Int.max 0 (base - 1)));
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
            if asleep t nd.n_done || asleep t nd.n_sleep || not (bound_ok nd t)
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

(* The demotion scheduled at decision [at], or -1: [List.assoc_opt] on
   int keys without the polymorphic compare. *)
let rec demotion_at (at : int) = function
  | [] -> -1
  | (k, demotion) :: rest -> if k = at then demotion else demotion_at at rest

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
      List.init (Int.max 0 (depth - 1)) (fun i ->
          (1 + Det_rng.int rng !horizon, i + 1))
    in
    let floor_prio = ref (-1000) in
    let pick fair i current runnables =
      (match demotion_at (i + 1) change_points with
      | -1 -> ()
      | demotion ->
          (* demote the running thread below everything else *)
          if current < max_threads then prio.(current) <- -demotion);
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
    if status = Sched.Completed then horizon := Int.max 32 (Int.min ndecisions 4096);
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
