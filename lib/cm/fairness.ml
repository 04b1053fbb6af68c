(* Per-thread progress accounting. Fed from commit/abort events (by the
   core's stats hook or by the obs layer replaying a trace), queried by
   the stress harness and the metrics exporter. *)

type entry = {
  mutable commits : int;
  mutable aborts : int;
  mutable consec_aborts : int;
  mutable max_consec_aborts : int;
  mutable wasted_cycles : int;
}

type t = { entries : (int, entry) Hashtbl.t }

let create () = { entries = Hashtbl.create 8 }

let entry t tid =
  match Hashtbl.find_opt t.entries tid with
  | Some e -> e
  | None ->
      let e =
        {
          commits = 0;
          aborts = 0;
          consec_aborts = 0;
          max_consec_aborts = 0;
          wasted_cycles = 0;
        }
      in
      Hashtbl.replace t.entries tid e;
      e

let on_commit t ~tid =
  let e = entry t tid in
  e.commits <- e.commits + 1;
  e.consec_aborts <- 0

let on_abort t ~tid ~wasted =
  let e = entry t tid in
  e.aborts <- e.aborts + 1;
  e.consec_aborts <- e.consec_aborts + 1;
  if e.consec_aborts > e.max_consec_aborts then
    e.max_consec_aborts <- e.consec_aborts;
  e.wasted_cycles <- e.wasted_cycles + Int.max 0 wasted

let threads t =
  Hashtbl.fold (fun tid _ acc -> tid :: acc) t.entries [] |> List.sort Int.compare

let commits t ~tid = match Hashtbl.find_opt t.entries tid with Some e -> e.commits | None -> 0
let aborts t ~tid = match Hashtbl.find_opt t.entries tid with Some e -> e.aborts | None -> 0

let max_consec_aborts_of t ~tid =
  match Hashtbl.find_opt t.entries tid with
  | Some e -> e.max_consec_aborts
  | None -> 0

let wasted_cycles t ~tid =
  match Hashtbl.find_opt t.entries tid with Some e -> e.wasted_cycles | None -> 0

let max_consec_aborts t =
  Hashtbl.fold (fun _ e acc -> Int.max acc e.max_consec_aborts) t.entries 0

let total_commits t = Hashtbl.fold (fun _ e acc -> acc + e.commits) t.entries 0

(* Jain's fairness index over per-thread commit counts:
   (sum x)^2 / (n * sum x^2). 1.0 = perfectly fair, 1/n = one thread got
   everything. 1.0 by convention when nothing committed anywhere. *)
let jain t =
  let n = Hashtbl.length t.entries in
  if n = 0 then 1.0
  else
    let sum, sumsq =
      Hashtbl.fold
        (fun _ e (s, s2) ->
          let x = float_of_int e.commits in
          (s +. x, s2 +. (x *. x)))
        t.entries (0.0, 0.0)
    in
    if sumsq = 0.0 then 1.0 else sum *. sum /. (float_of_int n *. sumsq)

(* A thread is starved when it keeps losing: it exceeded the
   consecutive-abort threshold, or it aborted at least once and never
   managed a single commit. *)
let starved t ~threshold =
  Hashtbl.fold
    (fun tid e acc ->
      if e.max_consec_aborts >= threshold || (e.aborts > 0 && e.commits = 0)
      then tid :: acc
      else acc)
    t.entries []
  |> List.sort Int.compare

let copy t =
  let c = create () in
  Hashtbl.iter
    (fun tid e -> Hashtbl.replace c.entries tid { e with commits = e.commits })
    t.entries;
  c

(* Counts subtract cleanly; streak maxima cannot be windowed after the
   fact, so [sub] keeps the later snapshot's values (an upper bound for
   the window). *)
let sub later earlier =
  let r = copy later in
  Hashtbl.iter
    (fun tid e ->
      let re = entry r tid in
      re.commits <- re.commits - e.commits;
      re.aborts <- re.aborts - e.aborts;
      re.wasted_cycles <- re.wasted_cycles - e.wasted_cycles)
    earlier.entries;
  r

let to_assoc t =
  threads t
  |> List.map (fun tid ->
         let e = entry t tid in
         ( tid,
           [
             ("commits", e.commits);
             ("aborts", e.aborts);
             ("max_consec_aborts", e.max_consec_aborts);
             ("wasted_cycles", e.wasted_cycles);
           ] ))
