open Stm_core

type cell = {
  program : Programs.t;
  mode : Modes.t;
  expected : bool;
  observed : bool;
  runs : int;
  truncated : bool;
  outcomes : (string * int) list;
}

(* Figure 6, transcribed. Columns: eager-weak, lazy-weak, locks,
   strong-eager, strong-lazy (the paper's single Strong column covers
   both versionings). *)
let expected_fig6 =
  [
    ("nr", [ true; true; true; false; false ]);
    ("gir", [ false; true; false; false; false ]);
    ("ilu", [ true; true; true; false; false ]);
    ("slu", [ true; false; false; false; false ]);
    ("glu", [ true; true; false; false; false ]);
    ("mi-ww", [ false; true; false; false; false ]);
    ("idr", [ true; false; true; false; false ]);
    ("sdr", [ true; false; false; false; false ]);
    ("mi-rw", [ false; true; false; false; false ]);
  ]

(* Extra litmus rows beyond Figure 6 (same column order). *)
let expected_extras =
  [
    (* 2.1 text: write-then-read; lazy reads its own buffer, so only
       eager-weak and unsynchronized locks exhibit it *)
    ("nr-wr", [ true; false; true; false; false ]);
    (* Section 4: committed transactions never keep dirty reads *)
    ("txn-dirty", [ false; false; false; false; false ]);
    (* The SI litmus programs are all-transactional (or read-only), so
       every serializable single-version mode keeps them clean *)
    ("write-skew", [ false; false; false; false; false ]);
    ("long-fork", [ false; false; false; false; false ]);
    ("ro-snapshot", [ false; false; false; false; false ]);
  ]

(* The multi-version columns, in Modes.all_mvcc order: weak-mvcc,
   weak-mvcc-si, strong-mvcc, strong-mvcc-si.

   Under weak mvcc a non-transactional store is a plain field write: it
   neither installs a version nor bumps the version stamp, so snapshot
   reads and first-committer-wins are both blind to it (nr, gir, ilu,
   glu). Strong barriers route those stores through the versioned
   one-store commit, closing all four. Aborts never write (buffered
   updates are simply dropped), so the speculative rows are clean even
   at weak atomicity, and commit write-back is a single scheduler-atomic
   section, so mi-rw's publication order is safe. mi-ww and
   privatization are the racing-commit shapes: serializable mvcc kills
   the racing transaction by commit-time read validation (it read the
   privatized pointer), while snapshot isolation - write sets are
   disjoint - lets it commit and clobber the privatizer's store.
   write-skew is the signature SI row; long-fork is admitted by the SI
   oracle but unreachable under a single global commit clock. *)
let expected_mvcc =
  [
    ("nr", [ true; true; false; false ]);
    ("gir", [ true; true; false; false ]);
    ("ilu", [ true; true; false; false ]);
    ("slu", [ false; false; false; false ]);
    ("glu", [ true; true; false; false ]);
    ("mi-ww", [ false; true; false; false ]);
    ("idr", [ false; false; false; false ]);
    ("sdr", [ false; false; false; false ]);
    ("mi-rw", [ false; false; false; false ]);
    ("nr-wr", [ false; false; false; false ]);
    ("txn-dirty", [ false; false; false; false ]);
    ("privatization", [ false; true; false; true ]);
    ("write-skew", [ false; true; false; true ]);
    ("long-fork", [ false; false; false; false ]);
    ("ro-snapshot", [ false; false; false; false ]);
  ]

(* A column's expectation does not depend on its validation scheme:
   timestamp validation is a performance scheme, not an isolation
   change, so modes are matched to table columns without it. *)
let column = function
  | Modes.Locks -> None
  | Modes.Stm { Point.backend = b; atomicity } ->
      Some (atomicity, Point.versioning b, Point.isolation b)

let expectation program mode =
  let lookup table modes =
    match List.assoc_opt program.Programs.name table with
    | Some row ->
        List.find_index (fun m -> column m = column mode) modes
        |> Option.map (List.nth row)
    | None -> None
  in
  match lookup (expected_fig6 @ expected_extras) Modes.all_fig6 with
  | Some e -> e
  | None -> (
      match lookup expected_mvcc Modes.all_mvcc with
      | Some e -> e
      | None -> (
          (* privatization under the classic columns: anomalous under
             both single-version weak modes only *)
          match mode with
          | Modes.Stm
              { Point.backend = Point.Eager _ | Point.Lazy _; atomicity = Point.Weak }
            ->
              true
          | Modes.Stm _ | Modes.Locks -> false))

(* Decide one cell: [engine] explores the mode's configuration at the
   program's granularity (or [granule]) with a fresh instance per run,
   and [cell] reads the verdict off an exploration. *)
let decide ?granule ?cm program mode engine =
  let granule = Option.value granule ~default:program.Programs.needs_granule in
  let cfg = Modes.config ~granule mode in
  (* contention management must not change which anomalies are
     expressible, so a policy override reuses every expectation *)
  let cfg = match cm with None -> cfg | Some p -> Config.with_cm p cfg in
  let make () = program.Programs.build (Modes.harness mode cfg) in
  let cell (e : Explorer.exploration) =
    {
      program;
      mode;
      expected = expectation program mode;
      observed = Explorer.observed e program.Programs.is_anomalous;
      runs = e.Explorer.runs;
      truncated = e.Explorer.truncated;
      outcomes = e.Explorer.outcomes;
    }
  in
  engine ~cfg ~make ~stop_when:program.Programs.is_anomalous cell

let run_cell ?(preemption_bound = 2) ?(max_runs = 6000) ?granule_override ?cm
    ?(exhaustive = false) program mode =
  decide ?granule:granule_override ?cm program mode
    (fun ~cfg ~make ~stop_when cell ->
      let stop_when = if exhaustive then None else Some stop_when in
      cell
        (Explorer.explore ~preemption_bound ~max_runs ?stop_when ~cfg ~make ()))

let grid ?preemption_bound ?max_runs ?cm programs modes =
  List.concat_map
    (fun program ->
      List.map
        (fun mode -> run_cell ?preemption_bound ?max_runs ?cm program mode)
        modes)
    programs

let fig6 ?preemption_bound ?max_runs ?cm () =
  grid ?preemption_bound ?max_runs ?cm Programs.fig6_rows Modes.all_fig6

let extras_rows ?preemption_bound ?max_runs ?cm () =
  grid ?preemption_bound ?max_runs ?cm Programs.extras Modes.all_fig6

let privatization_modes =
  Modes.all_fig6
  @ List.map
      (fun b -> Modes.Stm (Point.v b Point.Quiesce))
      [ Point.Eager Config.Incremental; Point.Lazy Config.Incremental ]

let privatization_row ?preemption_bound ?max_runs ?cm () =
  grid ?preemption_bound ?max_runs ?cm [ Programs.privatization ]
    privatization_modes

let run_cell_pct ?(runs = 2000) program mode =
  decide program mode (fun ~cfg ~make ~stop_when cell ->
      cell (Explorer.explore_pct ~runs ~stop_when ~cfg ~make ()))

let all_match cells = List.for_all (fun c -> c.expected = c.observed) cells

(* ------------------------------------------------------------------ *)
(* DPOR certification                                                  *)
(* ------------------------------------------------------------------ *)

type certified = {
  enum : cell;
  dpor : cell;
  complete : bool;
  races : int;
}

let certify_cell ?(preemption_bound = 2) ?(max_runs = 40_000) program mode =
  decide program mode (fun ~cfg ~make ~stop_when cell ->
      let enum =
        cell
          (Explorer.explore ~preemption_bound ~max_runs ~stop_when ~cfg ~make
             ())
      in
      let d =
        Explorer.explore_dpor ~preemption_bound ~max_runs ~stop_when ~cfg ~make
          ()
      in
      {
        enum;
        dpor = cell d.Explorer.exploration;
        complete = d.Explorer.complete;
        races = d.Explorer.races;
      })

(* A cell certifies when the two engines agree on the verdict and the
   certification is as strong as the enumerative baseline's: a "yes" is
   witness-based (completeness immaterial), a "no" must come from a
   complete DPOR walk whenever the baseline's own walk finished (the
   BPOR cross-check: any behavior the bounded reduction could drop would
   surface here as a flip or as an incompleteness the baseline lacks). *)
let cell_certified c =
  c.dpor.observed = c.enum.observed
  && (c.dpor.observed || c.complete || c.enum.truncated)

(* Every cell the matrix suites cover, in suite order, each paired with
   the preemption bound its expected witness needs: [bound] everywhere
   except the multi-version columns, whose snapshot-isolation
   privatization race takes three preemptions (park the racing committer
   mid-transaction, run the privatizer through its first plain read, let
   the commit land between the two reads). The full certification sweep
   of [stm_bench explore dpor] and the nightly CI job re-derive each
   cell with both engines at its listed bound. *)
let full_matrix ?(bound = 2) () =
  let pairs b programs modes =
    List.concat_map
      (fun program -> List.map (fun mode -> (program, mode, b)) modes)
      programs
  in
  let mvcc_bound = max bound 3 in
  pairs bound Programs.fig6_rows Modes.all_fig6
  @ pairs bound Programs.extras Modes.all_fig6
  @ pairs bound [ Programs.privatization ] privatization_modes
  @ pairs bound Programs.si_rows Modes.all_fig6
  @ pairs mvcc_bound Programs.si_rows Modes.all_mvcc
  @ pairs mvcc_bound Programs.all Modes.all_mvcc
  @ pairs bound Programs.fig6_rows Modes.all_timestamp

let pp_certified ppf c =
  let verdict b = if b then "yes" else "no" in
  Fmt.pf ppf "%-14s %-14s enum=%-3s/%-6d dpor=%-3s/%-6d %s races=%d%s"
    c.enum.program.Programs.name
    (Mode.name c.enum.mode)
    (verdict c.enum.observed) c.enum.runs (verdict c.dpor.observed) c.dpor.runs
    (if c.complete then "complete" else "bounded ")
    c.races
    (if cell_certified c then "" else "  FLIP")

let pp_cell ppf c =
  let mark = if c.observed then "yes" else "no " in
  let ok = if c.expected = c.observed then ' ' else '!' in
  Fmt.pf ppf "%s%c" mark ok

let pp_table ppf cells =
  (* group rows by program, in first-appearance order *)
  let progs =
    List.fold_left
      (fun acc c ->
        if List.exists (fun p -> p.Programs.name = c.program.Programs.name) acc
        then acc
        else acc @ [ c.program ])
      [] cells
  in
  let modes =
    List.fold_left
      (fun acc c -> if List.mem c.mode acc then acc else acc @ [ c.mode ])
      [] cells
  in
  Fmt.pf ppf "%-8s %-6s" "anomaly" "fig";
  List.iter (fun m -> Fmt.pf ppf " %-14s" (Mode.name m)) modes;
  Fmt.pf ppf "@.";
  List.iter
    (fun p ->
      Fmt.pf ppf "%-8s %-6s" p.Programs.name p.Programs.figure;
      List.iter
        (fun m ->
          match
            List.find_opt
              (fun c ->
                c.program.Programs.name = p.Programs.name && c.mode = m)
              cells
          with
          | Some c -> Fmt.pf ppf " %-14s" (Fmt.str "%a" pp_cell c)
          | None -> Fmt.pf ppf " %-14s" "-")
        modes;
      Fmt.pf ppf "@.")
    progs
