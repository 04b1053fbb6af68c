open Stm_core
open Stm_obs

(* Flight recorder: a bounded window of recent entries plus trigger
   logic. On an abort streak (or an external trigger such as a
   starvation verdict or a fuzzer anomaly) the current window is frozen
   into an incident; the incident can then be rendered as a post-mortem
   explaining the final abort end-to-end - conflict edge, barrier site,
   CM decision, and where the aggressor serialized. *)

type incident = {
  reason : string;
  at_step : int;  (* scheduler step of the triggering entry, -1 external *)
  tid : int;  (* thread the trigger fired for, -1 external *)
  streak : int;  (* consecutive aborts at trigger time, 0 external *)
  window : Recorder.entry list;  (* frozen, oldest first *)
  window_dropped : int;  (* entries lost to the ring before the freeze *)
}

type t = {
  ring : Recorder.entry Ring.t;
  streak_threshold : int;
  max_incidents : int;
  streaks : (int, int) Hashtbl.t;  (* tid -> consecutive aborts *)
  armed : (int, bool) Hashtbl.t;  (* tid -> may fire (rearms on commit) *)
  mutable incidents_rev : incident list;
  mutable nincidents : int;
}

let create ?(capacity = 512) ?(streak_threshold = 8) ?(max_incidents = 8) () =
  {
    ring = Ring.create ~capacity;
    streak_threshold;
    max_incidents;
    streaks = Hashtbl.create 8;
    armed = Hashtbl.create 8;
    incidents_rev = [];
    nincidents = 0;
  }

let freeze t ~reason ~at_step ~tid ~streak =
  if t.nincidents < t.max_incidents then begin
    t.incidents_rev <-
      {
        reason;
        at_step;
        tid;
        streak;
        window = Ring.to_list t.ring;
        window_dropped = Ring.dropped t.ring;
      }
      :: t.incidents_rev;
    t.nincidents <- t.nincidents + 1
  end

let force t ~reason =
  freeze t ~reason ~at_step:(-1) ~tid:(-1) ~streak:0

let armed t tid =
  match Hashtbl.find_opt t.armed tid with Some b -> b | None -> true

let record t (e : Recorder.entry) =
  Ring.push t.ring e;
  match e.Recorder.ev with
  | Trace.Txn_commit { tid; _ } ->
      Hashtbl.replace t.streaks tid 0;
      Hashtbl.replace t.armed tid true
  | Trace.Txn_abort { tid; _ } ->
      let s =
        1 + Option.value ~default:0 (Hashtbl.find_opt t.streaks tid)
      in
      Hashtbl.replace t.streaks tid s;
      if s >= t.streak_threshold && armed t tid then begin
        (* fire once per streak: re-arm only when the thread commits,
           otherwise every further abort would freeze a new incident *)
        Hashtbl.replace t.armed tid false;
        freeze t
          ~reason:
            (Printf.sprintf "thread %d aborted %d times in a row" tid s)
          ~at_step:e.Recorder.step ~tid ~streak:s
      end
  | _ -> ()

let incidents t = List.rev t.incidents_rev
let incident_count t = t.nincidents

(* ------------------------------------------------------------------ *)
(* Post-mortem rendering                                               *)
(* ------------------------------------------------------------------ *)

(* The last entry in [window] satisfying [p], scanning newest-first. *)
let find_last p window =
  List.fold_left (fun acc e -> if p e then Some e else acc) None window

let explain ?(resolve = fun _ -> None) (i : incident) =
  let b = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "incident: %s\n" i.reason;
  if i.window_dropped > 0 then
    pf "  (window bounded: %d older entries dropped)\n" i.window_dropped;
  (* the abort under explanation: the last one for the triggering
     thread, or the last one at all for external triggers *)
  let abort =
    find_last
      (fun (e : Recorder.entry) ->
        match e.Recorder.ev with
        | Trace.Txn_abort { tid; _ } -> i.tid < 0 || tid = i.tid
        | _ -> false)
      i.window
  in
  (match abort with
  | None -> pf "  no abort in the recorded window\n"
  | Some ae ->
      let txid, tid, cause, by, by_tid, oid, latency =
        match ae.Recorder.ev with
        | Trace.Txn_abort { txid; tid; cause; by; by_tid; oid; latency; _ } ->
            (txid, tid, cause, by, by_tid, oid, latency)
        | _ -> assert false
      in
      pf "  final abort: txn %d on thread %d, cause %s, %d cycles wasted (step %d)\n"
        txid tid (Trace.string_of_cause cause) latency ae.Recorder.step;
      (* conflict edge *)
      if by >= 0 || oid >= 0 then
        pf "  conflict edge: txn %d (thread %s) lost to txn %s (thread %s) over granule %s\n"
          txid (string_of_int tid)
          (if by >= 0 then string_of_int by else "?")
          (if by_tid >= 0 then string_of_int by_tid else "?")
          (if oid >= 0 then Printf.sprintf "@%d" oid else "?")
      else pf "  conflict edge: none recorded (no aggressor attribution)\n";
      (* barrier site: the last conflict episode for this thread (and
         granule, when known) names the access site that kept losing *)
      let conflict =
        find_last
          (fun (e : Recorder.entry) ->
            match e.Recorder.ev with
            | Trace.Conflict { tid = ctid; oid = coid; _ } ->
                ctid = tid && (oid < 0 || coid = oid)
            | _ -> false)
          i.window
      in
      (match conflict with
      | Some ce -> (
          match ce.Recorder.ev with
          | Trace.Conflict { site; cls; writer; oid = coid; _ } ->
              pf "  barrier site: %s (%s %s on %s@%d, step %d)\n"
                (Heatmap.site_label resolve site)
                (if writer then "write" else "read")
                "conflict" cls coid ce.Recorder.step
          | _ -> ())
      | None -> pf "  barrier site: no conflict episode in window\n");
      (* CM decision in force when the victim died *)
      let decision =
        find_last
          (fun (e : Recorder.entry) ->
            match e.Recorder.ev with
            | Trace.Cm_decision { txid = dtxid; _ } -> dtxid = txid
            | _ -> false)
          i.window
      in
      (match decision with
      | Some de -> (
          match de.Recorder.ev with
          | Trace.Cm_decision { policy; decision; owner; delay; _ } ->
              pf "  cm decision: %s chose %s%s (delay %d, step %d)\n" policy
                decision
                (if owner >= 0 then Printf.sprintf " vs txn %d" owner else "")
                delay de.Recorder.step
          | _ -> ())
      | None -> pf "  cm decision: none in window (Info-level trace?)\n");
      (* serialization order: where the aggressor got its work in *)
      let serialized =
        if by < 0 then None
        else
          find_last
            (fun (e : Recorder.entry) ->
              match e.Recorder.ev with
              | Trace.Txn_serialized { txid = stxid; _ } -> stxid = by
              | Trace.Txn_commit { txid = ctxid; _ } -> ctxid = by
              | _ -> false)
            i.window
      in
      (match serialized with
      | Some se ->
          let what =
            match se.Recorder.ev with
            | Trace.Txn_serialized _ -> "serialized"
            | _ -> "committed"
          in
          pf
            "  serialization order: aggressor txn %d %s at step %d; txn %d's \
             reads no longer belong to any consistent snapshot, so it had to \
             abort\n"
            by what se.Recorder.step txid
      | None ->
          if by >= 0 then
            pf
              "  serialization order: aggressor txn %d still held the granule \
               when txn %d gave up (no serialization in window)\n"
              by txid));
  Buffer.contents b

let to_json ?resolve (i : incident) =
  let r = Option.value ~default:(fun _ -> None) resolve in
  Json.Obj
    [
      ("reason", Json.Str i.reason);
      ("at_step", Json.Int i.at_step);
      ("tid", Json.Int i.tid);
      ("streak", Json.Int i.streak);
      ("window_dropped", Json.Int i.window_dropped);
      ("explanation", Json.Str (explain ~resolve:r i));
      ("window", Json.List (List.map (Export.entry_json r) i.window));
    ]
