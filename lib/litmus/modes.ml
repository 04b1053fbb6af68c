open Stm_core
open Stm_runtime

type t = Mode.t = Locks | Stm of Point.t

let stm backend atomicity = Stm (Point.v backend atomicity)

(* Weak then strong, each over [backends]. *)
let columns backends =
  List.concat_map
    (fun a -> List.map (fun b -> stm b a) backends)
    [ Point.Weak; Point.Strong ]

let all_fig6 =
  let eager = Point.Eager Config.Incremental
  and lazy_ = Point.Lazy Config.Incremental in
  [
    stm eager Point.Weak;
    stm lazy_ Point.Weak;
    Locks;
    stm eager Point.Strong;
    stm lazy_ Point.Strong;
  ]

(* The multi-version columns: serializable and snapshot isolation, each
   at weak and strong atomicity. Order is the column order of the
   expectation tables in Matrix. *)
let all_mvcc = columns [ Point.Mvcc Config.Serializable; Point.Mvcc Config.Snapshot ]

(* The timestamp-validation columns: the fig6 STM modes with
   [Config.Timestamp] switched on. Expectations are the base modes' —
   the scheme must change performance, never verdicts. *)
let all_timestamp = columns [ Point.Eager Config.Timestamp; Point.Lazy Config.Timestamp ]

let name = Mode.name

let config ?(granule = 1) mode =
  { (Mode.config mode) with Config.validate_every = 1; cost = Cost.free; granule }

type harness = {
  atomic : (unit -> unit) -> unit;
  force_abort : unit -> unit;
}

let harness mode (cfg : Config.t) =
  match mode with
  | Locks ->
      let lock = Sim_mutex.create ~name:"litmus" cfg.cost in
      { atomic = (fun f -> Sim_mutex.with_lock lock f); force_abort = (fun () -> ()) }
  | Stm _ ->
      let fired = ref false in
      {
        atomic = (fun f -> Stm.atomic f);
        force_abort =
          (fun () ->
            if not !fired then begin
              fired := true;
              raise Txn.Abort_txn
            end);
      }
