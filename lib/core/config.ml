type versioning = Eager | Lazy | Mvcc
type isolation = Serializable | Snapshot
type validation = Incremental | Timestamp
type conflict_policy = Backoff | Raise_error

type t = {
  versioning : versioning;
  isolation : isolation;
  validation : validation;
  strong : bool;
  strong_reads : bool;
  strong_writes : bool;
  dea : bool;
  read_privacy_check : bool;
  granule : int;
  detect_nontxn_races : bool;
  quiescence : bool;
  conflict : conflict_policy;
  cm : Stm_cm.Policy.t;
  cm_seed : int;
  max_txn_retries : int;
  max_txn_restarts : int;
  validate_every : int;
  cost : Stm_runtime.Cost.t;
}

let base =
  {
    versioning = Eager;
    isolation = Serializable;
    validation = Incremental;
    strong = false;
    strong_reads = true;
    strong_writes = true;
    dea = false;
    read_privacy_check = true;
    granule = 1;
    detect_nontxn_races = false;
    quiescence = false;
    conflict = Backoff;
    cm = Stm_cm.Policy.Suicide;
    cm_seed = 0;
    max_txn_retries = 8;
    max_txn_restarts = 0;
    validate_every = 128;
    cost = Stm_runtime.Cost.default;
  }

let eager_weak = base
let lazy_weak = { base with versioning = Lazy }
let eager_strong = { base with strong = true }
let lazy_strong = { base with versioning = Lazy; strong = true }
let mvcc_weak = { base with versioning = Mvcc }
let mvcc_strong = { base with versioning = Mvcc; strong = true }
let with_dea t = { t with dea = true; read_privacy_check = true }
let with_granule granule t = { t with granule }
let with_quiescence t = { t with quiescence = true }
let with_cm cm t = { t with cm }
let with_isolation isolation t = { t with isolation }
let with_validation validation t = { t with validation }

let versioning_to_string = function
  | Eager -> "eager"
  | Lazy -> "lazy"
  | Mvcc -> "mvcc"

let versioning_of_string s =
  List.find_opt (fun v -> String.equal (versioning_to_string v) s) [ Eager; Lazy; Mvcc ]

let isolation_to_string = function
  | Serializable -> "serializable"
  | Snapshot -> "snapshot"

let isolation_of_string = function
  | "serializable" | "ser" -> Some Serializable
  | "snapshot" | "si" -> Some Snapshot
  | _ -> None

let validation_to_string = function
  | Incremental -> "incremental"
  | Timestamp -> "timestamp"

let validation_of_string = function
  | "incremental" | "inc" -> Some Incremental
  | "timestamp" | "ts" -> Some Timestamp
  | _ -> None

let describe t =
  let b = Buffer.create 32 in
  Buffer.add_string b (versioning_to_string t.versioning);
  Buffer.add_string b (if t.strong then "+strong" else "+weak");
  if t.versioning = Mvcc && t.isolation = Snapshot then
    Buffer.add_string b "+si";
  if t.versioning <> Mvcc && t.validation = Timestamp then
    Buffer.add_string b "+ts";
  if t.strong && not t.strong_reads then Buffer.add_string b "(writes-only)";
  if t.strong && not t.strong_writes then Buffer.add_string b "(reads-only)";
  if t.dea then Buffer.add_string b "+dea";
  if t.quiescence then Buffer.add_string b "+quiesce";
  if t.granule > 1 then Buffer.add_string b (Printf.sprintf "+granule%d" t.granule);
  (match t.cm with
  | Stm_cm.Policy.Suicide -> ()
  | Stm_cm.Policy.Wound_wait -> Buffer.add_string b "+woundwait"
  | p -> Buffer.add_string b ("+cm-" ^ Stm_cm.Policy.to_string p));
  Buffer.contents b

let pp ppf t = Fmt.string ppf (describe t)
