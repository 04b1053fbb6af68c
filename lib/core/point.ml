type backend =
  | Eager of Config.validation
  | Lazy of Config.validation
  | Mvcc of Config.isolation

type atomicity = Weak | Strong | Dea | Quiesce
type t = { backend : backend; atomicity : atomicity }

let make backend atomicity =
  match (backend, atomicity) with
  | Mvcc _, Quiesce -> None
  | _ -> Some { backend; atomicity }

let v backend atomicity =
  match make backend atomicity with
  | Some t -> t
  | None -> invalid_arg "Point.v: quiescence needs a single-version backend"

let backends =
  [
    Eager Config.Incremental;
    Lazy Config.Incremental;
    Mvcc Config.Serializable;
    Mvcc Config.Snapshot;
    Eager Config.Timestamp;
    Lazy Config.Timestamp;
  ]

let atomicities = [ Weak; Strong; Dea; Quiesce ]

let all =
  List.concat_map (fun b -> List.filter_map (make b) atomicities) backends

let backend_of versioning isolation validation =
  match (versioning, isolation, validation) with
  | Config.Eager, Config.Serializable, v -> Some (Eager v)
  | Config.Lazy, Config.Serializable, v -> Some (Lazy v)
  | Config.Mvcc, i, Config.Incremental -> Some (Mvcc i)
  | (Config.Eager | Config.Lazy), Config.Snapshot, _
  | Config.Mvcc, _, Config.Timestamp ->
      None

let versioning = function
  | Eager _ -> Config.Eager
  | Lazy _ -> Config.Lazy
  | Mvcc _ -> Config.Mvcc

let isolation = function
  | Eager _ | Lazy _ -> Config.Serializable
  | Mvcc i -> i

let validation = function
  | Eager v | Lazy v -> v
  | Mvcc _ -> Config.Incremental

(* The default axis is silent; the other one is a suffix. *)
let backend_name b =
  Config.versioning_to_string (versioning b)
  ^
  match b with
  | Eager Config.Timestamp | Lazy Config.Timestamp -> "-ts"
  | Mvcc Config.Snapshot -> "-si"
  | Eager Config.Incremental | Lazy Config.Incremental
  | Mvcc Config.Serializable ->
      ""

let atomicity_name = function
  | Weak -> "weak"
  | Strong -> "strong"
  | Dea -> "dea"
  | Quiesce -> "quiesce"

let name t = atomicity_name t.atomicity ^ "-" ^ backend_name t.backend
let find f s l = List.find_opt (fun x -> String.equal (f x) s) l
let atomicity_of_name s = find atomicity_name s atomicities
let of_name s = find name s all

let config { backend; atomicity } =
  let strong, dea, quiescence =
    match atomicity with
    | Weak -> (false, false, false)
    | Strong -> (true, false, false)
    | Dea -> (true, true, false)
    | Quiesce -> (false, false, true)
  in
  {
    Config.base with
    versioning = versioning backend;
    isolation = isolation backend;
    validation = validation backend;
    strong;
    dea;
    quiescence;
  }
