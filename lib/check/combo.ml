(* One point in the configuration space the sweep covers: a backend x
   atomicity point under a contention-management policy. *)

module Config = Stm_core.Config
module Point = Stm_core.Point

type t = { point : Point.t; cm : Stm_cm.Policy.t }

let name t =
  Printf.sprintf "%s-%s/%s"
    (Point.backend_name t.point.Point.backend)
    (Point.atomicity_name t.point.Point.atomicity)
    (Stm_cm.Policy.to_string t.cm)

let to_config ?(cm_seed = 0) t =
  { (Point.config t.point) with Config.cm = t.cm; cm_seed }

(* Every point whose backend validates with [validation], each under
   [policies point]. *)
let grid validation policies =
  List.concat_map
    (fun point ->
      if Point.validation point.Point.backend = validation then
        List.map (fun cm -> { point; cm }) (policies point)
      else [])
    Point.all

(* The classic grid: {eager,lazy} x all atomicities x all CM policies.
   mvcc extends it on two axes of its own - {serializable,snapshot} x
   {weak,strong,dea} - but with the suicide policy only: mvcc takes no
   ownership, so transactions never meet in the contention manager and
   the CM axis is degenerate there. *)
let all =
  grid Config.Incremental (fun p ->
      match p.Point.backend with
      | Point.Mvcc _ -> [ Stm_cm.Policy.Suicide ]
      | Point.Eager _ | Point.Lazy _ -> Stm_cm.Policy.all)

(* The timestamp-mode certification grid: every single-version atomicity
   flavor under a spread of contention managers — 24 points. Kept apart
   from {!all} so default sweeps (and their artifacts) are unchanged. *)
let timestamp_grid =
  grid Config.Timestamp (fun _ ->
      [ Stm_cm.Policy.Suicide; Stm_cm.Policy.Wound_wait; Stm_cm.Policy.Timestamp ])

open Stm_obs

(* The isolation and validation members are written only away from
   their defaults, so repro artifacts older than either axis keep their
   bytes and still parse. *)
let to_json t =
  let b = t.point.Point.backend in
  Json.Obj
    ([
       ("versioning", Json.Str (Config.versioning_to_string (Point.versioning b)));
       ("atomicity", Json.Str (Point.atomicity_name t.point.Point.atomicity));
       ("cm", Json.Str (Stm_cm.Policy.to_string t.cm));
     ]
    @ (match Point.isolation b with
      | Config.Serializable -> []
      | Config.Snapshot as i ->
          [ ("isolation", Json.Str (Config.isolation_to_string i)) ])
    @
    match Point.validation b with
    | Config.Incremental -> []
    | Config.Timestamp as v ->
        [ ("validation", Json.Str (Config.validation_to_string v)) ])

let ( let* ) = Option.bind

let of_json j =
  let str key = Option.bind (Json.member key j) Json.to_str_opt in
  let optional key ~default of_string =
    match str key with None -> Some default | Some s -> of_string s
  in
  let* versioning = Option.bind (str "versioning") Config.versioning_of_string in
  let* atomicity = Option.bind (str "atomicity") Point.atomicity_of_name in
  let* cm = Option.bind (str "cm") Stm_cm.Policy.of_string in
  let* isolation =
    optional "isolation" ~default:Config.Serializable Config.isolation_of_string
  in
  let* validation =
    optional "validation" ~default:Config.Incremental Config.validation_of_string
  in
  let* backend = Point.backend_of versioning isolation validation in
  let* point = Point.make backend atomicity in
  Some { point; cm }
