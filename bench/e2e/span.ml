(* Host-time spans of the traced run, kept in memory and written out once
   the run ends. Spans nest by call stack: a span opened inside another is
   its child, so a span's self time is its duration minus its direct
   children's durations. *)

type t = {
  id : int;
  parent : int;  (* -1 for a root span *)
  name : string;
  unit_id : int;  (* -1 outside a unit *)
  start : float;
  stop : float;
}

let now = Unix.gettimeofday
let enabled = ref false
let recorded : t list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let current_unit = ref (-1)
let extra_total = ref 0.
let duration s = s.stop -. s.start

(* [extra] marks a call the traced run adds to split a layer; its time is
   left out when the traced pass time is compared with the untraced one *)
let with_ ?(extra = false) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let unit_id = !current_unit and start = now () in
    Fun.protect
      ~finally:(fun () ->
        stack := List.tl !stack;
        let s = { id; parent; name; unit_id; start; stop = now () } in
        if extra then extra_total := !extra_total +. duration s;
        recorded := s :: !recorded)
      f
  end

(* host seconds spent in extra spans so far *)
let extra_time () = !extra_total
let reset () = recorded := []

let in_unit i f =
  current_unit := i;
  Fun.protect ~finally:(fun () -> current_unit := -1) f

let spans () = List.rev !recorded

(* name -> total self seconds, in first-seen order *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration s
          +. Option.value (Hashtbl.find_opt children s.parent) ~default:0.))
    spans;
  let totals = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun s ->
      let self =
        duration s -. Option.value (Hashtbl.find_opt children s.id) ~default:0.
      in
      match Hashtbl.find_opt totals s.name with
      | Some t -> Hashtbl.replace totals s.name (t +. self)
      | None ->
          order := s.name :: !order;
          Hashtbl.replace totals s.name self)
    spans;
  List.rev_map (fun n -> (n, Hashtbl.find totals n)) !order

(* Chrome trace-event JSON: one complete ("X") event per span, timestamps
   in microseconds from the first span. *)
let to_chrome ~workload spans =
  let open Stm_obs in
  let t0 = List.fold_left (fun a s -> Float.min a s.start) infinity spans in
  let us t = Json.Float (Float.round ((t -. t0) *. 1e7) /. 10.) in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.Str s.name);
                   ("cat", Json.Str workload);
                   ("ph", Json.Str "X");
                   ("ts", us s.start);
                   ("dur", Json.Float (Float.round (duration s *. 1e7) /. 10.));
                   ("pid", Json.Int 1);
                   ("tid", Json.Int 1);
                   ( "args",
                     Json.Obj
                       [
                         ("id", Json.Int s.id);
                         ("parent", Json.Int s.parent);
                         ("workload", Json.Str workload);
                         ("unit", Json.Int s.unit_id);
                       ] );
                 ])
             spans) );
      ("displayTimeUnit", Json.Str "ms");
    ]
