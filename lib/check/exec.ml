(* Execute a fuzz program on the real STM and collect its history.

   The program runs under the cooperative scheduler through the public
   Stm API, with the Collector subscribed at History level; the
   per-access Debug diagnostics (barriers, validations, backoffs, CM
   decisions) are never built for it. The collector's location and
   value mappings name the program's cells, roots and boxes. *)

open Stm_runtime
module Config = Stm_core.Config
module Stm = Stm_core.Stm
module Trace = Stm_core.Trace

(* A box object with its history location and reference value built
   once, so an access to it allocates neither. *)
type box = {
  b_obj : Heap.obj;
  b_loc : History.loc;  (* Box_field id *)
  b_ref : History.value;  (* Vr id *)
}

let no_box = { b_obj = Heap.dummy; b_loc = Collector.no_loc; b_ref = Collector.no_value }

let make_box id b_obj = { b_obj; b_loc = History.Box_field id; b_ref = History.Vr id }

(* The program's objects ([Heap.dummy] until [main] allocates them) and
   their history names. The location arrays are as long as the cells
   and roots objects. *)
type objs = {
  mutable cells : Heap.obj;
  mutable roots : Heap.obj;
  mutable cell_locs : History.loc array;  (* Cell i, by field *)
  mutable root_locs : History.loc array;  (* Root s, by field *)
  mutable boxes : box list;  (* reversed *)
}

let rec box_of oid = function
  | [] -> no_box
  | b :: rest -> if b.b_obj.Heap.oid = oid then b else box_of oid rest

(* [no_loc] when [oid] is no fuzz object *)
let loc_of o oid fld =
  if oid = o.cells.Heap.oid then o.cell_locs.(fld)
  else if oid = o.roots.Heap.oid then o.root_locs.(fld)
  else (box_of oid o.boxes).b_loc

(* [no_value] for anything but an int or a box reference *)
let value_of o (v : Heap.value) : History.value =
  match v with
  | Heap.Vint n -> History.Vi n
  | Heap.Vref r -> (box_of r.Heap.oid o.boxes).b_ref
  | _ -> Collector.no_value

(* ------------------------------------------------------------------ *)
(* Program body                                                        *)
(* ------------------------------------------------------------------ *)

type ctx = {
  col : Collector.t;
  o : objs;
  prog : Prog.t;
  level : Config.isolation;  (* which contract the oracle certifies *)
  mutable final : (History.loc * History.value) list option;  (* once [main] ends *)
  mutable clobbered : History.anomaly option;
}

(* The certification level follows the configuration: an mvcc run at the
   snapshot isolation level is judged against the SI contract (write
   skew is legal there); everything else must be serializable. *)
let check_level (cfg : Config.t) =
  match cfg.Config.versioning with
  | Config.Mvcc -> cfg.Config.isolation
  | Config.Eager | Config.Lazy -> Config.Serializable

let set_tag ctx ~thread ~step part =
  Collector.set_tag ctx.col ~tid:(Sched.self ()) { History.thread; step; part }

let as_int (v : Heap.value) = match v with Heap.Vint n -> n | _ -> 0

(* A value for the final state or a clobber report: an unknown reference
   reads as its integer view. *)
let value_or_int o (v : Heap.value) =
  let x = value_of o v in
  if x == Collector.no_value then History.Vi (as_int v) else x

let cells_of ctx = ctx.o.cells
let roots_of ctx = ctx.o.roots

let exec_op ctx ~thread ~step acc k (op : Prog.op) =
  match op with
  | Prog.Read c -> acc := Prog.combine !acc (as_int (Stm.read (cells_of ctx) c))
  | Prog.Write (c, e) ->
      let token = Prog.op_token ~thread ~step ~op:k in
      Stm.write (cells_of ctx) c (Stm.vint (Prog.value_of e ~token ~acc:!acc))
  | Prog.Box_read s -> (
      match Stm.read (roots_of ctx) s with
      | Heap.Vref b -> acc := Prog.combine !acc (as_int (Stm.read b 0))
      | _ -> ())
  | Prog.Box_write s -> (
      match Stm.read (roots_of ctx) s with
      | Heap.Vref b ->
          let token = Prog.op_token ~thread ~step ~op:k in
          Stm.write b 0 (Stm.vint (Prog.value_of Prog.Tok_acc ~token ~acc:!acc))
      | _ -> ())

let exec_step ctx ~thread acc step_idx (step : Prog.step) =
  match step with
  | Prog.Atomic ops ->
      set_tag ctx ~thread ~step:step_idx History.Body;
      let before = !acc in
      Stm.atomic (fun () ->
          acc := before;
          List.iteri (exec_op ctx ~thread ~step:step_idx acc) ops)
  | Prog.Plain op ->
      set_tag ctx ~thread ~step:step_idx History.Body;
      exec_op ctx ~thread ~step:step_idx acc 0 op
  | Prog.Publish s ->
      let b = Stm.alloc ~cls:"fuzz-box" 1 in
      ctx.o.boxes <- make_box (History.New_box { thread; step = step_idx }) b :: ctx.o.boxes;
      set_tag ctx ~thread ~step:step_idx History.Pub_init;
      Stm.write b 0
        (Stm.vint (Prog.pub_token ~thread ~step:step_idx * Prog.token_scale));
      set_tag ctx ~thread ~step:step_idx History.Body;
      Stm.atomic (fun () -> Stm.write (roots_of ctx) s (Stm.vref b))
  | Prog.Privatize s -> (
      set_tag ctx ~thread ~step:step_idx History.Body;
      let before = !acc in
      let got =
        Stm.atomic (fun () ->
            acc := before;
            match Stm.read (roots_of ctx) s with
            | Heap.Vref b ->
                Stm.write (roots_of ctx) s
                  (Stm.vint
                     (Prog.tomb_token ~thread ~step:step_idx * Prog.token_scale));
                Some b
            | _ -> None)
      in
      match got with
      | None -> ()
      | Some b ->
          set_tag ctx ~thread ~step:step_idx History.Priv_write;
          let expected =
            Prog.priv_token ~thread ~step:step_idx * Prog.token_scale
          in
          Stm.write b 0 (Stm.vint expected);
          set_tag ctx ~thread ~step:step_idx History.Priv_read;
          let v = Stm.read b 0 in
          acc := Prog.combine !acc (as_int v);
          let ok = match v with Heap.Vint n -> n = expected | _ -> false in
          if (not ok) && ctx.clobbered = None then
            ctx.clobbered <-
              Some
                (History.Private_clobbered
                   {
                     thread;
                     step = step_idx;
                     expected;
                     seen = value_or_int ctx.o v;
                   }))

let thread_body ctx thread steps () =
  let acc = ref 0 in
  List.iteri (exec_step ctx ~thread acc) steps

let snapshot_final ctx =
  let o = ctx.o in
  let conv v = value_or_int o v in
  let fin = ref [] in
  for i = ctx.prog.Prog.ncells - 1 downto 0 do
    fin := (o.cell_locs.(i), conv (Heap.get o.cells i)) :: !fin
  done;
  for s = ctx.prog.Prog.nslots - 1 downto 0 do
    fin := (o.root_locs.(s), conv (Heap.get o.roots s)) :: !fin
  done;
  List.iter
    (fun b -> fin := (b.b_loc, conv (Heap.get b.b_obj 0)) :: !fin)
    (List.rev o.boxes);
  ctx.final <- Some !fin

let thread_names = Array.init 8 (Printf.sprintf "T%d")

let thread_name i =
  if i < Array.length thread_names then thread_names.(i) else Printf.sprintf "T%d" i

let main ctx () =
  let prog = ctx.prog in
  let o = ctx.o in
  let ncells = max 1 prog.Prog.ncells in
  let cells = Stm.alloc_public ~cls:"fuzz-cells" ncells in
  for i = 0 to ncells - 1 do
    Stm.write cells i (Stm.vint 0)
  done;
  let roots = Stm.alloc_public ~cls:"fuzz-roots" (max 1 prog.Prog.nslots) in
  for s = 0 to prog.Prog.nslots - 1 do
    let b = Stm.alloc_public ~cls:"fuzz-box" 1 in
    o.boxes <- make_box (History.Slot_box s) b :: o.boxes;
    Stm.write b 0
      (Stm.vint (Prog.init_box_token ~slot:s * Prog.token_scale));
    Stm.write roots s (Stm.vref b)
  done;
  o.cells <- cells;
  o.roots <- roots;
  o.cell_locs <- Array.init ncells (fun i -> History.Cell i);
  o.root_locs <- Array.init (max 1 prog.Prog.nslots) (fun s -> History.Root s);
  Collector.set_enabled ctx.col true;
  (* spawn does not yield, so each thread is named before it runs *)
  let tids =
    List.mapi
      (fun i steps ->
        let t = Sched.spawn ~name:(thread_name i) (thread_body ctx i steps) in
        Collector.name ctx.col ~tid:t i;
        t)
      prog.Prog.threads
  in
  List.iter Sched.join tids;
  Collector.set_enabled ctx.col false;
  snapshot_final ctx

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let default_fuel = 400_000

let init_state (prog : Prog.t) =
  List.init prog.Prog.ncells (fun i -> (History.Cell i, History.Vi 0))
  @ List.init prog.Prog.nslots (fun s -> (History.Root s, History.Vr (History.Slot_box s)))
  @ List.init prog.Prog.nslots (fun s ->
        ( History.Box_field (History.Slot_box s),
          History.Vi (Prog.init_box_token ~slot:s * Prog.token_scale) ))

(* The run's verdict and history: the clobber it witnessed, else the
   oracle's verdict at the configuration's level. *)
let judge ctx =
  let h =
    Collector.history ctx.col ~init:(init_state ctx.prog)
      ~final:(Option.value ctx.final ~default:[])
  in
  match ctx.clobbered with
  | Some a -> (History.Anomalous a, h)
  | None -> (History.check_at ctx.level ctx.prog h, h)

let verdict_of_run ctx (result : Sched.result) =
  match result.Sched.status with
  | Sched.Fuel_exhausted -> (History.Inconclusive "scheduler fuel exhausted", None)
  | Sched.Deadlock tids ->
      ( History.Inconclusive
          (Printf.sprintf "deadlock (%d threads blocked)" (List.length tids)),
        None )
  | Sched.Completed -> (
      match result.Sched.exns with
      | (tid, e) :: _ ->
          ( History.Anomalous
              (History.Exec_failure
                 (Printf.sprintf "thread %d raised %s" tid (Printexc.to_string e))),
            None )
      | [] ->
          let v, h = judge ctx in
          (v, Some h))

let new_ctx ~cfg prog =
  let o =
    { cells = Heap.dummy; roots = Heap.dummy; cell_locs = [||]; root_locs = [||]; boxes = [] }
  in
  {
    col =
      Collector.create ~cfg
        ~loc:(fun oid fld -> loc_of o oid fld)
        ~value:(fun v -> value_of o v);
    o;
    prog;
    level = check_level cfg;
    final = None;
    clobbered = None;
  }

let run ?policy ?(max_steps = default_fuel) ~cfg prog =
  let ctx = new_ctx ~cfg prog in
  Trace.with_sinks [ (Trace.History, Collector.on_event ctx.col) ] (fun () ->
      let result, _stats = Stm.run ?policy ~max_steps ~cfg (main ctx) in
      verdict_of_run ctx result)

(* ------------------------------------------------------------------ *)
(* Systematic exploration driver                                       *)
(* ------------------------------------------------------------------ *)

(* Reuses the litmus explorer's preemption-bounded DFS as the schedule
   source: each explored schedule re-executes the program, the observed
   outcome is the verdict's JSON rendering, and the search stops at the
   first anomalous outcome. *)

let anomalous_outcome s = String.length s > 0 && s.[0] = 'A'

(* One subscriber for the whole exploration feeds whichever schedule's
   collector [current] holds: [make] swaps in a fresh one per schedule
   instead of subscribing again. *)
let explore_with ~cfg prog search =
  let first = ref None in
  let current = ref (new_ctx ~cfg prog).col in
  let make () =
    let ctx = new_ctx ~cfg prog in
    current := ctx.col;
    {
      Stm_litmus.Explorer.main = main ctx;
      observe =
        (fun () ->
          match ctx.final with
          | None -> "inconclusive"
          | Some _ ->
              let v, _ = judge ctx in
              (match v with
              | History.Anomalous _ when !first = None -> first := Some v
              | _ -> ());
              (* Prefix encodes the class so [stop_when] needs no parse. *)
              (match v with
              | History.Anomalous _ -> "A:"
              | History.Serializable -> "S:"
              | History.Inconclusive _ -> "I:")
              ^ Stm_obs.Json.to_string (History.verdict_to_json v));
    }
  in
  Trace.with_sinks [ (Trace.History, fun ev -> Collector.on_event !current ev) ] (fun () ->
      let r = search make in
      (!first, r))

let explore ?preemption_bound ?max_runs ?(max_steps = 60_000) ~cfg prog =
  explore_with ~cfg prog (fun make ->
      Stm_litmus.Explorer.explore ?preemption_bound ?max_runs ~max_steps
        ~stop_when:anomalous_outcome ~cfg ~make ())

let explore_dpor ?preemption_bound ?max_runs ?(max_steps = 60_000) ~cfg prog =
  explore_with ~cfg prog (fun make ->
      Stm_litmus.Explorer.explore_dpor ?preemption_bound ?max_runs ~max_steps
        ~stop_when:anomalous_outcome ~cfg ~make ())
