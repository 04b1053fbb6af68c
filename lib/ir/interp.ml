open Stm_runtime
open Stm_core

exception Interp_error of string

type outcome = {
  result : Sched.result;
  stats : Stats.t;
  prints : string list;
  instrs : int;
  site_profile : (int * int) list;
      (* (site id, barrier-path executions), hottest first; empty unless
         profiling was requested *)
}

(* Precomputed barrier decision for one access site under the current
   configuration: what the non-transactional path does ([p_nontxn]) and
   whether the transactional path may elide logging ([p_unlogged]).
   Folding the config tests in ahead of time turns the per-access
   decision into one array read. *)
type nontxn_plan =
  | P_auto  (* full barrier (Stm.read / Stm.write) *)
  | P_removed  (* compiler-removed: raw access *)
  | P_agg of int  (* aggregated anonymous acquire covering n accesses *)

type site_plan = { p_unlogged : bool; p_nontxn : nontxn_plan }

type exec = {
  prog : Ir.program;
  mutable cfg : Config.t;
  params : (string * int) list;
  rng : Det_rng.t;
  statics : (string, Heap.obj) Hashtbl.t;
  monitors : (int, Sim_mutex.t) Hashtbl.t;
  mutable prints : string list;  (* reversed *)
  mutable instrs : int;
  initialized : (string, unit) Hashtbl.t;  (* classes whose clinit ran *)
  profile : (int, int) Hashtbl.t option;  (* site id -> barrier executions *)
  mutable plans : site_plan array;  (* site id -> plan, per current cfg *)
  mutable plans_key : (bool * bool * Config.versioning) option;
      (* (strong, strong_writes, versioning) the plans were computed for *)
  defaults : (string, Heap.value array) Hashtbl.t;
      (* class -> typed default value of each instance field, for [New] *)
  methods : (string, (string, Ir.meth) Hashtbl.t) Hashtbl.t;
      (* class -> method name -> resolved method, for [Call] *)
}

(* Aggregated-barrier state: ownership of one object's record held across
   a group of accesses in a basic block. *)
type agg = { a_obj : Heap.obj; a_word : int; mutable a_left : int }

type frame = { regs : Heap.value array; mutable agg : agg option }

let err fmt = Fmt.kstr (fun s -> raise (Interp_error s)) fmt

(* (Re)compute the per-site barrier plans. The plan depends only on the
   note annotations (fixed once the compiler passes have run) and on the
   [strong]/[strong_writes] configuration bits, so runs that share a
   configuration - every run of an explorer instance, in particular -
   reuse the same table. *)
let build_plans ex =
  let strong = ex.cfg.Config.strong and sw = ex.cfg.Config.strong_writes in
  let versioning = ex.cfg.Config.versioning in
  (* Aggregated acquires hold the object's ownership record across the
     group, but mvcc transactions never consult ownership - they commit
     against version stamps - so the hold would exclude nothing. Fall
     back to full per-access barriers there. *)
  let agg_ok = strong && sw && versioning <> Config.Mvcc in
  if ex.plans_key <> Some (strong, sw, versioning) then begin
    let default = { p_unlogged = false; p_nontxn = P_auto } in
    let plans = Array.make (max 1 ex.prog.Ir.next_site) default in
    Ir.iter_methods ex.prog (fun m ->
        Ir.iter_access_notes m (fun _ note ->
            let p_nontxn =
              match note.Ir.barrier with
              | Ir.Bar_removed _ -> P_removed
              | Ir.Bar_agg_start n when agg_ok -> P_agg n
              | Ir.Bar_agg_start _ | Ir.Bar_agg_member | Ir.Bar_auto -> P_auto
            in
            plans.(note.Ir.site) <-
              { p_unlogged = note.Ir.txn_unlogged && not strong; p_nontxn }));
    ex.plans <- plans;
    ex.plans_key <- Some (strong, sw, versioning)
  end

let statics_obj ex cls =
  match Hashtbl.find_opt ex.statics cls with
  | Some o -> o
  | None -> err "no statics for class %s" cls

let profile_hit ex (note : Ir.note) =
  match ex.profile with
  | Some tbl ->
      Hashtbl.replace tbl note.Ir.site
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl note.Ir.site))
  | None -> ()

let monitor_of ex (o : Heap.obj) =
  match Hashtbl.find_opt ex.monitors o.Heap.oid with
  | Some m -> m
  | None ->
      let m = Sim_mutex.create ~name:(o.Heap.cls ^ "-monitor") ex.cfg.cost in
      Hashtbl.replace ex.monitors o.Heap.oid m;
      m

(* Shared boolean values: comparisons and [not] allocate nothing. *)
let vtrue = Heap.Vbool true
let vfalse = Heap.Vbool false
let vbool b = if b then vtrue else vfalse

let value_of_const = function
  | Ir.Cint n -> Heap.Vint n
  | Ir.Cbool b -> vbool b
  | Ir.Cstr s -> Heap.Vstr s
  | Ir.Cnull -> Heap.Vnull
  | Ir.Reg _ -> assert false

let eval frame = function
  | Ir.Reg r -> frame.regs.(r)
  | c -> value_of_const c

let default_value = function
  | Ir.Tint -> Heap.Vint 0
  | Ir.Tbool -> vfalse
  | Ir.Tstr -> Heap.Vstr ""
  | Ir.Tvoid | Ir.Tref _ | Ir.Tarr _ -> Heap.Vnull

let new_frame (m : Ir.meth) =
  { regs = Array.make (max m.Ir.nregs 1) Heap.Vnull; agg = None }

(* Evaluate call arguments straight into the callee's registers, from
   register [i] on. *)
let rec store_args frame regs i = function
  | [] -> ()
  | a :: rest ->
      regs.(i) <- eval frame a;
      store_args frame regs (i + 1) rest

(* Typed default value of every instance field of [cls], in layout
   order; computed once per class. *)
let class_defaults ex cls =
  match Hashtbl.find ex.defaults cls with
  | d -> d
  | exception Not_found ->
      let d =
        Array.of_list
          (List.map
             (fun (f : Ir.field) -> default_value f.Ir.fty)
             (Ir.instance_fields ex.prog cls))
      in
      Hashtbl.replace ex.defaults cls d;
      d

(* [Ir.find_method] resolved once per (class, method name). Raises
   [Not_found] when the class has no such method. *)
let find_method ex cls mname =
  let by_name =
    match Hashtbl.find ex.methods cls with
    | t -> t
    | exception Not_found ->
        let t = Hashtbl.create 8 in
        Hashtbl.replace ex.methods cls t;
        t
  in
  match Hashtbl.find by_name mname with
  | m -> m
  | exception Not_found -> (
      match Ir.find_method ex.prog cls mname with
      | Some m ->
          Hashtbl.replace by_name mname m;
          m
      | None -> raise Not_found)

let as_int what = function
  | Heap.Vint n -> n
  | v -> err "%s: expected int, got %s" what (Heap.show_value v)

let as_bool what = function
  | Heap.Vbool b -> b
  | v -> err "%s: expected bool, got %s" what (Heap.show_value v)

let as_obj what = function
  | Heap.Vref o -> o
  | Heap.Vnull -> err "%s: null dereference" what
  | v -> err "%s: expected object, got %s" what (Heap.show_value v)

(* ------------------------------------------------------------------ *)
(* Barrier-annotated memory access                                     *)
(* ------------------------------------------------------------------ *)

(* Release the aggregation hold if the group is exhausted. *)
let agg_step frame (a : agg) =
  a.a_left <- a.a_left - 1;
  if a.a_left <= 0 then begin
    Barriers.release_anon (Stm.config ()) a.a_obj a.a_word;
    frame.agg <- None
  end

(* A load from [o.(fld)] at a site annotated [note]. The barrier
   decision was precomputed into [ex.plans] at run start (see
   {!build_plans}); per access only the dynamic facts remain: are we in
   a transaction, and is an aggregated acquire covering this object. *)
let load ex frame (note : Ir.note) o fld =
  profile_hit ex note;
  if Trace.enabled () then Site.set note.Ir.site;
  let cfg = ex.cfg in
  let plan = ex.plans.(note.Ir.site) in
  if Stm.in_txn () then
    if plan.p_unlogged then begin
      (* Section 5.2 extension: no transaction ever writes this object,
         so the open-for-read barrier (version log + validation entry)
         can be elided - but only under weak atomicity *)
      Sched.tick cfg.cost.Cost.plain_load;
      Heap.get o fld
    end
    else Stm.read o fld
  else
    match frame.agg with
    | Some a when a.a_obj == o ->
        (* covered by an aggregated acquire: plain load *)
        Sched.tick cfg.cost.Cost.plain_load;
        let v = Heap.get o fld in
        agg_step frame a;
        v
    | Some _ | None -> (
        match plan.p_nontxn with
        | P_removed -> Stm.read_nobarrier o fld
        | P_agg n ->
            let w = Barriers.acquire_anon ~op:Trace.Op_read cfg (Stm.stats ()) o in
            Sched.tick cfg.cost.Cost.plain_load;
            let v = Heap.get o fld in
            if n > 1 then frame.agg <- Some { a_obj = o; a_word = w; a_left = n - 1 }
            else Barriers.release_anon cfg o w;
            v
        | P_auto -> Stm.read o fld)

let store ex frame (note : Ir.note) o fld v =
  profile_hit ex note;
  if Trace.enabled () then Site.set note.Ir.site;
  let cfg = ex.cfg in
  if Stm.in_txn () then Stm.write o fld v
  else
    match frame.agg with
    | Some a when a.a_obj == o ->
        if cfg.dea && not (Txrec.is_private a.a_word) then
          Dea.publish_value (Stm.stats ()) cfg.cost v;
        Sched.tick cfg.cost.Cost.plain_store;
        Heap.set o fld v;
        agg_step frame a
    | Some _ | None -> (
        match ex.plans.(note.Ir.site).p_nontxn with
        | P_removed -> Stm.write_nobarrier o fld v
        | P_agg n ->
            let w = Barriers.acquire_anon ~op:Trace.Op_write cfg (Stm.stats ()) o in
            if cfg.dea && not (Txrec.is_private w) then
              Dea.publish_value (Stm.stats ()) cfg.cost v;
            Sched.tick cfg.cost.Cost.plain_store;
            Heap.set o fld v;
            if n > 1 then frame.agg <- Some { a_obj = o; a_word = w; a_left = n - 1 }
            else Barriers.release_anon cfg o w
        | P_auto -> Stm.write o fld v)

(* ------------------------------------------------------------------ *)
(* Builtins                                                            *)
(* ------------------------------------------------------------------ *)

(* Lazy class initialization (Java semantics, paper Section 5.3): the
   first static access or instantiation of a class runs its [clinit]
   method, under whatever context the trigger ran in - including inside a
   transaction, which is exactly why NAIT needs the class-init
   exemption. The mark is set before the call so that accesses to the
   class's own statics inside clinit do not recurse. *)
let rec ensure_initialized ex cls =
  if not (Hashtbl.mem ex.initialized cls) then begin
    Hashtbl.replace ex.initialized cls ();
    match Ir.find_method ex.prog cls "clinit" with
    | Some m when m.Ir.m_static && m.Ir.params = [] ->
        ignore (call ex m None [] : Heap.value option)
    | Some _ | None -> ()
  end

and builtin ex name (args : Heap.value list) : Heap.value =
  match (name, args) with
  | "spawn", [ v ] ->
      let o = as_obj "spawn" v in
      Stm.publish o;
      let m = Ir.resolve_virtual ex.prog o.Heap.cls "run" in
      let tid =
        Sched.spawn ~name:(o.Heap.cls ^ ".run") (fun () ->
            ignore (call ex m (Some (Heap.Vref o)) [] : Heap.value option))
      in
      Heap.Vint tid
  | "join", [ v ] ->
      Sched.join (as_int "join" v);
      Heap.Vnull
  | "rand", [ v ] ->
      let n = as_int "rand" v in
      if n <= 0 then err "rand: bound must be positive";
      Heap.Vint (Det_rng.int ex.rng n)
  | "param", [ Heap.Vstr key ] -> (
      match List.assoc_opt key ex.params with
      | Some v -> Heap.Vint v
      | None -> err "param: no value supplied for %S" key)
  | "param", [ Heap.Vstr key; Heap.Vint default ] ->
      Heap.Vint
        (match List.assoc_opt key ex.params with
        | Some v -> v
        | None -> default)
  | "tick", [ v ] ->
      Sched.tick (as_int "tick" v);
      Heap.Vnull
  | "rebase_clock", [] ->
      Sched.rebase ();
      Heap.Vnull
  | "assert", [ v ] ->
      if not (as_bool "assert" v) then err "assertion failed";
      Heap.Vnull
  | "abs", [ v ] -> Heap.Vint (abs (as_int "abs" v))
  | "min", [ a; b ] -> Heap.Vint (min (as_int "min" a) (as_int "min" b))
  | "max", [ a; b ] -> Heap.Vint (max (as_int "max" a) (as_int "max" b))
  | "hash", [ v ] ->
      let x = as_int "hash" v in
      let h = (x * 0x9E3779B1) land max_int in
      Heap.Vint (h lxor (h lsr 16))
  | _ -> err "builtin %s: bad arguments" name

(* ------------------------------------------------------------------ *)
(* Instruction execution                                               *)
(* ------------------------------------------------------------------ *)

and exec_binop op a b =
  match op with
  | Ir.Add | Ir.Sub | Ir.Mul | Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge -> (
      (* right operand first: a type error reports the same operand it
         always did *)
      let y = as_int "binop" b in
      let x = as_int "binop" a in
      match op with
      | Ir.Add -> Heap.Vint (x + y)
      | Ir.Sub -> Heap.Vint (x - y)
      | Ir.Mul -> Heap.Vint (x * y)
      | Ir.Lt -> vbool (x < y)
      | Ir.Le -> vbool (x <= y)
      | Ir.Gt -> vbool (x > y)
      | _ -> vbool (x >= y))
  | Ir.Div ->
      let d = as_int "div" b in
      if d = 0 then err "division by zero" else Heap.Vint (as_int "div" a / d)
  | Ir.Mod ->
      let d = as_int "mod" b in
      if d = 0 then err "modulo by zero" else Heap.Vint (as_int "mod" a mod d)
  | Ir.Eq -> vbool (Heap.value_equal a b)
  | Ir.Ne -> vbool (not (Heap.value_equal a b))
  | Ir.And -> vbool (as_bool "&&" a && as_bool "&&" b)
  | Ir.Or -> vbool (as_bool "||" a || as_bool "||" b)

(* Execute instructions from [pc] until [Ret] (returns its value) or until
   [stop_at] (exclusive; returns None). *)
and exec_range ex (m : Ir.meth) frame ~pc ~stop_at : Heap.value option option =
  let cost = ex.cfg.cost in
  let pc = ref pc in
  let result = ref None in
  let finished = ref false in
  while not !finished do
    if !pc = stop_at then finished := true
    else begin
      let ins = m.Ir.body.(!pc) in
      Sched.tick cost.Cost.alu;
      ex.instrs <- ex.instrs + 1;
      incr pc;
      match ins with
      | Ir.Nop -> ()
      | Ir.Move (d, s) -> frame.regs.(d) <- eval frame s
      | Ir.Unop (d, Ir.Neg, s) ->
          frame.regs.(d) <- Heap.Vint (-as_int "neg" (eval frame s))
      | Ir.Unop (d, Ir.Not, s) ->
          frame.regs.(d) <- vbool (not (as_bool "not" (eval frame s)))
      | Ir.Binop (d, op, a, b) ->
          frame.regs.(d) <- exec_binop op (eval frame a) (eval frame b)
      | Ir.New { dst; cls; site = _ } ->
          ensure_initialized ex cls;
          let defaults = class_defaults ex cls in
          let o = Stm.alloc ~cls (Array.length defaults) in
          (* typed default values; the object is thread-local at birth so
             raw stores are race-free *)
          for i = 0 to Array.length defaults - 1 do
            Heap.set o i defaults.(i)
          done;
          frame.regs.(dst) <- Heap.Vref o
      | Ir.NewArr { dst; elt; len; site = _ } ->
          let n = as_int "new[]" (eval frame len) in
          if n < 0 then err "negative array length";
          frame.regs.(dst) <- Heap.Vref (Stm.alloc_array n (default_value elt))
      | Ir.Load { dst; obj; fld; fidx; note; _ } ->
          (* the error message is built only on the error path *)
          let o =
            match eval frame obj with
            | Heap.Vref o -> o
            | v -> as_obj ("load ." ^ fld) v
          in
          frame.regs.(dst) <- load ex frame note o fidx
      | Ir.Store { obj; fld; fidx; src; note; _ } ->
          let o =
            match eval frame obj with
            | Heap.Vref o -> o
            | v -> as_obj ("store ." ^ fld) v
          in
          store ex frame note o fidx (eval frame src)
      | Ir.LoadS { dst; cls; fidx; note; _ } ->
          ensure_initialized ex cls;
          frame.regs.(dst) <- load ex frame note (statics_obj ex cls) fidx
      | Ir.StoreS { cls; fidx; src; note; _ } ->
          ensure_initialized ex cls;
          store ex frame note (statics_obj ex cls) fidx (eval frame src)
      | Ir.ALoad { dst; arr; idx; note } ->
          let a = as_obj "aload" (eval frame arr) in
          let i = as_int "aload idx" (eval frame idx) in
          if i < 0 || i >= Heap.nfields a then
            err "array index %d out of bounds (len %d)" i (Heap.nfields a);
          frame.regs.(dst) <- load ex frame note a i
      | Ir.AStore { arr; idx; src; note } ->
          let a = as_obj "astore" (eval frame arr) in
          let i = as_int "astore idx" (eval frame idx) in
          if i < 0 || i >= Heap.nfields a then
            err "array index %d out of bounds (len %d)" i (Heap.nfields a);
          store ex frame note a i (eval frame src)
      | Ir.ALen (d, a) ->
          (* the length field is immutable: no barrier, ever *)
          let o = as_obj "length" (eval frame a) in
          Sched.tick cost.Cost.plain_load;
          frame.regs.(d) <- Heap.Vint (Heap.nfields o)
      | Ir.Call { dst; target; this; args } ->
          Sched.tick cost.Cost.call;
          let meth =
            match target with
            | Ir.Static (c, mname) -> (
                match find_method ex c mname with
                | mm -> mm
                | exception Not_found -> err "unknown method %s::%s" c mname)
            | Ir.Virtual (_, mname) -> (
                let cls =
                  match eval frame (Option.get this) with
                  | Heap.Vref o -> o.Heap.cls
                  | v -> (as_obj ("call " ^ mname) v).Heap.cls
                in
                match find_method ex cls mname with
                | mm -> mm
                | exception Not_found -> Ir.resolve_virtual ex.prog cls mname)
          in
          let callee = new_frame meth in
          let base =
            match this with
            | Some r ->
                callee.regs.(0) <- eval frame r;
                1
            | None -> 0
          in
          store_args frame callee.regs base args;
          let rv = run_frame ex meth callee in
          (match (dst, rv) with
          | Some d, Some v -> frame.regs.(d) <- v
          | Some d, None -> frame.regs.(d) <- Heap.Vnull
          | None, _ -> ())
      | Ir.Builtin { dst; name; args } ->
          let argv = List.map (eval frame) args in
          let v = builtin ex name argv in
          Option.iter (fun d -> frame.regs.(d) <- v) dst
      | Ir.If (c, target) ->
          if as_bool "if" (eval frame c) then pc := target
      | Ir.Goto target -> pc := target
      | Ir.Ret v ->
          result := Some (match v with Some r -> Some (eval frame r) | None -> None);
          finished := true
      | Ir.AtomicBegin end_pc ->
          let body_start = !pc in
          let saved = Array.copy frame.regs in
          Stm.atomic (fun () ->
              Array.blit saved 0 frame.regs 0 (Array.length saved);
              match exec_range ex m frame ~pc:body_start ~stop_at:end_pc with
              | None -> ()
              | Some _ -> err "return out of atomic block"
              | exception Interp_error _ when not (Stm.valid ()) ->
                  (* a doomed transaction read inconsistent state and
                     faulted; the managed runtime validates on faults and
                     aborts instead of failing (Section 3.4 discussion) *)
                  Stm.abort_and_retry ());
          pc := end_pc + 1
      | Ir.AtomicEnd -> err "stray atomic-end"
      | Ir.MonitorEnter o ->
          Sim_mutex.lock (monitor_of ex (as_obj "monitor" (eval frame o)))
      | Ir.MonitorExit o ->
          Sim_mutex.unlock (monitor_of ex (as_obj "monitor" (eval frame o)))
      | Ir.Print v ->
          ex.prints <- Heap.show_value (eval frame v) :: ex.prints
      | Ir.Retry -> Stm.retry ()
    end
  done;
  !result

and call ex (m : Ir.meth) this args : Heap.value option =
  let frame = new_frame m in
  let base = match this with Some v -> frame.regs.(0) <- v; 1 | None -> 0 in
  List.iteri (fun i v -> frame.regs.(base + i) <- v) args;
  run_frame ex m frame

and run_frame ex (m : Ir.meth) frame =
  match exec_range ex m frame ~pc:0 ~stop_at:(-1) with
  | Some rv -> rv
  | None -> err "method %s::%s fell off the end" m.Ir.mcls m.Ir.mname

(* ------------------------------------------------------------------ *)
(* Program startup                                                     *)
(* ------------------------------------------------------------------ *)

let init_statics ex =
  Hashtbl.iter
    (fun cname _ ->
      let sfields = Ir.static_fields ex.prog cname in
      if sfields <> [] then begin
        let o = Heap.alloc_statics ~cls:cname (List.length sfields) in
        List.iteri
          (fun i (f : Ir.field) ->
            match f.Ir.f_init with
            | Some c -> Heap.set o i (value_of_const c)
            | None -> Heap.set o i (default_value f.Ir.fty))
          sfields;
        Hashtbl.replace ex.statics cname o
      end)
    ex.prog.Ir.classes

let make_exec ?(params = []) ?(profile = false) ~cfg prog =
  {
    prog;
    cfg;
    params;
    rng = Det_rng.create 0x5eed;
    statics = Hashtbl.create 16;
    monitors = Hashtbl.create 64;
    prints = [];
    instrs = 0;
    initialized = Hashtbl.create 16;
    profile = (if profile then Some (Hashtbl.create 64) else None);
    plans = [||];
    plans_key = None;
    defaults = Hashtbl.create 16;
    methods = Hashtbl.create 16;
  }

let exec_main ex =
  build_plans ex;
  init_statics ex;
  let m =
    match Ir.find_method ex.prog ex.prog.Ir.main_class "main" with
    | Some m when m.Ir.m_static -> m
    | Some _ | None -> err "no static main() in %s" ex.prog.Ir.main_class
  in
  (* the main class initializes first, as if the VM loaded it *)
  ensure_initialized ex ex.prog.Ir.main_class;
  ignore (call ex m None [] : Heap.value option)

let explorer_instance ?params prog =
  let ex = make_exec ?params ~cfg:Config.base prog in
  let main () =
    (* the explorer installs the STM configuration; pick it up here so the
       interpreter's barrier decisions match it *)
    ex.cfg <- Stm.config ();
    exec_main ex
  in
  let observe () = String.concat "|" (List.rev ex.prints) in
  (main, observe)

let run ?policy ?max_steps ?(params = []) ?(profile = false) ~cfg prog =
  let ex = make_exec ~params ~profile ~cfg prog in
  let main () = exec_main ex in
  let result, stats = Stm.run ?policy ?max_steps ~cfg main in
  let site_profile =
    match ex.profile with
    | None -> []
    | Some tbl ->
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
        |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  { result; stats; prints = List.rev ex.prints; instrs = ex.instrs; site_profile }
