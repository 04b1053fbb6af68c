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
   Folding the config tests in ahead of time lets the compiled code of
   each access site hold its decision. *)
type nontxn_plan =
  | P_auto  (* full barrier (Stm.read / Stm.write) *)
  | P_removed  (* compiler-removed: raw access *)
  | P_agg of int  (* aggregated anonymous acquire covering n accesses *)

type site_plan = { p_unlogged : bool; p_nontxn : nontxn_plan }

(* Aggregated-barrier state: ownership of one object's record held across
   a group of accesses in a basic block. *)
type agg = { a_obj : Heap.obj; a_word : int; mutable a_left : int }

type frame = {
  regs : Heap.value array;
  mutable agg : agg option;
  mutable rv : Heap.value;  (* the value the method's [Ret] returned *)
}

(* A method compiled for one [exec]: one closure per instruction, which
   performs the instruction and returns the next pc, or -1 after [Ret].
   The closures hold everything that is fixed for the run - register
   indices, boxed constants, barrier plans, cost constants - and cache
   what is fixed after its first execution (call targets, class
   defaults, statics objects). *)
type code = {
  meth : Ir.meth;
  nregs : int;  (* frame size *)
  mutable ops : (frame -> int) array;  (* one per instruction of [meth] *)
}

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
  methods : (string, (string, code) Hashtbl.t) Hashtbl.t;
      (* class -> method name -> code of the method it resolves to *)
  compiled : (string, code) Hashtbl.t;
      (* method name -> code of every method of that name compiled in
         this run; emptied with [methods] when a run starts, since the
         code folds in the run's configuration and plans *)
}

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
let[@inline] vbool b = if b then vtrue else vfalse

let value_of_const = function
  | Ir.Cint n -> Heap.Vint n
  | Ir.Cbool b -> vbool b
  | Ir.Cstr s -> Heap.Vstr s
  | Ir.Cnull -> Heap.Vnull
  | Ir.Reg _ -> assert false

(* A resolved operand: a register index, or a constant boxed once when
   the method is compiled. *)
type opnd = R of int | K of Heap.value

let opnd = function Ir.Reg r -> R r | c -> K (value_of_const c)
let[@inline] get frame = function R r -> frame.regs.(r) | K v -> v

let default_value = function
  | Ir.Tint -> Heap.Vint 0
  | Ir.Tbool -> vfalse
  | Ir.Tstr -> Heap.Vstr ""
  | Ir.Tvoid | Ir.Tref _ | Ir.Tarr _ -> Heap.Vnull

let new_frame k = { regs = Array.make k.nregs Heap.Vnull; agg = None; rv = Heap.Vnull }

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

(* The checks above with their common case inlined into the caller. *)
let[@inline] int_of what = function Heap.Vint n -> n | v -> as_int what v
let[@inline] bool_of what = function Heap.Vbool b -> b | v -> as_bool what v
let[@inline] obj_of what = function Heap.Vref o -> o | v -> as_obj what v

(* ------------------------------------------------------------------ *)
(* Barrier-annotated memory access                                     *)
(* ------------------------------------------------------------------ *)

(* What an access does when no aggregated acquire is open: call the full
   barrier ([Stm.read]/[Stm.write]) or the raw access
   ([read_nobarrier]/[write_nobarrier]) - both test for a transaction
   themselves - or take the general path below. *)
type fast = F_barrier | F_raw | F_general

(* One access site, resolved when its method is compiled. *)
type access = {
  site : int;
  plan : site_plan;
  fast : fast;
  acfg : Config.t;
  prof : (int, int) Hashtbl.t option;  (* [ex.profile] *)
}

let access ex (note : Ir.note) ~load =
  let plan = ex.plans.(note.Ir.site) in
  let fast =
    match plan.p_nontxn with
    | _ when load && plan.p_unlogged -> F_general
    | P_auto -> F_barrier
    | P_removed -> F_raw
    | P_agg _ -> F_general
  in
  { site = note.Ir.site; plan; fast; acfg = ex.cfg; prof = ex.profile }

let enter_site a =
  (match a.prof with
  | Some tbl ->
      Hashtbl.replace tbl a.site
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl a.site))
  | None -> ());
  if Trace.enabled () then Site.set a.site

(* Release the aggregation hold if the group is exhausted. *)
let agg_step frame (a : agg) =
  a.a_left <- a.a_left - 1;
  if a.a_left <= 0 then begin
    Barriers.release_anon (Stm.config ()) a.a_obj a.a_word;
    frame.agg <- None
  end

(* A load from [o.(fld)] at site [a]. Per access only the dynamic facts
   remain: are we in a transaction, and is an aggregated acquire covering
   this object. *)
let load_general a frame o fld =
  let cfg = a.acfg in
  if Stm.in_txn () then
    if a.plan.p_unlogged then begin
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
        match a.plan.p_nontxn with
        | P_removed -> Stm.read_nobarrier o fld
        | P_agg n ->
            let w = Barriers.acquire_anon ~op:Trace.Op_read cfg (Stm.stats ()) o in
            Sched.tick cfg.cost.Cost.plain_load;
            let v = Heap.get o fld in
            if n > 1 then frame.agg <- Some { a_obj = o; a_word = w; a_left = n - 1 }
            else Barriers.release_anon cfg o w;
            v
        | P_auto -> Stm.read o fld)

let load a frame o fld =
  enter_site a;
  match (frame.agg, a.fast) with
  | None, F_barrier -> Stm.read o fld
  | None, F_raw -> Stm.read_nobarrier o fld
  | _ -> load_general a frame o fld

let store_general a frame o fld v =
  let cfg = a.acfg in
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
        match a.plan.p_nontxn with
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

let store a frame o fld v =
  enter_site a;
  match (frame.agg, a.fast) with
  | None, F_barrier -> Stm.write o fld v
  | None, F_raw -> Stm.write_nobarrier o fld v
  | _ -> store_general a frame o fld v

(* ------------------------------------------------------------------ *)
(* Compilation and execution                                           *)
(* ------------------------------------------------------------------ *)

let bad_builtin name = err "builtin %s: bad arguments" name

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
    | Some m when m.Ir.m_static && m.Ir.params = [] -> call ex m None
    | Some _ | None -> ()
  end

(* A builtin call, resolved by name and arity when the method is
   compiled. Argument errors are raised when the call executes. *)
and builtin ex name args : frame -> Heap.value =
  match (name, args) with
  | "spawn", [ v ] ->
      fun fr ->
        let o = as_obj "spawn" (get fr v) in
        Stm.publish o;
        let m = Ir.resolve_virtual ex.prog o.Heap.cls "run" in
        let tid =
          Sched.spawn ~name:(o.Heap.cls ^ ".run") (fun () ->
              call ex m (Some (Heap.Vref o)))
        in
        Heap.Vint tid
  | "join", [ v ] ->
      fun fr ->
        Sched.join (as_int "join" (get fr v));
        Heap.Vnull
  | "rand", [ v ] ->
      fun fr ->
        let n = as_int "rand" (get fr v) in
        if n <= 0 then err "rand: bound must be positive";
        Heap.Vint (Det_rng.int ex.rng n)
  | "param", [ k ] -> (
      fun fr ->
        match get fr k with
        | Heap.Vstr key -> (
            match List.assoc_opt key ex.params with
            | Some v -> Heap.Vint v
            | None -> err "param: no value supplied for %S" key)
        | _ -> bad_builtin name)
  | "param", [ k; d ] -> (
      fun fr ->
        match (get fr k, get fr d) with
        | Heap.Vstr key, Heap.Vint default ->
            Heap.Vint
              (match List.assoc_opt key ex.params with
              | Some v -> v
              | None -> default)
        | _ -> bad_builtin name)
  | "tick", [ v ] ->
      fun fr ->
        Sched.tick (as_int "tick" (get fr v));
        Heap.Vnull
  | "rebase_clock", [] ->
      fun _ ->
        Sched.rebase ();
        Heap.Vnull
  | "assert", [ v ] ->
      fun fr ->
        if not (as_bool "assert" (get fr v)) then err "assertion failed";
        Heap.Vnull
  | "abs", [ v ] -> fun fr -> Heap.Vint (abs (as_int "abs" (get fr v)))
  | "min", [ a; b ] ->
      fun fr ->
        let a = get fr a and b = get fr b in
        Heap.Vint (min (as_int "min" a) (as_int "min" b))
  | "max", [ a; b ] ->
      fun fr ->
        let a = get fr a and b = get fr b in
        Heap.Vint (max (as_int "max" a) (as_int "max" b))
  | "hash", [ v ] ->
      fun fr ->
        let x = as_int "hash" (get fr v) in
        let h = (x * 0x9E3779B1) land max_int in
        Heap.Vint (h lxor (h lsr 16))
  | _ -> fun _ -> bad_builtin name

(* The code of [m], compiled at most once per run. *)
and code_of ex (m : Ir.meth) =
  match List.find (fun k -> k.meth == m) (Hashtbl.find_all ex.compiled m.Ir.mname) with
  | k -> k
  | exception Not_found ->
      let k = { meth = m; nregs = max m.Ir.nregs 1; ops = [||] } in
      Hashtbl.add ex.compiled m.Ir.mname k;
      k.ops <- Array.mapi (compile ex k) m.Ir.body;
      k

(* The code that method [mname] resolves to on class [cls]. Raises
   [Not_found] when the class has no such method. *)
and find_code ex cls mname =
  let by_name =
    match Hashtbl.find ex.methods cls with
    | t -> t
    | exception Not_found ->
        let t = Hashtbl.create 8 in
        Hashtbl.replace ex.methods cls t;
        t
  in
  match Hashtbl.find by_name mname with
  | k -> k
  | exception Not_found -> (
      match Ir.find_method ex.prog cls mname with
      | Some m ->
          let k = code_of ex m in
          Hashtbl.replace by_name mname k;
          k
      | None -> raise Not_found)

(* Translate instruction [ins] at [pc] of [k]. Compiling never raises:
   every error is raised by the closure when it runs, with the message
   and at the point the instruction's semantics give it. *)
and compile ex k pc (ins : Ir.instr) : frame -> int =
  let next = pc + 1 in
  let cost = ex.cfg.cost in
  match ins with
  | Ir.Nop -> fun _ -> next
  | Ir.Move (d, s) -> (
      match opnd s with
      | R r ->
          fun fr ->
            fr.regs.(d) <- fr.regs.(r);
            next
      | K v ->
          fun fr ->
            fr.regs.(d) <- v;
            next)
  | Ir.Unop (d, Ir.Neg, s) ->
      let s = opnd s in
      fun fr ->
        fr.regs.(d) <- Heap.Vint (-int_of "neg" (get fr s));
        next
  | Ir.Unop (d, Ir.Not, s) ->
      let s = opnd s in
      fun fr ->
        fr.regs.(d) <- vbool (not (bool_of "not" (get fr s)));
        next
  | Ir.Binop (d, op, a, b) -> compile_binop d op (opnd a) (opnd b) next
  | Ir.New { dst; cls; site = _ } ->
      let defaults = ref None in
      fun fr ->
        let defaults =
          match !defaults with
          | Some d -> d
          | None ->
              ensure_initialized ex cls;
              let d = class_defaults ex cls in
              defaults := Some d;
              d
        in
        let o = Stm.alloc ~cls (Array.length defaults) in
        (* typed default values; the object is thread-local at birth so
           raw stores are race-free *)
        for i = 0 to Array.length defaults - 1 do
          Heap.set o i defaults.(i)
        done;
        fr.regs.(dst) <- Heap.Vref o;
        next
  | Ir.NewArr { dst; elt; len; site = _ } ->
      let len = opnd len and init = default_value elt in
      fun fr ->
        let n = int_of "new[]" (get fr len) in
        if n < 0 then err "negative array length";
        fr.regs.(dst) <- Heap.Vref (Stm.alloc_array n init);
        next
  | Ir.Load { dst; obj; fld; fidx; note; _ } ->
      let obj = opnd obj and a = access ex note ~load:true in
      fun fr ->
        (* the error message is built only on the error path *)
        let o =
          match get fr obj with Heap.Vref o -> o | v -> as_obj ("load ." ^ fld) v
        in
        fr.regs.(dst) <- load a fr o fidx;
        next
  | Ir.Store { obj; fld; fidx; src; note; _ } ->
      let obj = opnd obj and src = opnd src and a = access ex note ~load:false in
      fun fr ->
        let o =
          match get fr obj with Heap.Vref o -> o | v -> as_obj ("store ." ^ fld) v
        in
        store a fr o fidx (get fr src);
        next
  | Ir.LoadS { dst; cls; fidx; note; _ } ->
      let a = access ex note ~load:true and holder = statics_of ex cls in
      fun fr ->
        fr.regs.(dst) <- load a fr (holder ()) fidx;
        next
  | Ir.StoreS { cls; fidx; src; note; _ } ->
      let src = opnd src and a = access ex note ~load:false in
      let holder = statics_of ex cls in
      fun fr ->
        let o = holder () in
        store a fr o fidx (get fr src);
        next
  | Ir.ALoad { dst; arr; idx; note } ->
      let arr = opnd arr and idx = opnd idx and a = access ex note ~load:true in
      fun fr ->
        let o = obj_of "aload" (get fr arr) in
        let i = int_of "aload idx" (get fr idx) in
        if i < 0 || i >= Heap.nfields o then
          err "array index %d out of bounds (len %d)" i (Heap.nfields o);
        fr.regs.(dst) <- load a fr o i;
        next
  | Ir.AStore { arr; idx; src; note } ->
      let arr = opnd arr and idx = opnd idx and src = opnd src in
      let a = access ex note ~load:false in
      fun fr ->
        let o = obj_of "astore" (get fr arr) in
        let i = int_of "astore idx" (get fr idx) in
        if i < 0 || i >= Heap.nfields o then
          err "array index %d out of bounds (len %d)" i (Heap.nfields o);
        store a fr o i (get fr src);
        next
  | Ir.ALen (d, a) ->
      (* the length field is immutable: no barrier, ever *)
      let a = opnd a in
      fun fr ->
        let o = obj_of "length" (get fr a) in
        Sched.tick cost.Cost.plain_load;
        fr.regs.(d) <- Heap.Vint (Heap.nfields o);
        next
  | Ir.Call { dst; target; this; args } -> (
      let this = Option.map opnd this and args = Array.of_list (List.map opnd args) in
      let invoke fr callee =
        let cf = new_frame callee in
        let base =
          match this with
          | Some r ->
              cf.regs.(0) <- get fr r;
              1
          | None -> 0
        in
        for i = 0 to Array.length args - 1 do
          cf.regs.(base + i) <- get fr args.(i)
        done;
        run_code ex callee cf;
        match dst with Some d -> fr.regs.(d) <- cf.rv | None -> ()
      in
      match (target, this) with
      | Ir.Static (c, mname), _ ->
          let target = ref None in
          fun fr ->
            Sched.tick cost.Cost.call;
            let callee =
              match !target with
              | Some callee -> callee
              | None -> (
                  match find_code ex c mname with
                  | callee ->
                      target := Some callee;
                      callee
                  | exception Not_found -> err "unknown method %s::%s" c mname)
            in
            invoke fr callee;
            next
      | Ir.Virtual (_, mname), Some recv ->
          (* one-entry cache keyed by the receiver's class *)
          let last = ref None in
          fun fr ->
            Sched.tick cost.Cost.call;
            let cls =
              match get fr recv with
              | Heap.Vref o -> o.Heap.cls
              | v -> (as_obj ("call " ^ mname) v).Heap.cls
            in
            let callee =
              match !last with
              | Some (c, callee) when c == cls || String.equal c cls -> callee
              | Some _ | None ->
                  let callee =
                    match find_code ex cls mname with
                    | callee -> callee
                    | exception Not_found ->
                        code_of ex (Ir.resolve_virtual ex.prog cls mname)
                  in
                  last := Some (cls, callee);
                  callee
            in
            invoke fr callee;
            next
      | Ir.Virtual _, None ->
          fun _ ->
            Sched.tick cost.Cost.call;
            invalid_arg "option is None")
  | Ir.Builtin { dst; name; args } -> (
      let f = builtin ex name (List.map opnd args) in
      match dst with
      | Some d ->
          fun fr ->
            fr.regs.(d) <- f fr;
            next
      | None ->
          fun fr ->
            ignore (f fr : Heap.value);
            next)
  | Ir.If (c, target) ->
      let c = opnd c in
      fun fr -> if bool_of "if" (get fr c) then target else next
  | Ir.Goto target -> fun _ -> target
  | Ir.Ret None -> fun _ -> -1
  | Ir.Ret (Some v) ->
      let v = opnd v in
      fun fr ->
        fr.rv <- get fr v;
        -1
  | Ir.AtomicBegin end_pc ->
      fun fr ->
        let saved = Array.copy fr.regs in
        Stm.atomic (fun () ->
            Array.blit saved 0 fr.regs 0 (Array.length saved);
            match run_range ex k fr next end_pc with
            | -1 -> err "return out of atomic block"
            | _ -> ()
            | exception Interp_error _ when not (Stm.valid ()) ->
                (* a doomed transaction read inconsistent state and
                   faulted; the managed runtime validates on faults and
                   aborts instead of failing (Section 3.4 discussion) *)
                Stm.abort_and_retry ());
        end_pc + 1
  | Ir.AtomicEnd -> fun _ -> err "stray atomic-end"
  | Ir.MonitorEnter o ->
      let o = opnd o in
      fun fr ->
        Sim_mutex.lock (monitor_of ex (obj_of "monitor" (get fr o)));
        next
  | Ir.MonitorExit o ->
      let o = opnd o in
      fun fr ->
        Sim_mutex.unlock (monitor_of ex (obj_of "monitor" (get fr o)));
        next
  | Ir.Print v ->
      let v = opnd v in
      fun fr ->
        ex.prints <- Heap.show_value (get fr v) :: ex.prints;
        next
  | Ir.Retry -> fun _ -> Stm.retry ()

(* The statics object of [cls], initializing the class on first use; the
   returned function caches the object after its first call. *)
and statics_of ex cls =
  let holder = ref None in
  fun () ->
    match !holder with
    | Some o -> o
    | None ->
        ensure_initialized ex cls;
        let o = statics_obj ex cls in
        holder := Some o;
        o

(* Execute [k] from [pc] until [Ret] (returns -1) or until [stop]
   (exclusive; returns [stop]). Each instruction charges one ALU tick
   before it runs, exactly as the instruction-matching interpreter did. *)
and run_range ex k frame pc stop =
  let ops = k.ops in
  let n = Array.length ops in
  let alu = ex.cfg.cost.Cost.alu in
  let pc = ref pc in
  while !pc <> stop && !pc <> -1 do
    if !pc = n then err "method %s::%s fell off the end" k.meth.Ir.mcls k.meth.Ir.mname;
    Sched.tick alu;
    ex.instrs <- ex.instrs + 1;
    pc := ops.(!pc) frame
  done;
  !pc

and run_code ex k frame = ignore (run_range ex k frame 0 (-1) : int)

(* Run [m] with no arguments: [main], a [clinit], or a thread's [run] on
   its receiver [this]. *)
and call ex (m : Ir.meth) this =
  let k = code_of ex m in
  let frame = new_frame k in
  Option.iter (fun v -> frame.regs.(0) <- v) this;
  run_code ex k frame

and compile_binop d op a b next : frame -> int =
  (* right operand first: a type error reports the same operand it always
     did *)
  match op with
  | Ir.Add ->
      fun fr ->
        let y = int_of "binop" (get fr b) in
        fr.regs.(d) <- Heap.Vint (int_of "binop" (get fr a) + y);
        next
  | Ir.Sub ->
      fun fr ->
        let y = int_of "binop" (get fr b) in
        fr.regs.(d) <- Heap.Vint (int_of "binop" (get fr a) - y);
        next
  | Ir.Mul ->
      fun fr ->
        let y = int_of "binop" (get fr b) in
        fr.regs.(d) <- Heap.Vint (int_of "binop" (get fr a) * y);
        next
  | Ir.Lt ->
      fun fr ->
        let y = int_of "binop" (get fr b) in
        fr.regs.(d) <- vbool (int_of "binop" (get fr a) < y);
        next
  | Ir.Le ->
      fun fr ->
        let y = int_of "binop" (get fr b) in
        fr.regs.(d) <- vbool (int_of "binop" (get fr a) <= y);
        next
  | Ir.Gt ->
      fun fr ->
        let y = int_of "binop" (get fr b) in
        fr.regs.(d) <- vbool (int_of "binop" (get fr a) > y);
        next
  | Ir.Ge ->
      fun fr ->
        let y = int_of "binop" (get fr b) in
        fr.regs.(d) <- vbool (int_of "binop" (get fr a) >= y);
        next
  | Ir.Div ->
      fun fr ->
        let dv = int_of "div" (get fr b) in
        if dv = 0 then err "division by zero";
        fr.regs.(d) <- Heap.Vint (int_of "div" (get fr a) / dv);
        next
  | Ir.Mod ->
      fun fr ->
        let dv = int_of "mod" (get fr b) in
        if dv = 0 then err "modulo by zero";
        fr.regs.(d) <- Heap.Vint (int_of "mod" (get fr a) mod dv);
        next
  | Ir.Eq ->
      fun fr ->
        fr.regs.(d) <- vbool (Heap.value_equal (get fr a) (get fr b));
        next
  | Ir.Ne ->
      fun fr ->
        fr.regs.(d) <- vbool (not (Heap.value_equal (get fr a) (get fr b)));
        next
  | Ir.And ->
      fun fr ->
        fr.regs.(d) <- vbool (bool_of "&&" (get fr a) && bool_of "&&" (get fr b));
        next
  | Ir.Or ->
      fun fr ->
        fr.regs.(d) <- vbool (bool_of "||" (get fr a) || bool_of "||" (get fr b));
        next

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
    compiled = Hashtbl.create 16;
  }

let exec_main ex =
  build_plans ex;
  (* compiled code folds in [ex.cfg] and the plans: start afresh *)
  Hashtbl.reset ex.methods;
  Hashtbl.reset ex.compiled;
  init_statics ex;
  let m =
    match Ir.find_method ex.prog ex.prog.Ir.main_class "main" with
    | Some m when m.Ir.m_static -> m
    | Some _ | None -> err "no static main() in %s" ex.prog.Ir.main_class
  in
  (* the main class initializes first, as if the VM loaded it *)
  ensure_initialized ex ex.prog.Ir.main_class;
  call ex m None

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
