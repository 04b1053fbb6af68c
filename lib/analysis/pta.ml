open Stm_ir

type ctx = Txn | Nontxn

module ISet = Set.Make (Int)

type aid = int

type site_info = {
  site : int;
  meth : Ir.meth;
  kind : [ `Read | `Write ];
  array : bool;
  clinit_own : bool;
}

type origin =
  | Alloc of { site : int; hctx : ctx; cls : string; in_meth : string }
  | Statics of string

type t = {
  prog : Ir.program;
  mutable naids : int;
  alloc_tbl : (int * ctx, aid) Hashtbl.t;
  statics_tbl : (string, aid) Hashtbl.t;
  origins : (aid, origin) Hashtbl.t;
  (* variable points-to: (method key, ctx, reg) *)
  vpts : (string * ctx * int, ISet.t) Hashtbl.t;
  (* field points-to: (aid, field name) *)
  fpts : (aid * string, ISet.t) Hashtbl.t;
  retpts : (string * ctx, ISet.t) Hashtbl.t;
  reach : (string * ctx, Ir.meth) Hashtbl.t;
  in_atomic : (string, bool array) Hashtbl.t;
  mutable changed : bool;
  (* recording pass output *)
  site_pts : (int * ctx, ISet.t) Hashtbl.t;
  site_reach : (int * ctx, unit) Hashtbl.t;
  site_infos : (int, site_info) Hashtbl.t;
  mutable read_txn : ISet.t;
  mutable written_txn : ISet.t;
  mutable shared : ISet.t;
}

let mkey (m : Ir.meth) = m.Ir.mcls ^ "::" ^ m.Ir.mname

let get_set tbl key =
  match Hashtbl.find_opt tbl key with Some s -> s | None -> ISet.empty

let add_set t tbl key objs =
  if not (ISet.is_empty objs) then begin
    let old = get_set tbl key in
    let nw = ISet.union old objs in
    if not (ISet.equal old nw) then begin
      Hashtbl.replace tbl key nw;
      t.changed <- true
    end
  end

let alloc_aid t site ctx cls ~in_meth =
  match Hashtbl.find_opt t.alloc_tbl (site, ctx) with
  | Some a -> a
  | None ->
      let a = t.naids in
      t.naids <- a + 1;
      Hashtbl.replace t.alloc_tbl (site, ctx) a;
      Hashtbl.replace t.origins a (Alloc { site; hctx = ctx; cls; in_meth });
      a

let statics_aid t cls =
  match Hashtbl.find_opt t.statics_tbl cls with
  | Some a -> a
  | None ->
      let a = t.naids in
      t.naids <- a + 1;
      Hashtbl.replace t.statics_tbl cls a;
      Hashtbl.replace t.origins a (Statics cls);
      a

let aid_class t a =
  match Hashtbl.find t.origins a with
  | Alloc { cls; _ } -> cls
  | Statics cls -> "<statics:" ^ cls ^ ">"

let aid_is_statics t a =
  match Hashtbl.find t.origins a with Statics _ -> true | Alloc _ -> false

let n_objects t = t.naids

(* Lexical atomic nesting per instruction. *)
let compute_in_atomic (m : Ir.meth) =
  let n = Array.length m.Ir.body in
  let res = Array.make n false in
  let depth = ref 0 in
  for pc = 0 to n - 1 do
    (match m.Ir.body.(pc) with
    | Ir.AtomicBegin _ ->
        res.(pc) <- !depth > 0;
        incr depth
    | Ir.AtomicEnd ->
        decr depth;
        res.(pc) <- !depth > 0
    | _ -> res.(pc) <- !depth > 0)
  done;
  res

let in_atomic t (m : Ir.meth) =
  let key = mkey m in
  match Hashtbl.find_opt t.in_atomic key with
  | Some a -> a
  | None ->
      let a = compute_in_atomic m in
      Hashtbl.replace t.in_atomic key a;
      a

let mark_reachable t m ctx =
  let key = (mkey m, ctx) in
  if not (Hashtbl.mem t.reach key) then begin
    Hashtbl.replace t.reach key m;
    t.changed <- true
  end

let operand_pts t key ctx = function
  | Ir.Reg r -> get_set t.vpts (key, ctx, r)
  | Ir.Cint _ | Ir.Cbool _ | Ir.Cstr _ | Ir.Cnull -> ISet.empty

(* Transfer for one instruction. When [record] is set, fill the per-site
   tables and the accessed-in-transaction bits instead of propagating. *)
let process_instr t (m : Ir.meth) mctx pc ins ~record =
  let key = mkey m in
  let eff : ctx = if mctx = Txn || (in_atomic t m).(pc) then Txn else Nontxn in
  let pts op = operand_pts t key mctx op in
  let vset r objs = add_set t t.vpts (key, mctx, r) objs in
  let is_clinit_own cls =
    String.equal m.Ir.mname "clinit" && String.equal m.Ir.mcls cls
  in
  (* Class-initialization semantics (Section 5.3): while C.clinit runs, no
     other thread can reach C's statics, nor objects allocated inside the
     initializer (they are only reachable through those statics). Accesses
     in clinit whose targets are all such objects need not count. *)
  let clinit_local objs =
    String.equal m.Ir.mname "clinit"
    && (not (ISet.is_empty objs))
    && ISet.for_all
         (fun a ->
           match Hashtbl.find t.origins a with
           | Statics cls -> String.equal cls m.Ir.mcls
           | Alloc { in_meth; _ } -> String.equal in_meth key)
         objs
  in
  let record_site (note : Ir.note) kind ~array ~objs ~clinit_own =
    Hashtbl.replace t.site_reach (note.Ir.site, eff) ();
    let old = get_set t.site_pts (note.Ir.site, eff) in
    Hashtbl.replace t.site_pts (note.Ir.site, eff) (ISet.union old objs);
    if not (Hashtbl.mem t.site_infos note.Ir.site) then
      Hashtbl.replace t.site_infos note.Ir.site
        { site = note.Ir.site; meth = m; kind; array; clinit_own };
    if eff = Txn && not clinit_own then
      match kind with
      | `Read -> t.read_txn <- ISet.union t.read_txn objs
      | `Write -> t.written_txn <- ISet.union t.written_txn objs
  in
  match ins with
  | Ir.Move (d, s) -> vset d (pts s)
  | Ir.New { dst; cls; site } ->
      vset dst (ISet.singleton (alloc_aid t site eff cls ~in_meth:key))
  | Ir.NewArr { dst; site; _ } ->
      vset dst (ISet.singleton (alloc_aid t site eff "<array>" ~in_meth:key))
  | Ir.Load { dst; obj; fld; note; _ } ->
      let objs = pts obj in
      if record then
        record_site note `Read ~array:false ~objs
          ~clinit_own:(clinit_local objs)
      else
        ISet.iter (fun o -> vset dst (get_set t.fpts (o, fld))) objs
  | Ir.Store { obj; fld; src; note; _ } ->
      let objs = pts obj in
      if record then
        record_site note `Write ~array:false ~objs
          ~clinit_own:(clinit_local objs)
      else
        ISet.iter (fun o -> add_set t t.fpts (o, fld) (pts src)) objs
  | Ir.LoadS { dst; cls; fld; note; _ } ->
      let o = statics_aid t cls in
      if record then
        record_site note `Read ~array:false ~objs:(ISet.singleton o)
          ~clinit_own:(is_clinit_own cls)
      else vset dst (get_set t.fpts (o, fld))
  | Ir.StoreS { cls; fld; src; note; _ } ->
      let o = statics_aid t cls in
      if record then
        record_site note `Write ~array:false ~objs:(ISet.singleton o)
          ~clinit_own:(is_clinit_own cls)
      else add_set t t.fpts (o, fld) (pts src)
  | Ir.ALoad { dst; arr; note; _ } ->
      let objs = pts arr in
      if record then
        record_site note `Read ~array:true ~objs
          ~clinit_own:(clinit_local objs)
      else ISet.iter (fun o -> vset dst (get_set t.fpts (o, "[]"))) objs
  | Ir.AStore { arr; src; note; _ } ->
      let objs = pts arr in
      if record then
        record_site note `Write ~array:true ~objs
          ~clinit_own:(clinit_local objs)
      else ISet.iter (fun o -> add_set t t.fpts (o, "[]") (pts src)) objs
  | Ir.Call { dst; target; this; args; _ } when not record ->
      let bind (callee : Ir.meth) receiver =
        let cctx = eff in
        mark_reachable t callee cctx;
        let ckey = mkey callee in
        let base =
          match receiver with
          | Some objs ->
              add_set t t.vpts (ckey, cctx, 0) objs;
              1
          | None -> 0
        in
        List.iteri
          (fun i a -> add_set t t.vpts (ckey, cctx, base + i) (pts a))
          args;
        match dst with
        | Some d -> vset d (get_set t.retpts (ckey, cctx))
        | None -> ()
      in
      (match target with
      | Ir.Static (c, mn) -> (
          match Ir.find_method t.prog c mn with
          | Some callee -> bind callee None
          | None -> ())
      | Ir.Virtual (_, mn) ->
          let robjs = pts (Option.get this) in
          (* dispatch per receiver class *)
          let by_target = Hashtbl.create 4 in
          ISet.iter
            (fun o ->
              match Ir.find_method t.prog (aid_class t o) mn with
              | Some callee ->
                  let k = mkey callee in
                  let cur =
                    Option.value ~default:(callee, ISet.empty)
                      (Hashtbl.find_opt by_target k)
                  in
                  Hashtbl.replace by_target k
                    (callee, ISet.add o (snd cur))
              | None -> ())
            robjs;
          Hashtbl.iter (fun _ (callee, objs) -> bind callee (Some objs)) by_target)
  | Ir.Builtin { name = "spawn"; args = [ a ]; _ } when not record ->
      let robjs = pts a in
      ISet.iter
        (fun o ->
          match Ir.find_method t.prog (aid_class t o) "run" with
          | Some callee ->
              mark_reachable t callee Nontxn;
              add_set t t.vpts (mkey callee, Nontxn, 0) (ISet.singleton o)
          | None -> ())
        robjs
  | Ir.Ret (Some v) when not record -> add_set t t.retpts (key, mctx) (pts v)
  | Ir.Call _ | Ir.Builtin _ | Ir.Ret _ | Ir.Nop | Ir.Unop _ | Ir.Binop _
  | Ir.ALen _ | Ir.If _ | Ir.Goto _ | Ir.AtomicBegin _ | Ir.AtomicEnd
  | Ir.MonitorEnter _ | Ir.MonitorExit _ | Ir.Print _ | Ir.Retry ->
      ()

let process_method t m ctx ~record =
  Array.iteri (fun pc ins -> process_instr t m ctx pc ins ~record) m.Ir.body

(* Thread-shared closure: everything reachable through field edges from
   statics holders and thread objects. *)
let compute_shared t =
  let roots = ref ISet.empty in
  Hashtbl.iter (fun _ a -> roots := ISet.add a !roots) t.statics_tbl;
  Hashtbl.iter
    (fun a origin ->
      match origin with
      | Alloc { cls; _ }
        when Hashtbl.mem t.prog.Ir.classes cls && Ir.is_thread_class t.prog cls
        ->
          roots := ISet.add a !roots
      | Alloc _ | Statics _ -> ())
    t.origins;
  let visited = ref ISet.empty in
  let rec visit a =
    if not (ISet.mem a !visited) then begin
      visited := ISet.add a !visited;
      Hashtbl.iter
        (fun (o, _) objs -> if o = a then ISet.iter visit objs)
        t.fpts
    end
  in
  ISet.iter visit !roots;
  t.shared <- !visited

let analyze prog =
  let t =
    {
      prog;
      naids = 0;
      alloc_tbl = Hashtbl.create 64;
      statics_tbl = Hashtbl.create 16;
      origins = Hashtbl.create 64;
      vpts = Hashtbl.create 256;
      fpts = Hashtbl.create 256;
      retpts = Hashtbl.create 32;
      reach = Hashtbl.create 32;
      in_atomic = Hashtbl.create 32;
      changed = true;
      site_pts = Hashtbl.create 256;
      site_reach = Hashtbl.create 256;
      site_infos = Hashtbl.create 256;
      read_txn = ISet.empty;
      written_txn = ISet.empty;
      shared = ISet.empty;
    }
  in
  (match Ir.find_method prog prog.Ir.main_class "main" with
  | Some m -> Hashtbl.replace t.reach (mkey m, Nontxn) m
  | None -> invalid_arg "Pta.analyze: no main method");
  (* class initializers are entry points: the first use of a class may be
     anywhere, including inside a transaction (paper Section 5.3), so
     analyze every clinit in both contexts *)
  Hashtbl.iter
    (fun cname _ ->
      match Ir.find_method prog cname "clinit" with
      | Some m when m.Ir.m_static && m.Ir.params = [] && m.Ir.mcls = cname ->
          Hashtbl.replace t.reach (mkey m, Nontxn) m;
          Hashtbl.replace t.reach (mkey m, Txn) m
      | Some _ | None -> ())
    prog.Ir.classes;
  (* ensure statics objects exist even if only accessed via fields *)
  Hashtbl.iter
    (fun cname _ ->
      if Ir.static_fields prog cname <> [] then ignore (statics_aid t cname))
    prog.Ir.classes;
  while t.changed do
    t.changed <- false;
    (* iterate over a snapshot: reach grows during the pass *)
    let work = Hashtbl.fold (fun (_, c) m acc -> (m, c) :: acc) t.reach [] in
    List.iter (fun (m, c) -> process_method t m c ~record:false) work
  done;
  (* recording pass *)
  Hashtbl.iter (fun (_, c) m -> process_method t m c ~record:true) t.reach;
  compute_shared t;
  t

let site_reachable t ctx site = Hashtbl.mem t.site_reach (site, ctx)
let site_objs t ctx site = get_set t.site_pts (site, ctx)
let iter_sites t f = Hashtbl.iter (fun _ info -> f info) t.site_infos
let read_in_txn t a = ISet.mem a t.read_txn
let written_in_txn t a = ISet.mem a t.written_txn
let thread_shared t a = ISet.mem a t.shared

let reachable_methods t =
  Hashtbl.fold (fun (k, c) _ acc -> (k, c) :: acc) t.reach []
