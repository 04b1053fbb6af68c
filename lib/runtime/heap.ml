type value =
  | Vunit
  | Vnull
  | Vbool of bool
  | Vint of int
  | Vfloat of float
  | Vstr of string
  | Vref of obj

and obj = {
  oid : int;
  cls : string;
  kind : [ `Obj | `Arr | `Statics ];
  txrec : int Atomic.t;
  fields : value array;
  (* Multi-version backend (mvcc): [fields] always holds the latest
     committed version; [vts] is the commit timestamp it was installed
     at (0 = initial state), and [past] chains the superseded versions,
     newest first. Single-version backends never touch either field. *)
  mutable vts : int;
  mutable past : version list;
}

and version = { vfrom : int; vvals : value array }
(* A superseded whole-object version: [vvals] were the object's fields
   from commit timestamp [vfrom] (inclusive) until the next-newer
   version's [vfrom] (exclusive). *)

let counter = ref 0

let reset () = counter := 0

let shared_txrec0 = 0b011
let private_txrec = -1

let fresh_oid () =
  (* Allocation order is shared state: object identity flows from it. *)
  Footprint.write Footprint.oid_alloc;
  incr counter;
  !counter

let last_oid () = !counter

let reissue o fields =
  if o.oid <> !counter + 1 then invalid_arg "Heap.reissue: not the next oid";
  ignore (fresh_oid () : int);
  Atomic.set o.txrec shared_txrec0;
  o.vts <- 0;
  o.past <- [];
  Array.blit fields 0 o.fields 0 (Array.length o.fields)

let alloc ?(txrec = shared_txrec0) ~cls n =
  {
    oid = fresh_oid ();
    cls;
    kind = `Obj;
    txrec = Atomic.make txrec;
    fields = Array.make n Vnull;
    vts = 0;
    past = [];
  }

let alloc_array ?(txrec = shared_txrec0) n init =
  {
    oid = fresh_oid ();
    cls = "<array>";
    kind = `Arr;
    txrec = Atomic.make txrec;
    fields = Array.make n init;
    vts = 0;
    past = [];
  }

let alloc_statics ?(txrec = shared_txrec0) ~cls n =
  {
    oid = fresh_oid ();
    cls = "<statics:" ^ cls ^ ">";
    kind = `Statics;
    txrec = Atomic.make txrec;
    fields = Array.make n Vnull;
    vts = 0;
    past = [];
  }

(* Sentinel for unused slots of growable arrays of objects (the STM's
   reusable logs). Never registered, never reachable from user code; its
   negative oid cannot collide with an allocated object's. *)
let dummy =
  {
    oid = -1;
    cls = "<dummy>";
    kind = `Obj;
    txrec = Atomic.make shared_txrec0;
    fields = [||];
    vts = 0;
    past = [];
  }

let get o i =
  Footprint.read o.oid;
  o.fields.(i)

let set o i v =
  Footprint.write o.oid;
  o.fields.(i) <- v

let nfields o = Array.length o.fields

let txrec_peek o = Atomic.get o.txrec

(* ------------------------------------------------------------------ *)
(* Version chains (mvcc backend)                                       *)
(* ------------------------------------------------------------------ *)

let version_ts o =
  Footprint.read o.oid;
  o.vts

let version_ts_peek o = o.vts

let set_version_ts o ts =
  Footprint.write o.oid;
  o.vts <- ts
let chain_length o = 1 + List.length o.past

(* Retire the current fields into the chain; the caller then overwrites
   [fields] in place and stamps the new [vts]. *)
let push_version o =
  Footprint.write o.oid;
  o.past <- { vfrom = o.vts; vvals = Array.copy o.fields } :: o.past

(* The value of field [fld] as of snapshot [ts]: the newest version whose
   install timestamp is [<= ts]. [None] means the chain was pruned past
   [ts] (snapshot too old). *)
let read_at o fld ~ts =
  Footprint.read o.oid;
  if o.vts <= ts then Some o.fields.(fld)
  else
    let rec find = function
      | [] -> None
      | { vfrom; vvals } :: older ->
          if vfrom <= ts then Some vvals.(fld) else find older
    in
    find o.past

(* Drop chain entries no live snapshot can reach: walking newest-first,
   every version installed at or before [oldest] except the first is
   unreachable (the first still serves snapshot [oldest] itself). The
   [max_versions] cap bounds the chain length regardless — dropping a
   reachable version is then possible and surfaces to readers as a
   snapshot-too-old miss. Returns the number of versions dropped. *)
let prune_past o ~oldest ~max_versions =
  Footprint.write o.oid;
  let dropped = ref 0 in
  let rec go n = function
    | [] -> []
    | ({ vfrom; _ } as v) :: older ->
        (* [n] entries already kept (current fields included): admitting
           [v] makes [n + 1], which must not exceed the cap *)
        if n + 1 > max_versions then begin
          dropped := !dropped + 1 + List.length older;
          []
        end
        else if vfrom <= oldest then begin
          (* [v] is the floor: everything older is unreachable *)
          dropped := !dropped + List.length older;
          [ v ]
        end
        else v :: go (n + 1) older
  in
  o.past <- go 1 o.past;
  !dropped

let value_equal a b =
  match (a, b) with
  | Vunit, Vunit | Vnull, Vnull -> true
  | Vbool x, Vbool y -> x = y
  | Vint x, Vint y -> x = y
  | Vfloat x, Vfloat y -> x = y
  | Vstr x, Vstr y -> String.equal x y
  | Vref x, Vref y -> x == y
  | (Vunit | Vnull | Vbool _ | Vint _ | Vfloat _ | Vstr _ | Vref _), _ ->
      false

let rec pp_value ppf = function
  | Vunit -> Fmt.string ppf "()"
  | Vnull -> Fmt.string ppf "null"
  | Vbool b -> Fmt.bool ppf b
  | Vint i -> Fmt.int ppf i
  | Vfloat f -> Fmt.float ppf f
  | Vstr s -> Fmt.pf ppf "%S" s
  | Vref o -> Fmt.pf ppf "%s@%d" o.cls o.oid

and show_value v = Fmt.str "%a" pp_value v
