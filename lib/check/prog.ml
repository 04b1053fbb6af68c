(* Fuzz-program representation.

   A program is a fixed small heap - [ncells] integer cells, [nslots]
   root slots each initially holding a one-field "box" object - plus one
   straight-line op sequence per thread. Steps are transactional blocks,
   single non-transactional accesses, or the paper's two sharing-status
   transitions (publish a freshly allocated object / privatize the
   object reachable from a root slot).

   Every write stores a value tagged with a token unique to its static
   occurrence, so an execution's reads-from relation is directly
   observable: [value / token_scale] names the writing occurrence and
   the low bits carry the data payload (a hash of the writer's
   accumulator, which earlier reads feed - real data dependencies). *)

type expr =
  | Tok  (* write the occurrence token alone *)
  | Tok_acc  (* token + hash of the thread's accumulator *)

type op =
  | Read of int  (* acc <- combine acc cells[i] *)
  | Write of int * expr  (* cells[i] <- tagged value *)
  | Box_read of int  (* deref roots[s]; fold the box field into acc *)
  | Box_write of int  (* deref roots[s]; store a tagged value in the box *)

type step =
  | Atomic of op list  (* one transaction *)
  | Plain of op  (* one non-transactional access *)
  | Publish of int
      (* allocate a box (private under DEA), initialize it with a
         non-transactional store, install it in roots[s] transactionally *)
  | Privatize of int
      (* transactionally swap roots[s] for a unique tombstone; if a box
         was obtained, write and read it back non-transactionally *)

type t = { ncells : int; nslots : int; threads : step list list }

let nthreads t = List.length t.threads

(* ------------------------------------------------------------------ *)
(* Token scheme                                                        *)
(* ------------------------------------------------------------------ *)

(* Tokens are unique per static occurrence and disjoint across
   namespaces; [0] is reserved for initial cell values. *)

let max_steps = 64
let max_ops = 16
let token_scale = 65536  (* value = token * scale + payload *)

let op_token ~thread ~step ~op = (((thread * max_steps) + step) * max_ops) + op + 1
let pub_token ~thread ~step = 1_000_000 + (thread * max_steps) + step
let priv_token ~thread ~step = 2_000_000 + (thread * max_steps) + step
let tomb_token ~thread ~step = 3_000_000 + (thread * max_steps) + step
let init_box_token ~slot = 4_000_000 + slot

(* The accumulator folds every loaded value into 12 bits, so payloads
   never collide with the token field. *)
let combine acc v = ((acc * 31) + v) land 0xFFF

let value_of expr ~token ~acc =
  match expr with
  | Tok -> token * token_scale
  | Tok_acc -> (token * token_scale) + acc

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)
(* ------------------------------------------------------------------ *)

let pp_op ppf = function
  | Read i -> Fmt.pf ppf "r c%d" i
  | Write (i, Tok) -> Fmt.pf ppf "w c%d" i
  | Write (i, Tok_acc) -> Fmt.pf ppf "w c%d,acc" i
  | Box_read s -> Fmt.pf ppf "br s%d" s
  | Box_write s -> Fmt.pf ppf "bw s%d" s

let pp_step ppf = function
  | Atomic ops -> Fmt.pf ppf "atomic{%a}" Fmt.(list ~sep:(any "; ") pp_op) ops
  | Plain op -> Fmt.pf ppf "plain(%a)" pp_op op
  | Publish s -> Fmt.pf ppf "publish s%d" s
  | Privatize s -> Fmt.pf ppf "privatize s%d" s

let pp ppf t =
  Fmt.pf ppf "%d cells, %d slots@." t.ncells t.nslots;
  List.iteri
    (fun i steps ->
      Fmt.pf ppf "  T%d: %a@." i Fmt.(list ~sep:(any " . ") pp_step) steps)
    t.threads

let to_string t = Fmt.str "%a" pp t

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

open Stm_obs

let op_to_json = function
  | Read i -> Json.Obj [ ("op", Json.Str "read"); ("cell", Json.Int i) ]
  | Write (i, e) ->
      Json.Obj
        [
          ("op", Json.Str "write");
          ("cell", Json.Int i);
          ("expr", Json.Str (match e with Tok -> "tok" | Tok_acc -> "tok-acc"));
        ]
  | Box_read s -> Json.Obj [ ("op", Json.Str "box-read"); ("slot", Json.Int s) ]
  | Box_write s -> Json.Obj [ ("op", Json.Str "box-write"); ("slot", Json.Int s) ]

let step_to_json = function
  | Atomic ops -> Json.Obj [ ("atomic", Json.List (List.map op_to_json ops)) ]
  | Plain op -> Json.Obj [ ("plain", op_to_json op) ]
  | Publish s -> Json.Obj [ ("publish", Json.Int s) ]
  | Privatize s -> Json.Obj [ ("privatize", Json.Int s) ]

let to_json t =
  Json.Obj
    [
      ("ncells", Json.Int t.ncells);
      ("nslots", Json.Int t.nslots);
      ( "threads",
        Json.List
          (List.map (fun steps -> Json.List (List.map step_to_json steps)) t.threads)
      );
    ]

let ( let* ) = Option.bind

let op_of_json j =
  let* name = Option.bind (Json.member "op" j) Json.to_str_opt in
  match name with
  | "read" ->
      let* i = Option.bind (Json.member "cell" j) Json.to_int_opt in
      Some (Read i)
  | "write" ->
      let* i = Option.bind (Json.member "cell" j) Json.to_int_opt in
      let* e = Option.bind (Json.member "expr" j) Json.to_str_opt in
      let* e =
        match e with "tok" -> Some Tok | "tok-acc" -> Some Tok_acc | _ -> None
      in
      Some (Write (i, e))
  | "box-read" ->
      let* s = Option.bind (Json.member "slot" j) Json.to_int_opt in
      Some (Box_read s)
  | "box-write" ->
      let* s = Option.bind (Json.member "slot" j) Json.to_int_opt in
      Some (Box_write s)
  | _ -> None

let rec map_opt f = function
  | [] -> Some []
  | x :: rest ->
      let* y = f x in
      let* ys = map_opt f rest in
      Some (y :: ys)

let step_of_json j =
  match j with
  | Json.Obj [ ("atomic", Json.List ops) ] ->
      let* ops = map_opt op_of_json ops in
      Some (Atomic ops)
  | Json.Obj [ ("plain", op) ] ->
      let* op = op_of_json op in
      Some (Plain op)
  | Json.Obj [ ("publish", Json.Int s) ] -> Some (Publish s)
  | Json.Obj [ ("privatize", Json.Int s) ] -> Some (Privatize s)
  | _ -> None

let of_json j =
  let* ncells = Option.bind (Json.member "ncells" j) Json.to_int_opt in
  let* nslots = Option.bind (Json.member "nslots" j) Json.to_int_opt in
  let* threads = Option.bind (Json.member "threads" j) Json.to_list_opt in
  let* threads =
    map_opt
      (fun tj ->
        let* steps = Json.to_list_opt tj in
        map_opt step_of_json steps)
      threads
  in
  Some { ncells; nslots; threads }
