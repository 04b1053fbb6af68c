open Stm_runtime
open Stm_core
open Stm_obs

(* Offline trace ingestion: the JSONL the recorder exports ([Export]),
   parsed back into [Recorder.entry] values so the same heatmap /
   causality / flight pipeline that runs live can replay a checked-in
   trace. Resolved site labels (strings written by [--trace-out] with a
   program loaded) are re-interned into fresh ids and handed back as a
   [resolve] function; unknown event kinds and malformed lines are
   counted, not fatal - a trace from a newer or older build should
   degrade, not crash the analyzer. *)

type result = {
  entries : Recorder.entry list;
  resolve : int -> string option;  (* interned site labels *)
  parsed : int;
  skipped : int;
}

(* Interned string sites get ids from a range no real site uses
   (site ids are small non-negative ints from the IR). *)
let intern_base = 1_000_000

let cause_of_string s =
  List.find_opt (fun c -> String.equal (Trace.string_of_cause c) s) Metrics.all_causes

let op_of_string = function
  | "read" -> Some Trace.Op_read
  | "read-ordering" -> Some Trace.Op_read_ordering
  | "write" -> Some Trace.Op_write
  | "txn-read" -> Some Trace.Op_txn_read
  | "txn-write" -> Some Trace.Op_txn_write
  | _ -> None

let path_of_string = function
  | "fired" -> Some Trace.Path_fired
  | "private" -> Some Trace.Path_private
  | "elided" -> Some Trace.Path_elided
  | _ -> None

(* Best-effort reverse of [Heap.show_value]; structure is not needed by
   any analysis, only a printable value. *)
let value_of_string s =
  match s with
  | "()" -> Heap.Vunit
  | "null" -> Heap.Vnull
  | "true" -> Heap.Vbool true
  | "false" -> Heap.Vbool false
  | _ -> (
      match int_of_string_opt s with
      | Some i -> Heap.Vint i
      | None -> (
          match float_of_string_opt s with
          | Some f -> Heap.Vfloat f
          | None -> Heap.Vstr s))

let int_field ?(default = -1) j k =
  match Option.bind (Json.member k j) Json.to_int_opt with
  | Some i -> i
  | None -> default

let str_field ?(default = "") j k =
  match Option.bind (Json.member k j) Json.to_str_opt with
  | Some s -> s
  | None -> default

let bool_field ?(default = false) j k =
  match Option.bind (Json.member k j) Json.to_bool_opt with
  | Some b -> b
  | None -> default

(* Sites are written as raw ints (unresolved) or strings (resolved
   source labels); [intern] turns a label into a stable synthetic id. *)
let site_field intern j k =
  match Json.member k j with
  | Some (Json.Int i) -> i
  | Some (Json.Str s) -> intern s
  | _ -> -1

(* [None] for unknown kinds. Abort events missing the attribution fields
   ([by], [by_tid], [oid]: traces from before they existed) default them
   to [-1]. *)
let event_of_json ~intern j =
  let i = int_field j and s = str_field and b = bool_field in
  match str_field j "ev" with
  | "txn_begin" -> Some (Trace.Txn_begin { txid = i "txid"; tid = i "tid" })
  | "txn_commit" ->
      Some
        (Trace.Txn_commit
           {
             txid = i "txid";
             tid = i "tid";
             reads = int_field ~default:0 j "reads";
             writes = int_field ~default:0 j "writes";
             latency = int_field ~default:0 j "latency";
           })
  | "txn_abort" ->
      Option.map
        (fun cause ->
          Trace.Txn_abort
            {
              txid = i "txid";
              tid = i "tid";
              wounded = b j "wounded";
              cause;
              latency = int_field ~default:0 j "latency";
              (* absent in pre-diag traces: degrade to unattributed *)
              by = i "by";
              by_tid = i "by_tid";
              oid = i "oid";
            })
        (cause_of_string (s j "cause"))
  | "txn_wound" -> Some (Trace.Txn_wound { victim = i "victim"; by = i "by" })
  | "conflict" ->
      Some
        (Trace.Conflict
           {
             tid = i "tid";
             oid = i "oid";
             cls = s j "class";
             writer = b j "writer";
             site = site_field intern j "site";
           })
  | "publish" -> Some (Trace.Publish { oid = i "oid"; cls = s j "class" })
  | "quiesce_wait" -> Some (Trace.Quiesce_wait { txid = i "txid" })
  | "barrier" ->
      Option.bind (op_of_string (s j "op")) (fun op ->
          Option.map
            (fun path ->
              Trace.Barrier
                { tid = i "tid"; site = site_field intern j "site"; op; path })
            (path_of_string (s j "path")))
  | "backoff" ->
      Some
        (Trace.Backoff
           {
             tid = i "tid";
             attempt = int_field ~default:0 j "attempt";
             delay = int_field ~default:0 j "delay";
           })
  | "validation" ->
      Some (Trace.Validation { txid = i "txid"; tid = i "tid"; ok = b j "ok" })
  | "cm_decision" ->
      Some
        (Trace.Cm_decision
           {
             tid = i "tid";
             txid = i "txid";
             policy = s j "policy";
             decision = s j "decision";
             owner = i "owner";
             delay = int_field ~default:0 j "delay";
           })
  | "access" ->
      Some
        (Trace.Access
           {
             tid = i "tid";
             txid = i "txid";
             oid = i "oid";
             fld = int_field ~default:0 j "fld";
             value = value_of_string (s j "value");
             write = b j "write";
           })
  | "txn_serialized" ->
      Some (Trace.Txn_serialized { txid = i "txid"; tid = i "tid" })
  | _ -> None

let entry_of_json ~intern j =
  Option.map
    (fun ev ->
      {
        Recorder.ts = int_field ~default:0 j "ts";
        step = int_field ~default:0 j "step";
        tid = int_field j "tid";
        ev;
      })
    (event_of_json ~intern j)

let of_lines lines =
  let labels : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let by_id : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let intern s =
    match Hashtbl.find_opt labels s with
    | Some id -> id
    | None ->
        let id = intern_base + Hashtbl.length labels in
        Hashtbl.replace labels s id;
        Hashtbl.replace by_id id s;
        id
  in
  let parsed = ref 0 and skipped = ref 0 in
  let entries =
    List.filter_map
      (fun line ->
        let line = String.trim line in
        if line = "" then None
        else
          match Json.of_string line with
          | Error _ ->
              incr skipped;
              None
          | Ok j -> (
              match entry_of_json ~intern j with
              | Some e ->
                  incr parsed;
                  Some e
              | None ->
                  incr skipped;
                  None))
      lines
  in
  {
    entries;
    resolve = (fun id -> Hashtbl.find_opt by_id id);
    parsed = !parsed;
    skipped = !skipped;
  }

let of_channel ic =
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  of_lines (go [])

let of_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> of_channel ic)

let of_string s = of_lines (String.split_on_char '\n' s)
