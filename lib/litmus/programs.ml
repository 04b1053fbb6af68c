open Stm_runtime
open Stm_core

type t = {
  name : string;
  figure : string;
  group : string;
  anomaly : string;
  needs_granule : int;
  is_anomalous : string -> bool;
  build : Modes.harness -> Explorer.instance;
}

(* Initialization happens before any thread is spawned, so it uses raw
   heap stores: races are impossible there and the schedule tree stays
   small. *)
let init_int o fld n = Heap.set o fld (Heap.Vint n)

let geti o fld = Stm.to_int (Stm.read o fld)
let seti o fld n = Stm.write o fld (Stm.vint n)

(* Raw post-mortem field read (the simulation is over when observe runs). *)
let raw o fld = match Heap.get o fld with Heap.Vint n -> n | _ -> min_int

(* Outcomes are space-separated [k=v] integer fields, built with
   [string_of_int] and parsed by hand: the search takes a verdict on
   every run's outcome, and [Scanf] and [Printf] allocate hundreds of
   words for each. *)
exception No_field

let rec key_at s i key j =
  j = String.length key || (s.[i + j] = key.[j] && key_at s i key (j + 1))

let rec digits s i acc =
  if i < String.length s && s.[i] >= '0' && s.[i] <= '9' then
    digits s (i + 1) ((10 * acc) + Char.code s.[i] - Char.code '0')
  else acc

let rec field_from s key i =
  let n = String.length s and k = String.length key in
  if i + k >= n then raise No_field
  else if (i = 0 || s.[i - 1] = ' ') && s.[i + k] = '=' && key_at s i key 0 then begin
    let v = i + k + 1 in
    let neg = v < n && s.[v] = '-' in
    let d = if neg then v + 1 else v in
    if d >= n || s.[d] < '0' || s.[d] > '9' then raise No_field;
    let x = digits s d 0 in
    if neg then -x else x
  end
  else field_from s key (i + 1)

(* The integer of outcome [s]'s [key] field. Raises [No_field] when [s]
   has none: a deadlock or an exception outcome, which is in angle
   brackets, has no fields at all. *)
let field s key =
  if String.length s = 0 || s.[0] = '<' then raise No_field else field_from s key 0

(* Verdicts over one or two fields; an outcome without them is not
   anomalous. *)
let verdict1 key p s = try p (field s key) with No_field -> false
let verdict2 k1 k2 p s = try p (field s k1) (field s k2) with No_field -> false

(* Spawn the two racing threads and wait for both. *)
let race t1 t2 =
  let a = Sched.spawn ~name:"T1" t1 in
  let b = Sched.spawn ~name:"T2" t2 in
  Sched.join a;
  Sched.join b

let race4 t1 t2 t3 t4 =
  let a = Sched.spawn ~name:"T1" t1 in
  let b = Sched.spawn ~name:"T2" t2 in
  let c = Sched.spawn ~name:"T3" t3 in
  let d = Sched.spawn ~name:"T4" t4 in
  Sched.join a;
  Sched.join b;
  Sched.join c;
  Sched.join d

let non_repeatable_read =
  {
    name = "nr";
    figure = "2a";
    group = "NW-TR";
    anomaly = "r1 <> r2";
    needs_granule = 1;
    is_anomalous = verdict2 "r1" "r2" (fun a b -> a <> b);
    build =
      (fun h ->
        let x = ref None and r1 = ref 0 and r2 = ref 0 in
        let main () =
          let xo = Stm.alloc_public ~cls:"X" 1 in
          init_int xo 0 0;
          x := Some xo;
          race
            (fun () ->
              h.atomic (fun () ->
                  r1 := geti xo 0;
                  r2 := geti xo 0))
            (fun () -> seti xo 0 10)
        in
        let observe () = "r1=" ^ string_of_int !r1 ^ " r2=" ^ string_of_int !r2 in
        { Explorer.main; observe });
  }

(* Figure 2b (ILU) *)
let intermediate_lost_update =
  {
    name = "ilu";
    figure = "2b";
    group = "NW-TW";
    anomaly = "x = 1 (the non-transactional x=10 is lost)";
    needs_granule = 1;
    is_anomalous = (fun s -> s = "x=1");
    build =
      (fun h ->
        let xo = ref None in
        let main () =
          let x = Stm.alloc_public ~cls:"X" 1 in
          init_int x 0 0;
          xo := Some x;
          race
            (fun () ->
              h.atomic (fun () ->
                  let r = geti x 0 in
                  seti x 0 (r + 1)))
            (fun () -> seti x 0 10)
        in
        let observe () =
          "x=" ^ string_of_int (raw (Option.get !xo) 0)
        in
        { Explorer.main; observe });
  }

let intermediate_dirty_read =
  {
    name = "idr";
    figure = "2c";
    group = "NR-TW";
    anomaly = "r is odd (x's evenness invariant observed broken)";
    needs_granule = 1;
    is_anomalous = verdict1 "r" (fun r -> r >= 0 && r mod 2 = 1);
    build =
      (fun h ->
        let r = ref 0 in
        let main () =
          let x = Stm.alloc_public ~cls:"X" 1 in
          init_int x 0 0;
          race
            (fun () ->
              h.atomic (fun () ->
                  seti x 0 (geti x 0 + 1);
                  seti x 0 (geti x 0 + 1)))
            (fun () -> r := geti x 0)
        in
        let observe () = "r=" ^ string_of_int !r in
        { Explorer.main; observe });
  }

let speculative_lost_update =
  {
    name = "slu";
    figure = "3a";
    group = "NW-TW";
    anomaly = "x = 0 (rollback manufactured a write that lost x=2)";
    needs_granule = 1;
    is_anomalous = (fun s -> s = "x=0");
    build =
      (fun h ->
        let xo = ref None in
        let main () =
          let x = Stm.alloc_public ~cls:"X" 1 in
          let y = Stm.alloc_public ~cls:"Y" 1 in
          init_int x 0 0;
          init_int y 0 0;
          xo := Some x;
          race
            (fun () ->
              h.atomic (fun () ->
                  if geti y 0 = 0 then seti x 0 1;
                  h.force_abort ()))
            (fun () ->
              seti x 0 2;
              seti y 0 1)
        in
        let observe () = "x=" ^ string_of_int (raw (Option.get !xo) 0) in
        { Explorer.main; observe });
  }

let speculative_dirty_read =
  {
    name = "sdr";
    figure = "3b";
    group = "NR-TW";
    anomaly = "x = 0 (y=1 was triggered by a speculative value)";
    needs_granule = 1;
    is_anomalous = verdict2 "x" "y" (fun x _ -> x = 0);
    build =
      (fun h ->
        let xo = ref None and yo = ref None in
        let main () =
          let x = Stm.alloc_public ~cls:"X" 1 in
          let y = Stm.alloc_public ~cls:"Y" 1 in
          init_int x 0 0;
          init_int y 0 0;
          xo := Some x;
          yo := Some y;
          race
            (fun () ->
              h.atomic (fun () ->
                  if geti y 0 = 0 then seti x 0 1;
                  h.force_abort ()))
            (fun () -> if geti x 0 = 1 then seti y 0 1)
        in
        let observe () =
          "x=" ^ string_of_int (raw (Option.get !xo) 0)
          ^ " y=" ^ string_of_int (raw (Option.get !yo) 0)
        in
        { Explorer.main; observe });
  }

let overlapped_writes =
  {
    name = "mi-rw";
    figure = "4a";
    group = "NR-TW";
    anomaly = "r = 0 (publication seen before the field initialization)";
    needs_granule = 1;
    is_anomalous = (fun s -> s = "r=0");
    build =
      (fun h ->
        let r = ref (-1) in
        let main () =
          let g = Stm.alloc_public ~cls:"Globals" 1 in
          let el = Stm.alloc_public ~cls:"El" 1 in
          init_int el 0 0;
          Heap.set g 0 Heap.Vnull;
          r := -1;
          race
            (fun () ->
              h.atomic (fun () ->
                  seti el 0 1;
                  Stm.write g 0 (Stm.vref el)))
            (fun () ->
              let v = Stm.read g 0 in
              if not (Stm.is_null v) then r := geti (Stm.to_obj v) 0)
        in
        let observe () = "r=" ^ string_of_int !r in
        { Explorer.main; observe });
  }

(* Figure 4b (MI, non-txn write vs txn write) *)
let buffered_writes =
  {
    name = "mi-ww";
    figure = "4b";
    group = "NW-TW";
    anomaly = "item.val = 2 (committed write-back overwrote the later non-txn store)";
    needs_granule = 1;
    is_anomalous = (fun s -> s = "val=2");
    build =
      (fun h ->
        let item = ref None in
        let main () =
          let g = Stm.alloc_public ~cls:"Globals" 1 in
          let it = Stm.alloc_public ~cls:"Item" 1 in
          init_int it 0 1;
          Heap.set g 0 (Heap.Vref it);
          item := Some it;
          race
            (fun () ->
              let got = ref None in
              h.atomic (fun () ->
                  let v = Stm.read g 0 in
                  if not (Stm.is_null v) then begin
                    got := Some (Stm.to_obj v);
                    Stm.write g 0 Heap.Vnull
                  end);
              match !got with
              | Some o -> seti o 0 0 (* non-transactional: o is private now *)
              | None -> ())
            (fun () ->
              h.atomic (fun () ->
                  let v = Stm.read g 0 in
                  if not (Stm.is_null v) then begin
                    let o = Stm.to_obj v in
                    seti o 0 (geti o 0 + 1)
                  end))
        in
        let observe () = "val=" ^ string_of_int (raw (Option.get !item) 0) in
        { Explorer.main; observe });
  }

let granular_lost_update =
  {
    name = "glu";
    figure = "5a";
    group = "NW-TW";
    anomaly = "x.g = 0 (undo/copy of the adjacent field lost x.g=1)";
    needs_granule = 2;
    is_anomalous = (fun s -> s = "g=0");
    build =
      (fun h ->
        let xo = ref None in
        let main () =
          let x = Stm.alloc_public ~cls:"X" 2 in
          init_int x 0 0;
          init_int x 1 0;
          xo := Some x;
          race
            (fun () ->
              h.atomic (fun () ->
                  seti x 0 5;
                  h.force_abort ()))
            (fun () -> seti x 1 1)
        in
        let observe () = "g=" ^ string_of_int (raw (Option.get !xo) 1) in
        { Explorer.main; observe });
  }

let granular_inconsistent_read =
  {
    name = "gir";
    figure = "5b";
    group = "NW-TR";
    anomaly = "r = 0 (transaction read its own stale granule copy of x.g)";
    needs_granule = 2;
    is_anomalous = (fun s -> s = "r=0");
    build =
      (fun h ->
        let r = ref (-1) in
        let main () =
          let x = Stm.alloc_public ~cls:"X" 2 in
          let y = Stm.alloc_public ~cls:"Y" 1 in
          init_int x 0 0;
          init_int x 1 0;
          init_int y 0 0;
          r := -1;
          race
            (fun () ->
              h.atomic (fun () ->
                  seti x 0 7;
                  if geti y 0 = 1 then r := geti x 1))
            (fun () ->
              seti x 1 1;
              seti y 0 1)
        in
        let observe () = "r=" ^ string_of_int !r in
        { Explorer.main; observe });
  }

let privatization =
  {
    name = "privatization";
    figure = "1";
    group = "demo";
    anomaly = "r1 <> r2 (privatized item seen half-updated)";
    needs_granule = 1;
    is_anomalous = verdict2 "r1" "r2" (fun a b -> a <> b);
    build =
      (fun h ->
        let r1 = ref 0 and r2 = ref 0 in
        let main () =
          let head = Stm.alloc_public ~cls:"List" 1 in
          let item = Stm.alloc_public ~cls:"Item" 2 in
          init_int item 0 0;
          init_int item 1 0;
          Heap.set head 0 (Heap.Vref item);
          r1 := 0;
          r2 := 0;
          race
            (fun () ->
              (* Thread1: privatize the item, then access it unprotected *)
              let mine = ref None in
              h.atomic (fun () ->
                  let v = Stm.read head 0 in
                  if not (Stm.is_null v) then begin
                    mine := Some (Stm.to_obj v);
                    Stm.write head 0 Heap.Vnull
                  end);
              match !mine with
              | Some it ->
                  r1 := geti it 0;
                  r2 := geti it 1
              | None -> ())
            (fun () ->
              (* Thread2: properly synchronized increments *)
              h.atomic (fun () ->
                  let v = Stm.read head 0 in
                  if not (Stm.is_null v) then begin
                    let it = Stm.to_obj v in
                    seti it 0 (geti it 0 + 1);
                    seti it 1 (geti it 1 + 1)
                  end))
        in
        let observe () = "r1=" ^ string_of_int !r1 ^ " r2=" ^ string_of_int !r2 in
        { Explorer.main; observe });
  }

(* Section 2.1 text: "Thread 1 will not observe the value it wrote (10)
   if Thread 2 writes x between Thread 1's write and read". *)
let write_read_nr =
  {
    name = "nr-wr";
    figure = "2a-text";
    group = "NW-TR";
    anomaly = "r <> 10 (transaction fails to read back its own write)";
    needs_granule = 1;
    is_anomalous = verdict1 "r" (fun r -> r <> 10);
    build =
      (fun h ->
        let r = ref 0 in
        let main () =
          let x = Stm.alloc_public ~cls:"X" 1 in
          init_int x 0 0;
          race
            (fun () ->
              h.atomic (fun () ->
                  seti x 0 10;
                  r := geti x 0))
            (fun () -> seti x 0 20)
        in
        let observe () = "r=" ^ string_of_int !r in
        { Explorer.main; observe });
  }

(* Section 4's discussion: under eager versioning one transaction may read
   another's dirty (speculative) data, but such a doomed transaction must
   abort - dirty values never appear in a COMMITTED transaction's
   observations, under any mode. *)
let txn_dirty_read =
  {
    name = "txn-dirty";
    figure = "s4";
    group = "TXN-TXN";
    anomaly = "committed transaction observed a torn (x, y) pair";
    needs_granule = 1;
    is_anomalous =
      verdict2 "rx" "ry" (fun rx ry -> rx <> ry);
    build =
      (fun h ->
        let rx = ref 0 and ry = ref 0 in
        let main () =
          let x = Stm.alloc_public ~cls:"X" 1 in
          let y = Stm.alloc_public ~cls:"Y" 1 in
          init_int x 0 0;
          init_int y 0 0;
          race
            (fun () ->
              (* writes x and y together, then aborts once: its dirty
                 values are speculatively visible under eager versioning *)
              h.atomic (fun () ->
                  seti x 0 1;
                  seti y 0 1;
                  h.force_abort ()))
            (fun () ->
              h.atomic (fun () ->
                  rx := geti x 0;
                  ry := geti y 0))
        in
        let observe () = "rx=" ^ string_of_int !rx ^ " ry=" ^ string_of_int !ry in
        { Explorer.main; observe });
  }

(* The two guards read the location the other transaction writes; the
   write sets are disjoint, so first-committer-wins never fires and both
   commit under snapshot isolation. Serializable backends (and mvcc with
   commit-time read validation) must forbid the (1, 1) outcome. *)
let write_skew =
  {
    name = "write-skew";
    figure = "si";
    group = "TXN-TXN";
    anomaly = "x = 1 and y = 1 (both guards saw the other side still 0)";
    needs_granule = 1;
    is_anomalous = (fun s -> s = "x=1 y=1");
    build =
      (fun h ->
        let xo = ref None and yo = ref None in
        let main () =
          let x = Stm.alloc_public ~cls:"X" 1 in
          let y = Stm.alloc_public ~cls:"Y" 1 in
          init_int x 0 0;
          init_int y 0 0;
          xo := Some x;
          yo := Some y;
          race
            (fun () ->
              h.atomic (fun () -> if geti y 0 = 0 then seti x 0 1))
            (fun () ->
              h.atomic (fun () -> if geti x 0 = 0 then seti y 0 1))
        in
        let observe () =
          "x=" ^ string_of_int (raw (Option.get !xo) 0)
          ^ " y=" ^ string_of_int (raw (Option.get !yo) 0)
        in
        { Explorer.main; observe });
  }

(* Two independent writers, two read-only observers. Under parallel
   snapshot isolation the observers may see the writes in opposite
   orders (the "long fork"); the SI oracle deliberately admits that
   shape. A single global commit clock totally orders the two writes,
   so no backend in this repo can actually exhibit it - an all-"no"
   row documenting that the mvcc backend is stronger than PSI. *)
let long_fork =
  {
    name = "long-fork";
    figure = "si";
    group = "TXN-TXN";
    anomaly = "observers see x and y committed in opposite orders";
    needs_granule = 1;
    is_anomalous =
      (fun s ->
        try field s "ax" = 1 && field s "ay" = 0 && field s "by" = 1 && field s "bx" = 0
        with No_field -> false);
    build =
      (fun h ->
        let ax = ref 0 and ay = ref 0 and bx = ref 0 and by = ref 0 in
        let main () =
          let x = Stm.alloc_public ~cls:"X" 1 in
          let y = Stm.alloc_public ~cls:"Y" 1 in
          init_int x 0 0;
          init_int y 0 0;
          race4
            (fun () -> h.atomic (fun () -> seti x 0 1))
            (fun () -> h.atomic (fun () -> seti y 0 1))
            (fun () ->
              h.atomic (fun () ->
                  ax := geti x 0;
                  ay := geti y 0))
            (fun () ->
              h.atomic (fun () ->
                  by := geti y 0;
                  bx := geti x 0))
        in
        let observe () =
          "ax=" ^ string_of_int !ax ^ " ay=" ^ string_of_int !ay ^ " by="
          ^ string_of_int !by ^ " bx=" ^ string_of_int !bx
        in
        { Explorer.main; observe });
  }

(* A read-only transaction observing a two-location invariant while a
   writer updates both sides transactionally. Every backend must keep
   the pair consistent; under mvcc the reader additionally commits
   abort-free from its snapshot (asserted by the read-heavy stress
   scenario, not here). *)
let read_only_snapshot =
  {
    name = "ro-snapshot";
    figure = "si";
    group = "TXN-TR";
    anomaly = "read-only transaction observed a torn (x, y) pair";
    needs_granule = 1;
    is_anomalous = verdict2 "rx" "ry" (fun a b -> a <> b);
    build =
      (fun h ->
        let rx = ref 0 and ry = ref 0 in
        let main () =
          let x = Stm.alloc_public ~cls:"X" 1 in
          let y = Stm.alloc_public ~cls:"Y" 1 in
          init_int x 0 0;
          init_int y 0 0;
          race
            (fun () ->
              h.atomic (fun () ->
                  seti x 0 (geti x 0 + 1);
                  seti y 0 (geti y 0 + 1)))
            (fun () ->
              h.atomic (fun () ->
                  rx := geti x 0;
                  ry := geti y 0))
        in
        let observe () = "rx=" ^ string_of_int !rx ^ " ry=" ^ string_of_int !ry in
        { Explorer.main; observe });
  }

let fig6_rows =
  [
    non_repeatable_read;
    granular_inconsistent_read;
    intermediate_lost_update;
    speculative_lost_update;
    granular_lost_update;
    buffered_writes;
    intermediate_dirty_read;
    speculative_dirty_read;
    overlapped_writes;
  ]

let extras = [ write_read_nr; txn_dirty_read ]
let si_rows = [ write_skew; long_fork; read_only_snapshot ]
let all = fig6_rows @ [ privatization ] @ extras @ si_rows
