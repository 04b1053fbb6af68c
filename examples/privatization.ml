(* The paper's Figure 1: privatizing an item out of a shared list and
   accessing it unprotected.

   Run with:  dune exec examples/privatization.exe

   Thread 1 atomically removes the item and then reads its two fields
   with plain loads; Thread 2 atomically increments both fields if the
   item is still in the list. In every sequentially-consistent execution
   r1 = r2 - either both increments happened before the privatization or
   neither did. The systematic explorer shows which STM implementations
   break this, and that both strong atomicity and quiescence repair it. *)

open Stm_core
open Stm_litmus

let () =
  let program = Programs.privatization in
  Fmt.pr "Figure 1 privatization idiom: can Thread 1 observe r1 <> r2?@.@.";
  Fmt.pr "%-16s %-10s %-44s@." "mode" "anomaly" "outcomes (count)";
  List.iter
    (fun mode ->
      let cfg = Modes.config mode in
      let e =
        Explorer.explore ~cfg
          ~make:(fun () -> program.Programs.build (Modes.harness mode cfg))
          ()
      in
      let outcomes =
        String.concat ", "
          (List.map (fun (o, n) -> Fmt.str "%s (x%d)" o n) e.Explorer.outcomes)
      in
      Fmt.pr "%-16s %-10b %-44s@." (Mode.name mode)
        (Explorer.observed e program.Programs.is_anomalous)
        outcomes)
    (Modes.all_fig6
    @ List.map
        (fun b -> Modes.Stm (Point.v b Point.Quiesce))
        [ Point.Eager Config.Incremental; Point.Lazy Config.Incremental ]);
  Fmt.pr
    "@.weak-eager breaks it with a speculative dirty read (the doomed@.\
     transaction's in-place increments); weak-lazy with a memory-ordering@.\
     violation (the committed transaction's pending write-back). Locks,@.\
     strong atomicity, and weak atomicity + quiescence all preserve r1 = r2,@.\
     exactly as Sections 2.5 and 3.4 describe.@."
