open Effect
open Effect.Deep

type t = (unit, unit) continuation

type _ Effect.t += Park : unit Effect.t

(* Capture a continuation of a fiber that only parks, then run it to its
   end: what is left is a continuation whose stack is gone. *)
let none : t =
  let slot : t option ref = ref None in
  match_with perform Park
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Park -> Some (fun (k : (a, unit) continuation) -> slot := Some k)
          | _ -> None);
    };
  let k = Option.get !slot in
  continue k ();
  k
