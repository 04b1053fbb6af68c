open Stm_runtime

(* One slot per simulated thread. Green threads switch only at yields, so
   a per-tid slot written at access dispatch and read inside the barrier
   attributes correctly even if the barrier's internal yields interleave
   other threads' accesses. *)
let slots : (int, int) Hashtbl.t = Hashtbl.create 64

let tid () = Int.max 0 Sched.reg.tid

let set site = Hashtbl.replace slots (tid ()) site

let current () =
  match Hashtbl.find_opt slots (tid ()) with Some s -> s | None -> -1

let reset () = Hashtbl.reset slots
