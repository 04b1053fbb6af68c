(* Long scheduler runs that only a flat stack survives. The dune rule
   runs this under a stack limit of 20k words. [Sched] hands the
   processor from a parked thread to the next one inside its effect
   handler, and starts a new thread there; both must be tail calls, or
   each switch leaves a frame behind and the runs below overflow. *)

open Stm_runtime

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("sched_stack: " ^ s);
      exit 1)
    fmt

(* Without an effective limit every check below passes vacuously. *)
let check_limit () =
  let rec deep n = if n = 0 then 0 else 1 + deep (n - 1) in
  match Sys.opaque_identity deep 100_000 with
  | _ -> fail "a 100k-deep recursion fits the stack: is OCAMLRUNPARAM l set?"
  | exception Stack_overflow -> ()

let run what policy main =
  match Sched.run ~max_steps:max_int ~policy main with
  | { Sched.status = Sched.Completed; exns = []; _ } -> ()
  | _ -> fail "%s: run did not complete cleanly" what

(* Two threads that tick and yield until [n] switches were seen: a
   yield that returns in another thread than the last one to run. *)
let switching_yields what policy n =
  let switches = ref 0 and last = ref (-1) in
  let body () =
    while !switches < n do
      Sched.tick 1;
      Sched.yield ();
      let me = Sched.self () in
      if me <> !last then begin
        incr switches;
        last := me
      end
    done
  in
  run what policy (fun () ->
      let w = Sched.spawn body in
      body ();
      Sched.join w);
  if !switches < n then fail "%s: %d switches, wanted %d" what !switches n

(* [n] threads started and joined one after the other: each join
   suspends main, and the thread's return hands the processor back. *)
let spawn_joins what policy n =
  let joined = ref 0 in
  run what policy (fun () ->
      for _ = 1 to n do
        Sched.join (Sched.spawn (fun () -> Sched.tick 1));
        incr joined
      done);
  if !joined <> n then fail "%s: %d joins, wanted %d" what !joined n

(* The other ready thread, when there is one. *)
let alternate current ready =
  match ready with [ a; b ] -> if a = current then b else a | t :: _ -> t | [] -> current

let () =
  check_limit ();
  switching_yields "Min_clock yields" Sched.Min_clock 1_000_000;
  switching_yields "Random yields" (Sched.Random 1) 1_000_000;
  switching_yields "Controlled yields" (Sched.Controlled alternate) 1_000_000;
  spawn_joins "Min_clock spawn+join" Sched.Min_clock 100_000;
  (* [Random]'s pick scans every thread ever spawned, so keep it short *)
  spawn_joins "Random spawn+join" (Sched.Random 1) 5_000
