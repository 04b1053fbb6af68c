(* Seeded random program generator. All randomness flows through
   Det_rng, so (profile, knobs, seed) determines the program exactly. *)

open Stm_runtime

type profile = Txn_only | Mixed | Handoff

let profile_to_string = function
  | Txn_only -> "txn-only"
  | Mixed -> "mixed"
  | Handoff -> "handoff"

type gcfg = {
  profile : profile;
  min_threads : int;
  max_threads : int;
  max_steps : int;
  max_ops : int;
  ncells : int;
  nslots : int;
}

let default profile =
  match profile with
  | Txn_only ->
      {
        profile;
        min_threads = 2;
        max_threads = 3;
        max_steps = 4;
        max_ops = 4;
        ncells = 3;
        nslots = 0;
      }
  | Mixed ->
      {
        profile;
        min_threads = 2;
        max_threads = 3;
        max_steps = 5;
        max_ops = 3;
        ncells = 3;
        nslots = 0;
      }
  | Handoff ->
      {
        profile;
        min_threads = 2;
        max_threads = 3;
        max_steps = 4;
        max_ops = 3;
        ncells = 2;
        nslots = 2;
      }

let gen_expr rng = if Det_rng.bool rng then Prog.Tok else Prog.Tok_acc

let gen_cell_op rng g =
  match Det_rng.weighted rng [ (2, `R); (3, `W) ] with
  | `R -> Prog.Read (Det_rng.int rng g.ncells)
  | `W -> Prog.Write (Det_rng.int rng g.ncells, gen_expr rng)

let gen_boxed_op rng g =
  if g.nslots = 0 then gen_cell_op rng g
  else
    match Det_rng.weighted rng [ (2, `R); (3, `W); (2, `BR); (2, `BW) ] with
    | `R -> Prog.Read (Det_rng.int rng g.ncells)
    | `W -> Prog.Write (Det_rng.int rng g.ncells, gen_expr rng)
    | `BR -> Prog.Box_read (Det_rng.int rng g.nslots)
    | `BW -> Prog.Box_write (Det_rng.int rng g.nslots)

let gen_atomic rng g gen_op =
  let nops = Det_rng.range rng 1 g.max_ops in
  Prog.Atomic (List.init nops (fun _ -> gen_op rng g))

let gen_step rng g =
  match g.profile with
  | Txn_only -> gen_atomic rng g gen_cell_op
  | Mixed -> (
      match Det_rng.weighted rng [ (3, `A); (2, `P) ] with
      | `A -> gen_atomic rng g gen_cell_op
      | `P -> Prog.Plain (gen_cell_op rng g))
  | Handoff -> (
      (* No plain cell accesses: all non-transactional traffic goes
         through a publish/privatize handoff, the discipline quiescence
         is supposed to make safe without strong barriers. *)
      match Det_rng.weighted rng [ (4, `A); (2, `Pub); (2, `Priv) ] with
      | `A -> gen_atomic rng g gen_boxed_op
      | `Pub -> Prog.Publish (Det_rng.int rng g.nslots)
      | `Priv -> Prog.Privatize (Det_rng.int rng g.nslots))

let generate (g : gcfg) ~seed =
  assert (g.max_steps <= Prog.max_steps && g.max_ops <= Prog.max_ops);
  assert (g.profile = Txn_only || g.profile = Mixed || g.nslots > 0);
  let rng = Det_rng.create seed in
  let nthreads = Det_rng.range rng g.min_threads g.max_threads in
  let threads =
    List.init nthreads (fun _ ->
        let nsteps = Det_rng.range rng 1 g.max_steps in
        List.init nsteps (fun _ -> gen_step rng g))
  in
  { Prog.ncells = g.ncells; nslots = g.nslots; threads }
