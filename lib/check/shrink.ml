(* Greedy counterexample minimization.

   Candidates are tried in a fixed order - drop a whole thread, drop a
   step, drop an op inside an atomic block, demote an atomic singleton
   to a plain access (Mixed-style programs only produce those anyway),
   simplify a write expression, lower a cell/slot index - and the first
   candidate the [keep] predicate accepts restarts the scan. Every
   accepted candidate strictly decreases a well-founded measure
   (op count, then expression complexity, then index sum), so the loop
   terminates at a fixpoint: a program where no single simplification
   still fails. *)

let drop_nth xs n = List.filteri (fun i _ -> i <> n) xs

let map_nth xs n f = List.mapi (fun i x -> if i = n then f x else x) xs

let with_threads p threads = { p with Prog.threads }

(* All one-step simplifications, lazily, cheapest-win first.
   [demote_atomic] enables the atomic-singleton -> plain-access pass;
   callers shrinking programs from a grammar without plain accesses
   (txn-only, handoff) turn it off so the minimized counterexample
   stays in the same program class - a plain access racing a
   transaction is anomalous under weak atomicity by design, and letting
   the shrinker introduce one could turn a genuine isolation bug into a
   benign expected-weakness witness. *)
let candidates ?(demote_atomic = true) (p : Prog.t) : Prog.t Seq.t =
  let nthreads = List.length p.Prog.threads in
  let seqs = ref [] in
  let add s = seqs := s :: !seqs in
  (* 6. index lowering: replace cell/slot index i by i-1 *)
  add
    (Seq.concat_map
       (fun (t, steps) ->
         Seq.concat_map
           (fun (si, step) ->
             let lower_op (op : Prog.op) =
               match op with
               | Prog.Read c when c > 0 -> Some (Prog.Read (c - 1))
               | Prog.Write (c, e) when c > 0 -> Some (Prog.Write (c - 1, e))
               | Prog.Box_read s when s > 0 -> Some (Prog.Box_read (s - 1))
               | Prog.Box_write s when s > 0 -> Some (Prog.Box_write (s - 1))
               | _ -> None
             in
             let with_step step' =
               with_threads p
                 (map_nth p.Prog.threads t (fun ss -> map_nth ss si (fun _ -> step')))
             in
             match step with
             | Prog.Atomic ops ->
                 Seq.filter_map
                   (fun (k, op) ->
                     Option.map
                       (fun op' -> with_step (Prog.Atomic (map_nth ops k (fun _ -> op'))))
                       (lower_op op))
                   (List.to_seq (List.mapi (fun k op -> (k, op)) ops))
             | Prog.Plain op ->
                 Seq.filter_map
                   (fun op' -> Some (with_step (Prog.Plain op')))
                   (Option.to_seq (lower_op op))
             | Prog.Publish s when s > 0 ->
                 Seq.return (with_step (Prog.Publish (s - 1)))
             | Prog.Privatize s when s > 0 ->
                 Seq.return (with_step (Prog.Privatize (s - 1)))
             | _ -> Seq.empty)
           (List.to_seq (List.mapi (fun si s -> (si, s)) steps)))
       (List.to_seq (List.mapi (fun t s -> (t, s)) p.Prog.threads)));
  (* 5. expression simplification: Tok_acc -> Tok *)
  add
    (Seq.concat_map
       (fun (t, steps) ->
         Seq.concat_map
           (fun (si, step) ->
             let simplify_ops ops rebuild =
               Seq.filter_map
                 (fun (k, op) ->
                   match (op : Prog.op) with
                   | Prog.Write (c, Prog.Tok_acc) ->
                       Some
                         (with_threads p
                            (map_nth p.Prog.threads t (fun ss ->
                                 map_nth ss si (fun _ ->
                                     rebuild
                                       (map_nth ops k (fun _ ->
                                            Prog.Write (c, Prog.Tok)))))))
                   | _ -> None)
                 (List.to_seq (List.mapi (fun k op -> (k, op)) ops))
             in
             match step with
             | Prog.Atomic ops -> simplify_ops ops (fun ops -> Prog.Atomic ops)
             | Prog.Plain op ->
                 simplify_ops [ op ] (function
                   | [ op ] -> Prog.Plain op
                   | _ -> assert false)
             | _ -> Seq.empty)
           (List.to_seq (List.mapi (fun si s -> (si, s)) steps)))
       (List.to_seq (List.mapi (fun t s -> (t, s)) p.Prog.threads)));
  (* 4. atomic singleton -> plain access *)
  add
    (if not demote_atomic then Seq.empty
     else
       Seq.concat_map
       (fun (t, steps) ->
         Seq.filter_map
           (fun (si, step) ->
             match (step : Prog.step) with
             | Prog.Atomic [ op ] ->
                 Some
                   (with_threads p
                      (map_nth p.Prog.threads t (fun ss ->
                           map_nth ss si (fun _ -> Prog.Plain op))))
             | _ -> None)
           (List.to_seq (List.mapi (fun si s -> (si, s)) steps)))
       (List.to_seq (List.mapi (fun t s -> (t, s)) p.Prog.threads)));
  (* 3. drop one op from an atomic block (keeping it non-empty) *)
  add
    (Seq.concat_map
       (fun (t, steps) ->
         Seq.concat_map
           (fun (si, step) ->
             match (step : Prog.step) with
             | Prog.Atomic ops when List.length ops > 1 ->
                 Seq.map
                   (fun k ->
                     with_threads p
                       (map_nth p.Prog.threads t (fun ss ->
                            map_nth ss si (fun _ -> Prog.Atomic (drop_nth ops k)))))
                   (Seq.init (List.length ops) Fun.id)
             | _ -> Seq.empty)
           (List.to_seq (List.mapi (fun si s -> (si, s)) steps)))
       (List.to_seq (List.mapi (fun t s -> (t, s)) p.Prog.threads)));
  (* 2. drop one step *)
  add
    (Seq.concat_map
       (fun (t, steps) ->
         if List.length steps <= 1 then Seq.empty
         else
           Seq.map
             (fun si -> with_threads p (map_nth p.Prog.threads t (fun ss -> drop_nth ss si)))
             (Seq.init (List.length steps) Fun.id))
       (List.to_seq (List.mapi (fun t s -> (t, s)) p.Prog.threads)));
  (* 1. drop a whole thread *)
  add
    (if nthreads <= 1 then Seq.empty
     else Seq.map (fun t -> with_threads p (drop_nth p.Prog.threads t)) (Seq.init nthreads Fun.id));
  (* [!seqs] holds the passes most-aggressive first (the last [add]
     pushed the thread-dropping pass). *)
  List.fold_right Seq.append !seqs Seq.empty

(* Bound on the total number of [keep] evaluations. *)
let max_attempts = 10_000

let minimize ?(demote_atomic = true) ~keep (p : Prog.t) =
  let attempts = ref 0 in
  let rec go p =
    let next =
      Seq.find_map
        (fun cand ->
          if !attempts >= max_attempts then None
          else begin
            incr attempts;
            if keep cand then Some cand else None
          end)
        (candidates ~demote_atomic p)
    in
    match next with Some p' -> go p' | None -> p
  in
  go p
