(** Intraprocedural static escape analysis (paper Section 6).

    A forward must-be-local dataflow over each method: registers holding
    objects allocated in the method that have not escaped (through a heap
    store, call, builtin, return, or spawn) need no isolation barrier at
    their access sites. Aliases share the allocation identity, so an
    escape through any copy invalidates all of them. Accesses proven
    local are marked [Bar_removed "escape"]. *)

val run : Stm_ir.Ir.program -> int
(** Analyze and rewrite every method; returns the number of barriers
    removed. *)
