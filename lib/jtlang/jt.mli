(** Front end for Jt, the Java-like surface language with [atomic] and
    [synchronized] blocks.

    Jt stands in for the paper's Java: classes with (static / final /
    volatile) fields and methods, single inheritance, arrays, threads
    ([class W extends Thread] with a [run] method, [spawn(obj)] /
    [join(tid)]), [atomic { ... }] transactions and
    [synchronized (obj) { ... }] critical sections. See the grammar
    comment in [parser.ml] and the example programs under [examples/] and
    [lib/workloads/]. *)

exception Error of string * int
(** Compilation error with a message and a 1-based source line. *)

val compile : ?name:string -> string -> Stm_ir.Ir.program
(** Parse and lower a Jt source string. *)
