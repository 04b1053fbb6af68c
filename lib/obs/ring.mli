(** Bounded ring buffer: O(1) push, keeps the most recent [capacity]
    elements and counts overwritten ones. *)

type 'a t

val create : capacity:int -> 'a t
val push : 'a t -> 'a -> unit

val length : 'a t -> int

val dropped : 'a t -> int
(** Elements overwritten because the buffer was full. *)

val to_list : 'a t -> 'a list
(** Oldest first. *)

val clear : 'a t -> unit
