type t = Suicide | Wound_wait | Exp_backoff | Karma | Timestamp

let all = [ Suicide; Wound_wait; Exp_backoff; Karma; Timestamp ]

let to_string = function
  | Suicide -> "suicide"
  | Wound_wait -> "wound-wait"
  | Exp_backoff -> "exp-backoff"
  | Karma -> "karma"
  | Timestamp -> "timestamp"

let of_string = function
  | "suicide" -> Some Suicide
  | "wound-wait" | "wound_wait" | "woundwait" -> Some Wound_wait
  | "exp-backoff" | "exp_backoff" | "expbackoff" -> Some Exp_backoff
  | "karma" -> Some Karma
  | "timestamp" | "greedy" -> Some Timestamp
  | _ -> None

(* Suicide's conflict decision reads only the asker's own retry budget
   and a (tid, attempt)-jittered delay — never the txid, the owner's
   identity, or any cross-transaction policy state — so neither the
   order in which txids are handed out nor the order in which conflicts
   reach the manager can change any decision. Every other policy
   compares ages, priorities, or banked work across transactions. *)
let order_sensitive = function
  | Suicide -> false
  | Wound_wait | Exp_backoff | Karma | Timestamp -> true

let pp ppf p = Fmt.string ppf (to_string p)
