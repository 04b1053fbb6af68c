(* The splitmix64 state lives unboxed in an 8-byte buffer: a
   [mutable state : int64] field would box a fresh Int64 on every draw.
   With [mix] and [next64] inlined, [next], [int] and [bool] allocate
   nothing. The buffer is only ever read back by this module, so native
   byte order is fine. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy t = Bytes.copy t

(* splitmix64 finalizer *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next64 t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix s

let next t = Int64.to_int (Int64.shift_right_logical (next64 t) 2)

let int t bound =
  assert (bound > 0);
  next t mod bound

let bool t = Int64.logand (next64 t) 1L = 1L

let float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (next64 t) 11) in
  bound *. (x /. 9007199254740992.0)

let split t = of_state (next64 t)

let range t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let weighted t choices =
  let total = List.fold_left (fun acc (w, _) -> acc + Int.max 0 w) 0 choices in
  assert (total > 0);
  let n = int t total in
  let rec go n = function
    | [] -> assert false
    | (w, x) :: rest -> if n < Int.max 0 w then x else go (n - Int.max 0 w) rest
  in
  go n choices
