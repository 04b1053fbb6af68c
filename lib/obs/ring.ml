(* Bounded ring buffer used as the trace sink's backing store: pushes are
   O(1) with no allocation beyond the stored element, and a run that emits
   more events than the capacity keeps the most recent ones (counting what
   it dropped) instead of growing without bound. *)

type 'a t = {
  data : 'a option array;
  cap : int;
  mutable start : int;  (* index of the oldest element *)
  mutable len : int;
  mutable dropped : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be >= 1";
  { data = Array.make capacity None; cap = capacity; start = 0; len = 0; dropped = 0 }

let push t x =
  if t.len < t.cap then begin
    t.data.((t.start + t.len) mod t.cap) <- Some x;
    t.len <- t.len + 1
  end
  else begin
    (* overwrite the oldest *)
    t.data.(t.start) <- Some x;
    t.start <- (t.start + 1) mod t.cap;
    t.dropped <- t.dropped + 1
  end

let length t = t.len
let dropped t = t.dropped

let iter f t =
  for i = 0 to t.len - 1 do
    match t.data.((t.start + i) mod t.cap) with
    | Some x -> f x
    | None -> assert false
  done

let to_list t =
  let acc = ref [] in
  iter (fun x -> acc := x :: !acc) t;
  List.rev !acc

let clear t =
  Array.fill t.data 0 t.cap None;
  t.start <- 0;
  t.len <- 0;
  t.dropped <- 0
