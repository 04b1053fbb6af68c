(* Linear probing over parallel arrays. [stamps.(i) = gen] marks slot
   [i] live; every other stamp is an empty slot, so bumping [gen]
   empties the table. Stamps are never 0 while live ([gen] starts at 1
   and only grows), and [remove] writes 0 into the slot it frees.
   [vals] is allocated by the first [replace]: a set's values are all
   [()], so a table filled only by [add] keeps [vals = [||]], and a
   lookup that finds its key answers [absent], which is [()]. *)
type 'a t = {
  absent : 'a;
  mutable keys : int array;
  mutable vals : 'a array;
  mutable stamps : int array;
  mutable gen : int;
  mutable size : int;
  mutable shift : int;  (* 63 - log2 capacity: home = top bits of the hash *)
}

let create absent =
  { absent; keys = [||]; vals = [||]; stamps = [||]; gen = 1; size = 0; shift = 63 }

let length t = t.size

(* The first insert allocates this many slots. *)
let initial_bits = 3

(* 2^63 / phi, odd. The top bits of [k * golden] depend on every bit of
   [k]; the low bits would depend only on the key's low bits, and every
   key [oid lsl 26 lor base] with the same base would share one home. *)
let golden = 0x4F1BBCDCBFA53E0B

let[@inline] home t k = (k * golden) lsr t.shift

(* The slot holding [k], or the empty slot that ends its cluster. The
   table is at most half full, so an empty slot always exists. Inlined
   into each operation: a call per probe would cost a read-set insert
   about as much as the probe itself. *)
let[@inline] probe t k =
  let keys = t.keys and stamps = t.stamps and gen = t.gen in
  let mask = Array.length keys - 1 in
  let i = ref (home t k) in
  while stamps.(!i) = gen && keys.(!i) <> k do
    i := (!i + 1) land mask
  done;
  !i

let grow t =
  let okeys = t.keys and ovals = t.vals and ostamps = t.stamps and ogen = t.gen in
  let bits = if Array.length okeys = 0 then initial_bits else 64 - t.shift in
  let cap = 1 lsl bits in
  let has_vals = Array.length ovals > 0 in
  t.keys <- Array.make cap 0;
  if has_vals then t.vals <- Array.make cap t.absent;
  t.stamps <- Array.make cap 0;
  t.gen <- 1;
  t.shift <- 63 - bits;
  for j = 0 to Array.length okeys - 1 do
    if ostamps.(j) = ogen then begin
      let i = probe t okeys.(j) in
      t.keys.(i) <- okeys.(j);
      if has_vals then t.vals.(i) <- ovals.(j);
      t.stamps.(i) <- 1
    end
  done

let find t k =
  if t.size = 0 then t.absent
  else
    let i = probe t k in
    if t.stamps.(i) = t.gen && Array.length t.vals > 0 then t.vals.(i)
    else t.absent

let mem t k = t.size > 0 && t.stamps.(probe t k) = t.gen

(* The slot for [k] after making room for one more key. *)
let[@inline] slot_for_insert t k =
  if 2 * (t.size + 1) > Array.length t.keys then grow t;
  probe t k

let[@inline] take t i k =
  t.keys.(i) <- k;
  t.stamps.(i) <- t.gen;
  t.size <- t.size + 1

(* An insert into a set stores a key and a stamp: no value array, and no
   write barrier. *)
let add (t : unit t) k =
  let i = slot_for_insert t k in
  t.stamps.(i) <> t.gen
  && begin
       take t i k;
       true
     end

let replace t k v =
  let i = slot_for_insert t k in
  if t.stamps.(i) <> t.gen then take t i k;
  if Array.length t.vals = 0 then t.vals <- Array.make (Array.length t.keys) t.absent;
  t.vals.(i) <- v

(* Backward-shift deletion. [hole] is free; each later entry of the
   cluster whose home does not lie cyclically in (hole, j] would become
   unreachable across the hole, so it moves into it and leaves a new
   hole behind. The cluster's end is the first empty slot. *)
let rec shift_back t mask hole j =
  let j = (j + 1) land mask in
  if t.stamps.(j) <> t.gen then begin
    t.stamps.(hole) <- 0;
    if Array.length t.vals > 0 then t.vals.(hole) <- t.absent
  end
  else begin
    let h = home t t.keys.(j) in
    let movable = if hole <= j then h <= hole || h > j else h <= hole && h > j in
    if movable then begin
      t.keys.(hole) <- t.keys.(j);
      if Array.length t.vals > 0 then t.vals.(hole) <- t.vals.(j);
      shift_back t mask j j
    end
    else shift_back t mask hole j
  end

let remove t k =
  if t.size > 0 then begin
    let i = probe t k in
    if t.stamps.(i) = t.gen then begin
      t.size <- t.size - 1;
      shift_back t (Array.length t.keys - 1) i i
    end
  end

let clear t =
  t.gen <- t.gen + 1;
  t.size <- 0

let fold f t acc =
  let acc = ref acc in
  for i = 0 to Array.length t.keys - 1 do
    if t.stamps.(i) = t.gen then
      acc := f t.keys.(i) (if Array.length t.vals > 0 then t.vals.(i) else t.absent) !acc
  done;
  !acc
