type state =
  | Shared of int
  | Exclusive of int
  | Exclusive_anon of int
  | Private

let shared v = (v lsl 3) lor 0b011

let exclusive owner =
  assert (owner >= 1);
  owner lsl 3

let exclusive_anon v = (v lsl 3) lor 0b010
let private_word = -1

let is_private w = w = private_word
let is_shared w = (not (is_private w)) && w land 0b111 = 0b011
let is_exclusive w = w land 0b011 = 0b000
let is_exclusive_anon w = w land 0b111 = 0b010

let version w = w lsr 3
let owner w = w lsr 3

type tag = Tag_shared | Tag_exclusive | Tag_exclusive_anon | Tag_private

let tag w =
  if is_private w then Tag_private
  else if is_exclusive w then Tag_exclusive
  else if is_exclusive_anon w then Tag_exclusive_anon
  else Tag_shared

let decode w =
  match tag w with
  | Tag_private -> Private
  | Tag_exclusive -> Exclusive (owner w)
  | Tag_exclusive_anon -> Exclusive_anon (version w)
  | Tag_shared -> Shared (version w)

let readable_bit w = w land 2 <> 0
let btr_acquirable w = w land 1 <> 0
let release_delta = 9
