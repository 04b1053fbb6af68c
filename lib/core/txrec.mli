(** Transaction-record word encoding (paper Figure 7).

    Each object carries one pointer-sized transaction record with four
    states encoded in the three least-significant bits:

    {v
    x..x011   Shared               upper bits: version number
    x..xx00   Exclusive            upper bits: owner (transaction id)
    x..x010   Exclusive anonymous  upper bits: version number
    1..1111   Private              all ones
    v}

    The encoding is chosen so that the paper's barrier instruction
    sequences work unchanged:
    - a non-transactional read only tests bit 1 ([test ecx, 2]): the bit is
      set in Shared, Exclusive-anonymous and Private, and clear in
      Exclusive — one test detects conflicts with transactional owners;
    - a non-transactional write acquires Exclusive-anonymous ownership by
      atomically clearing bit 0 (IA32 [lock btr]): Shared[(v)] becomes
      Exclusive-anonymous[(v)], while both exclusive states already have
      bit 0 clear and therefore fail the acquire;
    - releasing adds 9 ([= 8 + 1]): Exclusive-anonymous[(v)] becomes
      Shared[(v+1)] — version increment and state change in one add. *)

type state =
  | Shared of int  (** version *)
  | Exclusive of int  (** owner transaction id *)
  | Exclusive_anon of int  (** version *)
  | Private

val shared : int -> int
(** [shared v] encodes Shared with version [v]. *)

val exclusive : int -> int
(** [exclusive owner] encodes Exclusive for transaction [owner >= 1]. *)

val exclusive_anon : int -> int
val private_word : int

val decode : int -> state

(** The state of a word without its payload: what {!decode} returns,
    minus the allocation of the [state] block, for the per-access paths.
    Read the payload with {!version} or {!owner}. *)
type tag = Tag_shared | Tag_exclusive | Tag_exclusive_anon | Tag_private

val tag : int -> tag

val version : int -> int
(** Version field of a Shared or Exclusive-anonymous word. *)

val owner : int -> int
(** Owner field of an Exclusive word. *)

val is_shared : int -> bool
val is_exclusive : int -> bool
val is_exclusive_anon : int -> bool
val is_private : int -> bool

val readable_bit : int -> bool
(** The read barrier's single-bit test ([w land 2 <> 0]): true when the
    word is Shared, Exclusive-anonymous or Private — i.e. no transactional
    owner holds it exclusively. *)

val btr_acquirable : int -> bool
(** True when a non-transactional write's bit-test-and-reset would succeed
    (bit 0 set): the Shared and Private states. The caller must handle
    Private separately (the paper's write barrier checks [-1] first). *)

val release_delta : int
(** The constant 9 added to an Exclusive-anonymous word to release it:
    restores bit 0 (Shared) and increments the version. *)
