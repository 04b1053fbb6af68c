(** Serializability oracle over committed-access histories.

    A history is built from the runtime's trace stream (see
    {!Exec}): one node per committed transaction and per
    non-transactional unit access, stamped at its linearization point.
    Occurrence-unique write tokens (see {!Prog}) make the reads-from
    relation exact, so conflict serializability is decidable from the
    history alone.

    The oracle certifies at two isolation levels: {!check} demands
    conflict serializability; {!check_si} certifies the weaker
    snapshot-isolation contract, rejecting dirty reads, fractured reads,
    lost updates and final-state mismatches while admitting write skew
    and long fork. {!certify} classifies a history into
    serializable / SI-only / anomalous. *)

type box_id = Slot_box of int | New_box of { thread : int; step : int }

type loc = Cell of int | Root of int | Box_field of box_id

type value = Vi of int | Vr of box_id

type part = Body | Pub_init | Priv_write | Priv_read

type tag = { thread : int; step : int; part : part }
(** Which static program step (and which phase of a publish/privatize
    step) a node corresponds to. *)

type node = {
  id : int;  (** dense index, ascending with [stamp] *)
  tid : int;  (** logical thread index *)
  txn : bool;
  stamp : int;  (** serialization stamp (trace-arrival order) *)
  tag : tag option;
  reads : (loc * value) list;  (** program order, duplicates kept *)
  writes : (loc * value) list;  (** last write per location *)
}

type history = {
  init : (loc * value) list;
  nodes : node list;  (** ascending stamp *)
  final : (loc * value) list;
}

type edge_kind = Wr | Ww | Rw | Po

type edge = { src : int; dst : int; kind : edge_kind; eloc : loc option }

type anomaly =
  | Cycle of edge list  (** conflict-graph cycle (the path of edges) *)
  | Dirty_read of { node : int; rloc : loc; seen : value }
      (** a committed node observed a value no committed write produced *)
  | Final_mismatch of { floc : loc; expected : value option; actual : value option }
      (** final heap state disagrees with the last committed version *)
  | Divergence of { dloc : loc; replayed : value option; actual : value option }
      (** sequential replay of the committed schedule disagrees with the
          observed final state *)
  | Control_divergence of { thread : int; step : int; detail : string }
  | Private_clobbered of { thread : int; step : int; expected : int; seen : value }
      (** a non-transactional store to a privatized object was overwritten
          (the paper's figure-1 privatization race) *)
  | Exec_failure of string
  | Lost_update of { node : int; uloc : loc; read_idx : int; write_idx : int }
      (** the node read version [read_idx] of the location but installed
          version [write_idx] <> [read_idx + 1]: a concurrent committed
          write was silently overwritten (forbidden even under snapshot
          isolation - first-committer-wins) *)
  | Fractured_read of { node : int; floc : loc; first : value; second : value }
      (** one transaction observed two different committed versions of
          the same location: no single snapshot contains both *)

type verdict = Serializable | Inconclusive of string | Anomalous of anomaly

val split_accs : (loc * value * bool) list -> (loc * value) list * (loc * value) list
(** [split_accs accs_rev] turns a node's accesses, most recent first
    ([true] marks a write), into its [reads] and [writes]: reads in
    program order with duplicates kept, except reads of a location the
    node has already written (they observe its own pending store, not
    another node's version); writes hold the last value per location,
    in the program order of those last writes. The history collectors
    all build nodes with it. *)

val certified : history -> bool
(** The stamp-order certificate: replaying the nodes in stamp order, every
    read returns the value the replay holds and the final state agrees
    with the replay (stamps strictly ascending, written values new to
    their location, one write per location per node). When it holds,
    every conflict edge points forward in stamp order, so
    {!check_graph} and {!check_si_graph} both return [None]; both try it
    before building any graph. Its scans are quadratic in the history's
    size, so a history with more than 128 init, final, read and write
    entries in all is not certified. [false] decides nothing. *)

val check_graph : history -> anomaly option
(** Conflict-graph acyclicity plus final-state agreement. [None] means
    the history is conflict serializable. *)

val differential : Prog.t -> history -> anomaly option
(** Replay the committed nodes in stamp order on a sequential reference
    interpreter of [prog] and diff the final heaps. *)

val check : Prog.t -> history -> verdict
(** Graph check first, then differential replay. *)

val check_si_graph : history -> anomaly option
(** Snapshot-isolation consistency: no dirty reads, no fractured reads,
    no lost updates (every read-modify-write installs the version
    directly after the one it read), final state = last committed
    version per location. Deliberately no cycle check and no sequential
    replay: write skew and long fork pass. *)

val check_si : history -> verdict
(** [check_si_graph] as a verdict. *)

val check_at : Stm_core.Config.isolation -> Prog.t -> history -> verdict
(** Certify at the given isolation level: [Serializable] is {!check},
    [Snapshot] is {!check_si}. *)

(** Two-level classification of one history. *)
type certification =
  | Cert_serializable
  | Cert_snapshot_only of anomaly
      (** SI-consistent but not serializable; carries the
          serializability violation (e.g. the write-skew rw-cycle) *)
  | Cert_anomalous of anomaly  (** violates snapshot isolation too *)

val certify : Prog.t -> history -> certification
val certification_to_string : certification -> string

val anomaly_kind : anomaly -> string
(** Stable kind string of an anomaly (matches the ["anomaly"] field of
    an anomaly's JSON form). The implementation is an exhaustive match, so
    extending [anomaly] without classifying the new constructor is a
    compile error. *)

val all_anomaly_kinds : string list
(** Every string {!anomaly_kind} can produce. *)

val si_forbids : anomaly -> bool
(** Whether the snapshot-isolation contract forbids this anomaly kind
    (dirty reads, lost updates, fractured reads, final mismatches,
    clobbered privatized objects, execution failures) or admits it
    (cycles and replay divergences - write skew and long fork shapes). *)

val is_anomalous : verdict -> bool
val verdict_equal : verdict -> verdict -> bool

(** {1 Printing and serialization} *)

val pp_loc : Format.formatter -> loc -> unit
val pp_value : Format.formatter -> value -> unit
val pp_history : Format.formatter -> history -> unit
val pp_anomaly : Format.formatter -> anomaly -> unit
val pp_verdict : Format.formatter -> verdict -> unit
val verdict_to_json : verdict -> Stm_obs.Json.t
