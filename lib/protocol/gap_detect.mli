(** Loss detection for a single multicast source.

    "A receiver detects a message loss by observing a gap in the
    sequence number space. In addition, session messages are used to
    help a receiver detect the loss of the last message in a burst."
    (Section 2.1.)

    The detector tracks which sequence numbers have been received and
    reports each missing sequence number exactly once, at the moment it
    becomes detectable (a higher sequence number arrives, or a session
    message advertises a higher maximum).

    Internally the state is a contiguous-delivery watermark plus a
    sliding bitset window over the out-of-order span, with maintained
    counters: [note_data], [received], [received_count] and
    [missing_count] are O(1) amortized and allocation-free, and the
    per-source footprint is O(reorder window) rather than O(session
    length). The original set-based implementation lives on in the
    test suite as the reference model for the qcheck equivalence
    suites. *)

type t

val create : unit -> t

val note_data : t -> int -> [ `Fresh of int list | `Duplicate ]
(** Record receipt of sequence number [seq]. [`Fresh gaps] lists the
    sequence numbers newly detected as missing (strictly below [seq],
    never reported before). @raise Invalid_argument on negative seq. *)

val note_session : t -> max_seq:int -> int list
(** A session message advertising the source's highest sequence number;
    returns newly detected losses (including [max_seq] itself if not
    received). *)

val note_repaired : t -> int -> unit
(** Mark a previously missing sequence number as received (repair
    arrived). Harmless if it was never missing. *)

val received : t -> int -> bool

val missing : t -> int list
(** Detected-but-not-yet-repaired sequence numbers, ascending. *)

val missing_count : t -> int

val highest_seen : t -> int option
(** Highest sequence number known to exist (via data or session). *)

val received_count : t -> int

val digest : t -> int * int list
(** [(horizon, missing)]: the highest sequence number known to exist
    and the detected losses — a compact summary of what this receiver
    has (it has every seq <= horizon except those listed). Horizon is
    -1 when nothing was seen. *)
