(** Finite unions of disjoint half-open intervals, kept sorted and
    normalised (no empty members, no touching neighbours): the set of
    times at which something is present, such as a pair's contacts in
    [Trace.stats] or a duty-cycled radio's awake windows.

    The canonical form is a sorted array of non-touching members, so it
    is unique for a given set of instants: [mem] binary-searches in
    O(log n), [inter] is a linear merge in O(m + n), and [equal] is
    structural.  n below is {!cardinal}. *)

type t

val of_list : Interval.t list -> t
(** Normalises arbitrary (possibly overlapping, unsorted) intervals.
    O(k log k) for k input intervals. *)

val intervals : t -> Interval.t list
(** Sorted disjoint members.  O(n). *)

val inter : t -> t -> t
(** Instants in both sets.  Linear sweep, O(m + n). *)

val mem : t -> float -> bool
(** Whether an instant is covered.  Binary search, O(log n). *)

val total_length : t -> float
(** Sum of member lengths (Lebesgue measure of the set).  O(n). *)

val cardinal : t -> int
(** Number of disjoint intervals.  O(1). *)

val iter : (Interval.t -> unit) -> t -> unit
(** Iterate over members in ascending order.  O(n). *)

val equal : t -> t -> bool
(** Same instants (canonical form makes this structural).  O(n). *)

val pp : Format.formatter -> t -> unit
(** [{[lo,hi) [lo,hi) …}], members in ascending order.  O(n). *)
