(** Discrete time sets (paper Section V, Definition 5.2).

    Each node's discrete time partition combines its adjacent partition
    (link appear/disappear boundaries) with a status partition: the
    times at which the node's informed/uninformed status can change.
    Status changes happen τ after a possible ET-law transmission of a
    neighbour, so the point sets are closed under "t at i propagates
    t+τ to every j adjacent to i at t", up to non-stop-journey depth
    N−1 — giving the paper's O(N³L) bound.  With τ = 0 (the paper's
    trace-driven regime) propagation only copies existing instants onto
    neighbouring nodes, so each adjacent-partition point creates at
    most one point per node: O(N²L) points total, as the paper
    observes. *)

type t

val compute : ?cap_per_node:int -> ?source:int -> Tveg.t -> deadline:float -> t
(** DTS of all nodes over [\[span.lo, deadline\]], the one τ-closure
    every planner and {!view} read: a breadth-first closure of the
    adjacent-partition points under "t at i propagates t+τ to every j
    adjacent to i at t".  Planners call it on the graph clipped to
    the deadline.  [cap_per_node] (default 4000) bounds the per-node
    point count under propagation, in that breadth-first order;
    hitting the cap logs a warning and yields a coarser (still valid,
    possibly suboptimal) schedule space.

    When [source] is given, each node's points are additionally pruned
    to those at or after its earliest journey arrival from the source
    — instants at which the node could not possibly hold the packet
    are useless to any schedule, so the pruning is lossless.  A node
    unreachable by the deadline keeps a single sentinel point,
    [span.lo].
    @raise Invalid_argument if the deadline exceeds the graph span or
    precedes its start. *)

val view : t -> deadline:float -> t
(** [view t ~deadline:T] serves a smaller deadline out of a closure
    computed on a graph clipped at [deadline t]: each node keeps its
    points strictly below [T] followed by [T] itself, or the
    [\[span.lo\]] sentinel when its {!arrival} is at or past [T].
    Uncapped, this equals [compute] on the graph clipped at [T] —
    ties of an arrival at exactly [T] included, since the clipped
    graph cannot complete that arrival's last hop.  When the cap bit,
    the breadth-first truncation over the larger closure may keep
    different points below [T] (test_core's "capped DTS view pinned
    (Scale N=100)" pins by how much).
    @raise Invalid_argument unless [span.lo < T <= deadline t]. *)

val deadline : t -> float

val arrival : t -> int -> float
(** Earliest packet arrival of the node from the source over the graph
    [compute] closed ([span.lo] for every node when it had no source;
    [infinity] when unreachable by its deadline).  A {!view} keeps the
    arrivals of the closure it was viewed from, so in a view the node
    is unreachable, holding only the sentinel, exactly when
    [arrival t i >= deadline t]. *)

val node_points : t -> int -> float array
(** Increasing candidate transmission/status times of a node.  Every
    point p satisfies [span.lo <= p <= deadline]. *)

val total_points : t -> int
val num_nodes : t -> int

val latest_at_or_before : t -> int -> float -> float option
(** Largest DTS point of the node that is <= the given time: the
    ET-law representative (Prop. 5.1) of that instant. *)

val index_at_or_after : t -> int -> float -> int
(** Index of the node's first DTS point that is >= the given time, or
    its point count when every point precedes the time: one binary
    search that finds an exact point and rounds a receive instant that
    fell to the propagation cap forward alike. *)

val earliest_at_or_after : t -> int -> float -> float option
(** Smallest DTS point of the node that is >= the given time: the
    sound (conservative) rounding for receive instants that fell to
    the propagation cap.  The point at {!index_at_or_after}. *)

val index_of_point : t -> int -> float -> int option
(** Position of an exact point in the node's sequence. *)

val pp : Format.formatter -> t -> unit
