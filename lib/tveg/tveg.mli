(** Time-varying energy-demand graphs (paper Definition 3.2).

    A TVEG couples a deterministic TVG with, for every edge and time, an
    ED-function.  Concretely each unordered pair carries its contact
    records — presence interval plus distance — and the cost function
    ψ derives the ED-function from the distance under a channel model.
    The uniform traversal latency τ (paper Section III-A) is stored
    with the graph.

    {b One contact rule.}  {!create} stores each pair in canonical
    form: disjoint pieces sorted by start, where each instant keeps the
    distance of the first record, in start order, that covers it
    (newest first among equal intervals).  A run is a maximal chain of
    touching pieces.  A link is live at [t] when [t] lies in a piece
    and the piece's run reaches past [t + τ]; its distance is the
    piece's.  Every query below — {!rho_tau}, {!dist_at},
    {!iter_neighbors_at}, {!iter_live_spans}, {!earliest_departure},
    {!earliest_arrival} — reads the store this one way. *)

open Tmedb_prelude

type link = { iv : Interval.t; dist : float }

type channel = [ `Static | `Rayleigh | `Nakagami of float | `Lognormal of float ]
(** Which ED-function class F instantiates ψ. *)

type t

val of_trace : tau:float -> Tmedb_trace.Trace.t -> t
(** @raise Invalid_argument on a negative or non-finite τ. *)

val create : n:int -> span:Interval.t -> tau:float -> (int * int * link) list -> t
(** Direct construction for tests and gadget instances.
    @raise Invalid_argument on a node out of range, a self-loop, a
    link outside the span, a distance that is not positive and finite,
    or a τ that is not non-negative and finite. *)

val n : t -> int
val span : t -> Interval.t
val tau : t -> float
val links : t -> int -> int -> link list
(** The unordered pair's canonical pieces: disjoint, sorted by start,
    their union the union of its contact records.  A record shadowed
    by an earlier one keeps only the instants no earlier record
    covers.  [[]] for [i = j]. *)

val rho_tau : t -> int -> int -> float -> bool
(** A transmission started at the given time completes: the time lies
    in a piece whose run reaches past [t + τ], so the edge is
    continuously present on [\[t, t+τ\]]. *)

val dist_at : t -> int -> int -> float -> float option
(** The distance of the piece containing the time, when {!rho_tau}
    holds; [None] otherwise.  O(log L). *)

val earliest_departure : t -> int -> int -> after:float -> float
(** The earliest instant at or after [after] at which {!rho_tau}
    holds for the pair, or [infinity] when none does (always for
    [i = j]).  A run [\[lo, hi)] is live on [\[lo, hi - τ)], so this
    is [max after lo] for the first run where that fits.
    O(log L) plus the pieces skipped. *)

val ed_at : t -> phy:Tmedb_channel.Phy.t -> channel:channel -> int -> int -> float ->
  Tmedb_channel.Ed_function.t
(** The ψ of Definition 3.2: ED-function of edge (i,j) at a time
    ([Absent] when the transmission cannot complete). *)

val iter_neighbors_at : t -> int -> float -> (int -> float -> unit) -> unit
(** [iter_neighbors_at g i t f] calls [f j dist] for every neighbour
    [j] with ρ_τ = 1 at [t] and its {!dist_at}, ascending node id,
    without building a list.  O(deg(i) · log L) — only nodes sharing
    a contact with [i] are examined, not all N. *)

val iter_live_spans : t -> int -> (int -> float -> float -> float -> float -> unit) -> unit
(** [iter_live_spans g i f] calls [f j lo hi run_hi dist] for every
    canonical piece [\[lo, hi)] of every pair (i, j) that is live at
    [lo], ascending [j] then [lo], with [run_hi] the end of its run
    and [dist] its distance.  Under the one contact rule the piece is
    live at exactly the instants [t] of [\[lo, hi)] with
    [t +. τ < run_hi]: its live window ends at [hi] when
    [hi +. τ < run_hi] (the next piece of its run is live from its
    start) and otherwise at the first [t] with [t +. τ >= run_hi].
    A piece not live at [lo] is live nowhere and is skipped.
    O(pieces of [i]). *)

val neighbors_at : t -> int -> float -> (int * float) list
(** The (neighbour, distance) pairs {!iter_neighbors_at} visits, in
    the same ascending order. *)

val neighbor_ids : t -> int -> int array
(** Nodes sharing at least one contact record with the given node
    over the whole span, ascending.  O(1); the returned array is the
    graph's own adjacency — callers must not mutate it. *)

val nth_dist_at : t -> int -> int -> float -> float option
(** [nth_dist_at g i k t] is [dist_at g i j t] for [j = (neighbor_ids
    g i).(k)], read from the pair stored at that position instead of
    searching for it.  O(log L). *)

val nth_live : t -> int -> int -> float -> bool
(** [nth_live g i k t] is [Option.is_some (nth_dist_at g i k t)],
    without allocating. *)

val earliest_arrival : t -> src:int -> t0:float -> float array
(** Earliest packet arrival per node from [src] starting at [t0]
    (temporal Dijkstra: a node reached at [a] reaches each neighbour
    at its {!earliest_departure} after [a] plus τ); [infinity] for a
    node no journey reaches, [t0] at [src].  This one scan answers
    temporal reachability: every node is journey-reachable by a
    deadline when every arrival is at most it.  O(C + N log N) for C
    pieces. *)

val adjacent_partition : t -> int -> float array
(** P^ad_i over the graph span (Equation 9): the span endpoints and
    every endpoint of a canonical piece ({!links}) of node [i], sorted
    ascending without duplicates.  Within each interval between
    consecutive points the set of nodes connected to [i], and each
    one's distance, is constant. *)

val average_degree_over : t -> window:Interval.t -> float
(** Time-averaged mean node degree over the window (Fig. 7(b)):
    (2 Σ_{i<j} |presence_ij ∩ window|) / (n |window|), where a pair's
    presence is the union of its runs, summed in ascending (i, j)
    order. *)

val restrict : t -> span:Interval.t -> t
(** The graph on a sub-span: each piece clipped to it and the runs
    recomputed, so a run cut by the sub-span ends at its end.
    @raise Invalid_argument when the sub-span is not inside the span. *)

val pp : Format.formatter -> t -> unit
