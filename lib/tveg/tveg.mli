(** Time-varying energy-demand graphs (paper Definition 3.2).

    A TVEG couples a deterministic TVG with, for every edge and time, an
    ED-function.  Concretely each unordered pair carries its contact
    segments — presence interval plus distance — and the cost function
    ψ derives the ED-function from the distance under a channel model.
    The uniform traversal latency τ (paper Section III-A) is stored
    with the graph. *)

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
(** Contact segments of the unordered pair, sorted by start. *)

val covering_link : t -> int -> int -> float -> link option
(** The first segment, in {!links} order, whose interval contains the
    time — whether or not a transmission started then completes on it.
    [None] for [i = j] or when no segment covers the time. *)

val rho_tau : t -> int -> int -> float -> bool
(** A transmission started at the given time completes: the edge is
    continuously present on [\[t, t+τ\]]. *)

val dist_at : t -> int -> int -> float -> float option
(** Distance during the covering segment when [rho_tau] holds. *)

val ed_at : t -> phy:Tmedb_channel.Phy.t -> channel:channel -> int -> int -> float ->
  Tmedb_channel.Ed_function.t
(** The ψ of Definition 3.2: ED-function of edge (i,j) at a time
    ([Absent] when the transmission cannot complete). *)

val iter_neighbors_at : t -> int -> float -> (int -> float -> unit) -> unit
(** [iter_neighbors_at g i t f] calls [f j dist] for every neighbour
    [j] with ρ_τ = 1 at [t], ascending node id, without building a
    list.  O(deg(i) · log L) — only nodes sharing a contact with [i]
    are examined, not all N. *)

val neighbors_at : t -> int -> float -> (int * float) list
(** The (neighbour, distance) pairs {!iter_neighbors_at} visits, in
    the same ascending order. *)

val neighbor_ids : t -> int -> int array
(** Nodes sharing at least one contact segment with the given node
    over the whole span, ascending.  O(1); the returned array is the
    graph's own adjacency — callers must not mutate it. *)

val nth_dist_at : t -> int -> int -> float -> float option
(** [nth_dist_at g i k t] is [dist_at g i j t] for [j = (neighbor_ids
    g i).(k)], read from the pair stored at that position instead of
    searching for it.  O(log L). *)

val presence : t -> int -> int -> Interval_set.t
(** Normalised union of the pair's contact segments: the times at
    which the edge exists, as a canonical interval set.  O(1) (built
    at construction); empty for a pair with no contacts or [i = j]. *)

val earliest_arrival : t -> src:int -> t0:float -> float array
(** Earliest packet arrival per node from [src] starting at [t0]
    (temporal Dijkstra over each pair's {!presence}, traversal latency
    τ); [infinity] for a node no journey reaches, [t0] at [src].  This
    one scan answers temporal reachability: every node is
    journey-reachable by a deadline when every arrival is at most it.
    O(C + N log N) for C contact segments. *)

val adjacent_partition : t -> int -> float array
(** P^ad_i over the graph span (Equation 9): the span endpoints and
    every endpoint of a contact segment of node [i], sorted ascending
    without duplicates.  Within each interval between consecutive
    points the set of nodes connected to [i] is constant. *)

val average_degree_over : t -> window:Interval.t -> float
(** Time-averaged mean node degree over the window (Fig. 7(b)):
    (2 Σ_{i<j} |presence_ij ∩ window|) / (n |window|), summed in
    ascending (i, j) order. *)

val restrict : t -> span:Interval.t -> t
val pp : Format.formatter -> t -> unit
