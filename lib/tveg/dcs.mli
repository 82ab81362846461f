(** Discrete cost sets (paper Section VI-A).

    At a node and time, sort the ρ_τ-adjacent neighbours by the cost
    needed to serve them; the DCS is the resulting increasing cost
    sequence.  Property 6.1 (broadcast nature): paying level k serves
    the k cheapest neighbours, and by Proposition 6.1 an optimal
    schedule only ever uses DCS costs.

    The per-neighbour cost is channel-dependent: the static minimum
    cost N₀B·γ_th·d^α for [`Static]; the single-hop ε-failure cost
    w₀ = β/ln(1/(1−ε)) for the fading models (the backbone weights of
    Section VI-B). *)

open Tmedb_channel

type marginal = {
  cost : float;  (** Transmit cost of this DCS level, clamped to ≥ w_min. *)
  fresh : int list;  (** Neighbours first served at this level, ascending id. *)
}

type level = {
  cost : float;  (** Transmit cost of this DCS level, clamped to ≥ w_min. *)
  covered : int list;  (** All neighbours served at this cost, ascending id. *)
}

type pricing
(** The per-neighbour cost above, specialised to one (phy, channel):
    the constants [noise_power·γ_th] and ln(1/(1−ε)) are computed once,
    so every kernel below prices a distance with the same float
    expression. *)

val pricing : phy:Phy.t -> channel:Tveg.channel -> pricing

type work
(** The kernels' own buffers: the served neighbours' unclamped costs
    and the sweep's event and piece tables. *)

type scratch = private {
  mutable level_cost : float array;
      (** Level k's cost, clamped to ≥ w_min, for k below the level
          count last written. *)
  mutable level_start : int array;
      (** Level k's fresh neighbours are [ids.(level_start.(k))] up to
          [ids.(level_start.(k+1) - 1)], ascending id; the entry at the
          level count is the number of neighbours served. *)
  mutable ids : int array;  (** The served neighbours, in (cost, id) order. *)
  work : work;
}
(** Caller-owned working arrays of the DCS kernels, grown on demand,
    reused across nodes and overwritten by every query.  Give each
    domain its own: the pool runs DCS queries concurrently. *)

val scratch : unit -> scratch
(** An empty scratch. *)

val sweep : scratch -> Tveg.t -> pricing -> node:int -> float -> int
(** [sweep s g pr ~node] prepares one node's contact-event sweep and
    returns [next]: [next time] writes into [s] the levels of [node]
    at [time] — the ρ_τ-live neighbours whose cost is at most [w_max],
    sorted by (cost, id), equal costs merged into one level — and
    returns the number of levels, the same levels {!marginals_at}
    lists.  Counts one [dcs.queries] per [next].  Successive times
    must not decrease, and [next] is valid until the next sweep on
    [s].
    Preparing prices each live piece of {!Tveg.iter_live_spans} once
    and sorts its insert and remove events, O(E log E) for E pieces;
    each [next] applies the events due since the previous time to the
    live list, which it keeps sorted in place in [ids], and rereads
    its levels, O(live) plus O(live) per event.
    @raise Invalid_argument when [time] precedes the previous one. *)

val marginals : scratch -> int -> marginal list
(** The given number of levels last written into the scratch, as a
    list. *)

val at :
  Tveg.t -> phy:Phy.t -> channel:Tveg.channel -> node:int -> time:float -> level list
(** Increasing-cost levels; levels whose cost exceeds [w_max] are
    dropped (those neighbours are unreachable in one hop at this
    time).  Equal-cost neighbours share a level.  The prefix unions of
    {!marginals_at}. *)

val marginals_at :
  Tveg.t -> phy:Phy.t -> channel:Tveg.channel -> node:int -> time:float -> marginal list
(** Same levels as {!at} but carrying only each level's newly covered
    neighbours: the point kernel, which prices every live neighbour of
    [node] at [time] and sorts them, O(deg · log deg), and counts one
    [dcs.queries]. *)

val equal_marginal : marginal -> marginal -> bool
(** Same cost and the same fresh neighbours. *)

val level_stats : marginal list -> int * int
(** [(levels, covered)]: the number of levels and the total neighbours
    covered across them — one (node, time) block's vertex and
    coverage-edge counts in the auxiliary graph, as the deadline-shared
    solve state sizes its layouts. *)

val level_covering : level list -> k:int -> level option
(** Cheapest level covering at least [k] neighbours. *)
