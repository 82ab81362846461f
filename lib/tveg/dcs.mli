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
(** The per-neighbour cost below, specialised to one (phy, channel):
    the constants [noise_power·γ_th] and ln(1/(1−ε)) are computed once,
    and every cost is the same float expression {!neighbour_cost}
    evaluates. *)

val pricing : phy:Phy.t -> channel:Tveg.channel -> pricing

type scratch = private {
  mutable level_cost : float array;
      (** Level k's cost, clamped to ≥ w_min, for k below the level
          count {!fill} returned. *)
  mutable level_start : int array;
      (** Level k's fresh neighbours are [ids.(level_start.(k))] up to
          [ids.(level_start.(k+1) - 1)], ascending id; the entry at the
          level count is the number of neighbours served. *)
  mutable ids : int array;  (** The served neighbours, in (cost, id) order. *)
  mutable raw_cost : float array;  (** Their unclamped costs, same order. *)
}
(** Caller-owned working arrays of {!fill}, grown on demand and
    overwritten by every call.  Give each domain its own: the pool runs
    DCS queries concurrently. *)

val scratch : unit -> scratch
(** An empty scratch. *)

val fill : scratch -> Tveg.t -> pricing -> node:int -> time:float -> int
(** The DCS kernel, without a list: the ρ_τ-live neighbours of [node]
    at [time] whose cost is at most [w_max], sorted by (cost, id) into
    the scratch, equal costs merged into one level.  Returns the number
    of levels.  Counts one [dcs.queries].  O(deg · log deg). *)

val at :
  Tveg.t -> phy:Phy.t -> channel:Tveg.channel -> node:int -> time:float -> level list
(** Increasing-cost levels; levels whose cost exceeds [w_max] are
    dropped (those neighbours are unreachable in one hop at this
    time).  Equal-cost neighbours share a level.  A list view of
    {!fill}. *)

val marginals_at :
  Tveg.t -> phy:Phy.t -> channel:Tveg.channel -> node:int -> time:float -> marginal list
(** Same levels as {!at} but carrying only each level's newly covered
    neighbours: {!fill}'s levels as a list. *)

val neighbour_cost : phy:Phy.t -> channel:Tveg.channel -> dist:float -> float
(** The per-neighbour cost described above. *)

val equal_marginal : marginal -> marginal -> bool
(** Same cost and the same fresh neighbours. *)

val level_stats : marginal list -> int * int
(** [(levels, covered)]: the number of levels and the total neighbours
    covered across them — one (node, time) block's vertex and
    coverage-edge counts in the auxiliary graph, shared by the one-shot
    sizing pass and the deadline-shared solve state. *)

val min_cost_level : level list -> level option
(** First (cheapest) level, if any. *)

val level_covering : level list -> k:int -> level option
(** Cheapest level covering at least [k] neighbours. *)
