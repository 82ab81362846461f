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

val at :
  Tveg.t -> phy:Phy.t -> channel:Tveg.channel -> node:int -> time:float -> level list
(** Increasing-cost levels; levels whose cost exceeds [w_max] are
    dropped (those neighbours are unreachable in one hop at this
    time).  Equal-cost neighbours share a level. *)

val marginals_at :
  Tveg.t -> phy:Phy.t -> channel:Tveg.channel -> node:int -> time:float -> marginal list
(** Same levels as {!at} but carrying only each level's newly covered
    neighbours.  The auxiliary-graph construction wants exactly the
    per-level deltas; accumulating full covered lists there was O(k²)
    list churn per (node, time). *)

val neighbour_cost : phy:Phy.t -> channel:Tveg.channel -> dist:float -> float
(** The per-neighbour cost described above. *)

val level_stats : marginal list -> int * int
(** [(levels, covered)]: the number of levels and the total neighbours
    covered across them — one (node, time) block's vertex and
    coverage-edge counts in the auxiliary graph, shared by the one-shot
    sizing pass and the deadline-shared solve state. *)

val min_cost_level : level list -> level option
(** First (cheapest) level, if any. *)

val level_covering : level list -> k:int -> level option
(** Cheapest level covering at least [k] neighbours. *)
