(** The auxiliary graph of paper Section VI-A, mapping TMEDB on a DTS
    to a minimum-energy multicast (directed Steiner tree) instance.

    Vertices:
    - a *wait* vertex u_{i,l} for every node i and DTS point t_{i,l},
      chained by 0-weight edges u_{i,l} → u_{i,l+1} ("informed at
      t_{i,l} implies informed at t_{i,l+1}");
    - a *level* vertex x_{i,l,k} for every discrete-cost-set level k of
      node i at t_{i,l} (only when the transmission completes by the
      deadline, t + τ ≤ T), chained with *incremental* weights
      u_{i,l} →(w¹) x_{i,l,1} →(w²−w¹) x_{i,l,2} → …, so that a tree
      reaching level k pays exactly w^k — the broadcast nature of
      Property 6.1;
    - 0-weight edges x_{i,l,k} → u_{j,f} for each neighbour j newly
      covered at level k, where t_{j,f} = t_{i,l} + τ (the DTS closure
      guarantees this point exists).

    The source vertex is u_{s,0}; terminals are each node's last wait
    vertex, as in the paper's Fig. 3.

    One generator decides every vertex's successors: {!Lazy}'s forward
    rule.  A graph exists in two forms over the same ids and adjacency
    orders — the lazy view, which generates only the vertices a
    traversal pops, and the CSR graph {!force} fills by running that
    rule over the whole universe. *)

open Tmedb_steiner

type vertex =
  | Wait of { node : int; point_idx : int; time : float }
  | Level of {
      node : int;
      point_idx : int;
      time : float;
      level_idx : int;
      cum_cost : float;  (** Total transmit cost of this level, w^k. *)
    }

type t = {
  graph : Digraph.t;
  vertex : vertex array;  (** Vertex id → description. *)
  source_vertex : int;
  terminals : int list;  (** Last wait vertex of every non-source node. *)
  base : int array;
      (** [base.(i)] is the id of node [i]'s first wait vertex; wait
          vertices are contiguous per node, making {!wait_vertex} O(1). *)
  problem : Problem.t;
      (** The (deadline-clipped) instance the graph was built from,
          kept so {!extract_schedule} can recompute each chosen
          level's covered-neighbour set for provenance. *)
}

val build : Problem.t -> Tmedb_tveg.Dts.t -> t
(** The forced graph: {!Lazy.create} plus {!force}, with the sizing
    pass's DCS marginals kept for the forcing pass so each block is
    queried once.  Uses the instance's design channel for the DCS
    costs: static minimum costs under [`Static], single-hop ε-costs
    under the fading models (the FR backbone of Section VI-B). *)

val wait_vertex : t -> node:int -> point_idx:int -> int option
(** Id of wait vertex u_{node, point_idx}; [None] when the node has no
    DTS point of that index (pruned or past the deadline). *)

val extract_schedule : t -> Dst.tree -> Schedule.t
(** Transmissions implied by a Steiner tree: per (node, DTS point)
    chain the deepest chosen level, at its cumulative cost.  When
    {!Tmedb_report.Provenance} is enabled, emits one
    [Schedule_entry] event per transmission recording the DTS point,
    DCS level, covered-neighbour set and selecting tree edge. *)

val num_wait_vertices : t -> int
(** Wait vertices in the graph — one per surviving DTS point, the
    Σ|DTS_i| term of the paper's size analysis. *)

val num_level_vertices : t -> int
(** Level vertices in the graph — one per (node, point, DCS level)
    triple whose transmission completes by the deadline. *)

(** Lazily expanded auxiliary graph (frontier materialisation).

    A cheap exact-count pass fixes the id layout up front (wait ids
    first, then level ids in block order); successors are generated on
    demand from memoised DCS blocks, so only the frontier a traversal
    actually pops is paid for.  The gap between {!Lazy.num_vertices}
    and {!Lazy.nodes_materialized} is the saving over forcing the
    O(N²L) graph. *)
module Lazy : sig
  type t
  (** A lazily expanded auxiliary graph over a problem and its DTS. *)

  val create : Problem.t -> Tmedb_tveg.Dts.t -> t
  (** Exact-count pass only: O(Σ_blocks deg·log deg) DCS sizing, no
      edge materialisation.  Uses the instance's design channel for
      DCS costs, exactly like {!build}.  Forcing it later queries each
      non-empty block's DCS a second time; use {!build} to force at
      once. *)

  val create_with :
    marginals:(node:int -> time:float -> Tmedb_tveg.Dcs.marginal list) ->
    base:int array ->
    level_off:int array ->
    edge_bound:int ->
    Problem.t ->
    Tmedb_tveg.Dts.t ->
    t
  (** {!create} with the id layout supplied instead of counted: no DCS
      block is built at creation time (one [marginals] call per
      non-empty block reads its first-level cost).  [base]/[level_off]/
      [edge_bound] must be exactly what the counting pass would have
      produced for this (problem, dts) — a shared [Solve_state]
      assembles them by offset arithmetic — and [marginals] must
      return, for every block the layout gives levels, the same
      marginal list [Dcs.marginals_at] would on the instance (blocks
      the layout zeroes are never asked).  Vertex ids, edges and
      adjacency orders are then identical to {!create}'s. *)

  val view : t -> Digraph.view
  (** Forward successor view.  Before {!force} it runs the successor
      rule per query: the first enumeration of a vertex bumps the
      materialisation counters; a level vertex also materialises its
      DCS block (memoised), a wait vertex reads the first-level cost
      the sizing pass recorded.  After {!force} it reads the CSR. *)

  val rev_view : t -> Digraph.view
  (** Reverse (predecessor) view: [Digraph.view (Digraph.reverse g)]
      of the forced graph [g], forcing it on the first query.  Sources
      come in descending id. *)

  val describe : t -> int -> vertex
  (** Vertex id → description (the forced graph's [vertex] array).
      O(log V) plus a block memo lookup before {!force}, an array read
      after.  @raise Invalid_argument on an out-of-range id. *)

  val wait_vertex : t -> node:int -> point_idx:int -> int option
  (** Id of wait vertex u_{node, point_idx}; [None] when out of
      range.  O(1). *)

  val extract_schedule : t -> Dst.tree -> Schedule.t
  (** Exactly {!extract_schedule} (same deterministic order, same
      provenance events), reading vertex descriptions via
      {!describe}. *)

  val source_vertex : t -> int
  (** Id of u_{s,0}, the Steiner root. *)

  val terminals : t -> int list
  (** Last wait vertex of every non-source node, ascending. *)

  val num_vertices : t -> int
  (** Total vertex universe — the forced graph's [Digraph.n]. *)

  val num_wait_vertices : t -> int
  (** Wait vertices in the universe (Σ|DTS_i|). *)

  val num_level_vertices : t -> int
  (** Level vertices in the universe. *)

  val edge_bound : t -> int
  (** Upper bound on the forced graph's edge count (coverage edges that
      round past the deadline are counted here but dropped). *)

  val nodes_materialized : t -> int
  (** Vertices whose forward successors were generated — the frontier
      actually paid for; every vertex once forced. *)

  val edges_materialized : t -> int
  (** Edges emitted during first-time forward generation; the forced
      graph's edge count once forced. *)
end

val force : Lazy.t -> t
(** The forcing pass: runs the successor rule over every vertex into
    CSR arrays ({!Digraph.of_succ}) and describes every vertex into
    [vertex], walking ids in order so no vertex pays an id search.
    Memoised: later calls, {!Lazy.view} and {!Lazy.rev_view} read the
    result.  Equal ids, edges and adjacency orders to the lazy view. *)
