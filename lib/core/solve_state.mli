(** Shared, deadline-independent solve state.

    The one-shot pipeline ({!Eedcb}, {!Spt}) clips the graph to
    [\[span.lo, T\]] ({!Problem.clip}) and rebuilds the DTS closure,
    the DCS marginals and the auxiliary-graph id layout from scratch
    for every deadline T.  A solve state does that work once, at a
    fixed horizon (the largest deadline of a sweep), and serves any
    deadline [T <= horizon] out of the shared structures:

    - the DTS is the one-shot closure of the horizon-clipped instance
      ({!Tmedb_tveg.Dts.compute}); per deadline, {!Tmedb_tveg.Dts.view}
      keeps each node's points strictly below T plus T itself, or the
      sentinel when its earliest arrival is at or past T;
    - DCS marginals are memoised per (node, point) on the full graph —
      valid for every deadline because a transmission finishing
      strictly before T sees the same neighbourhood in the restricted
      graph (ρ_τ is strict at interval ends), and one finishing at or
      past T has no levels.  A run of consecutive points with equal
      marginals shares one physical list, so the memo holds one list
      per run and each point's lazy graph converts one list per run
      into its level table;
    - per-deadline auxiliary-graph layouts ({!layout}) are assembled by
      offset arithmetic over cached per-block level counts, without
      re-enumerating any DCS block.

    A state is immutable once created, so concurrent per-deadline
    solves may share it freely (the Pareto sweep fans points out over
    the pool).

    Uncapped, every view is exactly the one-shot [Problem.dts] of the
    T-clipped instance, ties of an arrival at exactly T included, so
    shared and one-shot sweeps agree bit for bit (asserted over whole
    outcomes in the test suite and [bench pareto]).  When
    [cap_per_node] bites, the breadth-first truncation over the
    horizon closure may keep different points below T than the
    T-clipped closure would: test_core's "capped DTS view pinned
    (Scale N=100)" pins 36, 2, 0 and 0 differing nodes at T = 300,
    600, 900 and 1200 with cap 64.  Both are valid, possibly coarser,
    schedule spaces. *)

type t
(** Immutable shared state for one (graph, phy, channel, source,
    horizon, cap) configuration. *)

type layout = {
  base : int array;  (** Wait-vertex base id per node. *)
  level_off : int array;
      (** Per-block level-id prefix, length total_wait + 1. *)
  edge_bound : int;  (** Eager build's edge-count upper bound. *)
}
(** Auxiliary-graph id layout of one deadline, as consumed by
    {!Aux_graph.Lazy.create_with} — identical to the layout the sizing
    pass of {!Aux_graph.Lazy.create} computes on the restricted
    instance. *)

val create : ?cap_per_node:int -> Problem.t -> t
(** Build the shared state with horizon [problem.deadline]: compute
    the closure of the horizon-clipped instance once and memoise the
    DCS marginals of every point (one [dcs.queries] bump per point —
    the same work a single one-shot solve at the horizon performs),
    plus the [span.lo] sentinel of each node some smaller deadline
    leaves unreachable.  [cap_per_node] is the closure's per-node
    point cap and must match the per-solve cap of the contexts that
    reuse the state (see {!check_compatible}). *)

val problem : t -> Problem.t
(** The instance the state was created from (deadline = horizon). *)

val horizon : t -> float
(** Largest deadline the state can serve. *)

val cap_per_node : t -> int option
(** The cap the state was created with ([None]: the DTS default). *)

val check_compatible : t -> Problem.t -> cap_per_node:int option -> unit
(** Validate that a per-deadline problem can be served: it must share
    the state's graph {e value} (physical equality — the state's
    caches are keyed by its contact tables), physical layer, channel,
    source and cap, with a deadline at or before the horizon.
    @raise Invalid_argument otherwise, naming the mismatch. *)

val dts_at : t -> deadline:float -> Tmedb_tveg.Dts.t
(** The deadline's {!Tmedb_tveg.Dts.view} of the horizon closure
    (equal to the one-shot [Problem.dts] of the clipped instance when
    uncapped; see the header for the capped case).
    @raise Invalid_argument past the horizon. *)

val marginals :
  t -> deadline:float -> node:int -> time:float -> Tmedb_tveg.Dcs.marginal list
(** Memoised DCS marginals provider for one deadline: blocks whose
    transmission finishes at or past the deadline answer [] (they have
    no levels in the restricted instance); all others are served from
    the shared memo without touching [dcs.queries].  Partial
    application at [~deadline] yields the provider
    {!Aux_graph.Lazy.create_with} consumes. *)

val layout : t -> Tmedb_tveg.Dts.t -> layout
(** The deadline's auxiliary-graph layout, from the DTS view returned
    by {!dts_at} — pure offset arithmetic over the cached per-block
    level counts. *)
