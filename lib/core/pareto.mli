(** Time–energy Pareto engine.

    The paper fixes one deadline T and minimises energy; this module
    sweeps a whole deadline grid and reports the time-vs-energy
    tradeoff.  All deadline-independent work — the streaming τ-closure,
    the memoised DCS marginals and the auxiliary-graph id layouts —
    lives in one shared {!Solve_state} created at the grid's largest
    deadline, so a k-point sweep costs far less than k independent
    solves (gated by [bench pareto]).  Points fan out over the pool,
    each seeding its own RNG stream ({!Experiment.point_rng}), so
    results are bit-identical at any worker count. *)

open Tmedb_prelude

(** Deadline-grid construction and validation.  Every constructor
    rejects empty, NaN, non-finite, non-positive and non-ascending
    grids with a human-readable message (surfaced by the CLI as a
    usage error). *)
module Grid : sig
  val of_list : float list -> (float list, string) result
  (** Validate an explicit grid: non-empty, every deadline positive
      and finite, strictly ascending. *)

  val of_range :
    lo:float -> hi:float -> step:float -> (float list, string) result
  (** The grid [lo, lo + step, lo + 2·step, …] up to and including
      [hi] when it lies on the grid.  Each point is computed as
      [lo + k·step] (no running accumulation), so the grid is a pure
      function of the spec.  Rejects [lo <= 0], [step <= 0], [hi < lo],
      NaN/infinite bounds, and grids of more than 100 000 points. *)

  val parse_range : string -> (float list, string) result
  (** Parse ["LO:HI:STEP"] and apply {!of_range}. *)

  val parse_list : string -> (float list, string) result
  (** Parse a comma-separated deadline list and apply {!of_list}. *)
end

type point = {
  deadline : float;  (** The grid deadline this point was planned at. *)
  energy : float;  (** Normalised scheduled energy Σw / (noise·γ_th). *)
  transmissions : int;  (** Schedule size. *)
  feasible : bool;  (** Feasibility verdict (conditions (i)–(iv)). *)
  unreached : int;  (** Nodes the planner could not cover in time. *)
  dominated : bool;  (** Whether another point dominates this one. *)
}
(** One planned deadline of the sweep. *)

type t = {
  points : point list;  (** One per grid deadline, ascending. *)
  front : float list;
      (** Deadlines of the non-dominated points, ascending — the
          Pareto front of the sweep. *)
}
(** A completed sweep. *)

val dominates : point -> point -> bool
(** [dominates a b]: [a] covers every node, is no later and no more
    expensive than [b], and strictly better on at least one axis.
    Points with unreached nodes never dominate — the objective is the
    full broadcast, so an incomplete plan is not a tradeoff point. *)

val mark_dominated : point list -> point list
(** Set each point's [dominated] flag: true when some other point
    {!dominates} it, or when the point itself leaves nodes unreached.
    Pure — order and every other field are preserved. *)

val sweep :
  ?pool:Pool.t ->
  ?steiner_level:int ->
  ?cap_per_node:int ->
  ?seed:int ->
  ?share:bool ->
  planner:Planner.t ->
  deadlines:float list ->
  Problem.t ->
  t
(** Plan [problem] at every grid deadline with [planner] and mark
    dominance.  [deadlines] must satisfy {!Grid.of_list} and fit the
    graph span; [problem]'s own deadline is ignored (each point plans
    [{ problem with deadline }]).  [share] (default [true]) builds one
    {!Solve_state} at the largest deadline and threads it through
    every point's context; [share:false] plans each point one-shot —
    same results, k× the deadline-independent work.
    [seed] (default 42) feeds {!Experiment.point_rng}.
    @raise Invalid_argument on an invalid grid or one outside the
    graph span. *)
