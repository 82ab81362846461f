(** TMEDB problem instances (paper Section IV).

    An instance bundles the TVEG, the physical layer (which fixes the
    cost set W and ε), the design channel model (which ED-function
    class F instantiates ψ), the source, and the deadline T.  The cost
    budget C of the decision version is optional — the optimisation
    algorithms minimise Σw and [Feasibility] checks any budget. *)

open Tmedb_channel
open Tmedb_tveg

type t = {
  graph : Tveg.t;
  phy : Phy.t;
  channel : Tveg.channel;
  source : int;
  deadline : float;
  budget : float option;
}

val make :
  ?budget:float ->
  graph:Tveg.t ->
  phy:Phy.t ->
  channel:Tveg.channel ->
  source:int ->
  deadline:float ->
  unit ->
  t
(** @raise Invalid_argument on an out-of-range source or a deadline
    outside the graph span. *)

val n : t -> int
(** Number of nodes in the underlying TVEG. *)

val tau : t -> float
(** Traversal latency τ of the TVEG (seconds per hop). *)

val span_start : t -> float
(** Start of the graph's observation span — the instant the source is
    informed. *)

val non_source_nodes : t -> int list
(** Every node except the source, ascending: the broadcast's intended
    receivers (the terminal set of the Steiner reduction). *)

val is_reachable : t -> bool
(** Necessary condition for feasibility: every node journey-reachable
    from the source by the deadline (condition (ii) lower bound). *)

val completion_lower_bound : t -> float
(** Earliest instant by which a broadcast can possibly complete
    (foremost-journey bound); [infinity] when unreachable. *)

val clip : t -> t
(** The same instance on its graph restricted to the half-open
    [\[span.lo, deadline)]: contacts after the deadline can never
    matter, so the DTS closure and the DCS queries walk shorter link
    lists.  EEDCB, SPT and {!Solve_state} plan on the clipped
    instance, so a run ending at the deadline carries only
    transmissions that arrive strictly before it. *)

val dts : ?cap_per_node:int -> t -> Dts.t
(** The instance's discrete time set, clipped to the deadline and
    pruned to each node's earliest reachable instant from the source
    (see {!Tmedb_tveg.Dts.compute}). *)

(** {1 NP-hardness gadget}

    The Set-Cover reduction of Theorem 4.1, used for ground-truth
    optimality tests: the source can inform every "set" node for
    [source_cost] in one transmission at time 0; during [1, 2) each set
    node is adjacent exactly to its elements at equal distance, so
    covering all elements costs [element_cost] per chosen set.  The
    optimal TMEDB cost is [source_cost + k* · element_cost] with k*
    the minimum set cover size. *)

val set_cover_gadget :
  ?phy:Phy.t -> universe:int -> sets:int list list -> unit -> t * float * float
(** Returns [(instance, source_cost, element_cost)].  Node ids: source
    0, set node m ↦ 1+m, element e ↦ 1+|sets|+e.  Static channel,
    τ = 0, deadline 3.
    @raise Invalid_argument when a set mentions an element outside
    [0, universe) or the universe is not covered by the union. *)

val pp : Format.formatter -> t -> unit
(** Human-readable dump of an instance: size, source, deadline, span
    and channel model. *)
