(** First-class broadcast planners.

    The paper's evaluation (Section VII) compares six planning
    algorithms; this module makes "a planner" a value rather than a
    variant arm: a {!type:t} bundles metadata ({!type:info}) with a
    single entry point [plan : Ctx.t -> Problem.t -> Outcome.t].  Every
    consumer — the figure drivers, the CLI, the bench harness and the
    examples — dispatches through {!Registry} instead of matching on a
    closed algorithm type, so registering a new planner (see
    [Static_bip]) requires no change to any of them.

    {!Ctx} replaces the bespoke optional-argument lists the algorithm
    modules used to grow ([?level], [?cap_per_node], [?rng], [?pool],
    …): one shared record of planning-time knobs, with the paper's
    defaults.  {!Outcome} replaces the per-planner result records —
    every planner produces the same (schedule, feasibility report,
    unreached set) triple plus optional typed {!Outcome.artifact}s
    (the pruned Steiner tree, the FR energy allocation, …) for
    consumers that want algorithm-specific detail. *)

open Tmedb_prelude

(** Cross-point warm-start store for the FR energy allocation: the
    previous sweep point's allocated costs, keyed by (relay,
    occurrence index) so they survive small backbone changes between
    adjacent deadlines/windows.  A store is private to one serial
    chain of planning calls (one pool task) — sharing one across
    concurrent tasks would make results depend on scheduling. *)
module Warm : sig
  type t
  (** Mutable allocation memory; contents only ever steer NLP starting
      iterates, never feasibility or constraint handling, so a warm
      and a cold solve differ at most in which local optimum the
      non-convex allocation lands on. *)

  val create : unit -> t
  (** An empty store (no memory: the first allocation runs cold). *)

  val find : t -> relay:int -> occurrence:int -> float option
  (** Last allocated cost of the [occurrence]-th transmission of
      [relay], if the previous allocation had one. *)

  val set : t -> relay:int -> occurrence:int -> float -> unit
  (** Record one allocated cost for the next point in the chain. *)

  val reset : t -> unit
  (** Forget everything (called before re-populating, so stale keys
      from a differently-shaped backbone cannot accumulate). *)
end

(** Shared planning context: everything that used to be threaded
    ad-hoc through each algorithm's [run] as optional arguments. *)
module Ctx : sig
  type t = {
    rng : Rng.t option;
        (** Stream for randomized planners ([None]: the planner's
            fixed documented default seed). *)
    steiner_level : int;
        (** Recursive-greedy level for (FR-)EEDCB (paper's ε = 1/i;
            default 2). *)
    cap_per_node : int option;
        (** Per-node DTS point cap ([None]: uncapped). *)
    pool : Pool.t option;
        (** Worker pool for a planner's internal fan-out, if any. *)
    provenance : bool;
        (** Whether to emit provenance events (defaults to the global
            {!Tmedb_report.Provenance.enabled} flag at {!make} time). *)
    warm : Warm.t option;
        (** Warm-start store for the FR allocation ([None]: every
            allocation solves cold, the goldens' path). *)
    solve_state : Solve_state.t option;
        (** Shared deadline-independent state for planners that
            support it (EEDCB, SPT): the DTS view, DCS marginals and
            auxiliary-graph layout come from the state instead of
            being rebuilt per solve.  The state must be compatible
            with the problem being planned
            ({!Solve_state.check_compatible}).  [None] (the default):
            the one-shot path, byte-identical to before the state
            existed. *)
  }

  val make :
    ?rng:Rng.t ->
    ?steiner_level:int ->
    ?cap_per_node:int ->
    ?pool:Pool.t ->
    ?provenance:bool ->
    ?warm:Warm.t ->
    ?lazy_aux:bool ->
    ?solve_state:Solve_state.t ->
    unit ->
    t
  (** Context with the paper's defaults for every omitted field.
      [lazy_aux] is accepted and ignored: each planner picks its
      auxiliary-graph form from what it reads (EEDCB the forced CSR,
      SPT the lazy view, identical results either way).  The label
      exists only because the repository benchmark's harness
      (benchsuite/workloads.ml), which must not change between
      benchmark revisions, passes it. *)

  val default : unit -> t
  (** [default () = make ()]. *)

  val rng_or : t -> seed:int -> Rng.t
  (** The context's stream, or a fresh [Rng.create seed] when the
      caller did not provide one. *)
end

(** Unified planner result: what every planner produces, plus typed
    artifacts for algorithm-specific by-products. *)
module Outcome : sig
  (** FR stage-2 energy-allocation diagnostics (paper Eqs. 14–17). *)
  type allocation = {
    costs : float array;  (** Allocated cost per backbone transmission. *)
    nlp_feasible : bool;  (** Whether the penalty solver converged feasibly. *)
    repaired : bool;  (** Whether the monotone bisection repair fired. *)
    unsatisfiable : int list;
        (** Nodes whose constraint cannot be met even at [w_max]. *)
    outer_iterations : int;  (** Penalty-method outer iterations. *)
  }

  (** Algorithm-specific by-products a consumer may inspect. *)
  type artifact =
    | Steiner_tree of {
        tree : Tmedb_steiner.Dst.tree;
            (** The pruned directed Steiner tree, in auxiliary-graph
                vertex ids. *)
        aux_vertices : int;  (** Auxiliary-graph size (vertices). *)
        aux_edges : int;  (** Auxiliary-graph size (edges). *)
        dts_points : int;  (** Total DTS points of the instance. *)
      }  (** EEDCB pipeline shape (paper Section VI-A). *)
    | Greedy_steps of int
        (** Iterations of a step-loop baseline (GREED/RAND). *)
    | Fr_allocation of { backbone : Schedule.t; allocation : allocation }
        (** FR stage 2: the ε-cost backbone and its reallocation. *)
    | Bip_plan of { planned_energy : float; snapshot_unreachable : int list }
        (** Static-BIP plan: Σ of tree powers and the nodes without
            any snapshot path. *)

  type t = {
    schedule : Schedule.t;  (** The planned transmissions. *)
    report : Feasibility.report;  (** Conditions (i)–(iv) verdict. *)
    unreached : int list;
        (** Nodes the planner could not cover by the deadline,
            ascending. *)
    artifacts : artifact list;  (** Algorithm-specific by-products. *)
  }

  val make :
    ?artifacts:artifact list ->
    schedule:Schedule.t ->
    report:Feasibility.report ->
    unreached:int list ->
    unit ->
    t
  (** Outcome with [artifacts] defaulting to []. *)

  val tree_cost : t -> float option
  (** Cost of the {!constructor:Steiner_tree} artifact, if present. *)

  val steps : t -> int option
  (** The {!constructor:Greedy_steps} artifact, if present. *)

  val backbone : t -> Schedule.t option
  (** The FR backbone schedule, if present. *)

  val allocation : t -> allocation option
  (** The FR allocation diagnostics, if present. *)

  val planned_energy : t -> float option
  (** The BIP planned energy, if present. *)

  val snapshot_unreachable : t -> int list
  (** The BIP snapshot-unreachable set ([[]] when absent). *)
end

type channel = [ `Static | `Fading ]
(** Design-channel family a planner targets: [`Static] plans against
    deterministic links, [`Fading] against an ED-function channel
    (the paper's FR- variants). *)

type info = {
  name : string;
      (** Canonical registry key and display name, as in the paper's
          legends (e.g. ["FR-EEDCB"]). *)
  channel : channel;  (** Design-channel family. *)
  section : string;
      (** Paper section introducing the algorithm (e.g. ["VI-A"]), or
          a citation for beyond-paper planners. *)
  summary : string;  (** One-line description for [tmedb_cli algorithms]. *)
}
(** Per-planner metadata, the single source of truth behind algorithm
    lists, CLI flags and figure legends. *)

type t = { info : info; plan : Ctx.t -> Problem.t -> Outcome.t }
(** A planner: metadata plus its planning function. *)

(** The planner interface, for implementations packaged as modules;
    {!of_module} turns one into a first-class {!type:t}. *)
module type PLANNER = sig
  val info : info
  (** The planner's metadata. *)

  val plan : Ctx.t -> Problem.t -> Outcome.t
  (** Plan a broadcast for the instance under the context. *)
end

val of_module : (module PLANNER) -> t
(** Package a {!module-type:PLANNER} implementation as a value. *)

val name : t -> string
(** [name p] is [p.info.name]. *)

val is_fading : t -> bool
(** Whether the planner designs for a fading channel. *)

val design_channel : t -> Tmedb_tveg.Tveg.channel
(** The design channel the paper's evaluation gives this planner:
    [`Rayleigh] for [`Fading] planners, [`Static] otherwise. *)

val run : ?ctx:Ctx.t -> t -> Problem.t -> Outcome.t
(** [run ?ctx p problem] records one [Stage] provenance event naming
    the selected planner (when provenance is enabled in [ctx]), then
    plans.  [ctx] defaults to {!Ctx.default}[ ()]. *)
