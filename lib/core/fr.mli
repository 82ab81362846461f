(** Fading-resistant broadcast (paper Section VI-B): FR-EEDCB,
    FR-GREED and FR-RAND.

    Two stages: (1) *broadcast backbone selection* — run the chosen
    static-style algorithm with single-hop ε-costs as edge weights
    (the problem's design channel must be a fading model), fixing
    relays R and times T; (2) *optimal energy allocation* — solve the
    nonlinear program (14)–(17) for the costs W:

      min Σ w_k  s.t.  Π_{k covering j} φ(w_k) ≤ ε  for every node j,
      and the same for every relay restricted to transmissions before
      its own, with w ∈ [w_min, w_max].

    Constraints are handled in log space (sums of log φ ≤ log ε), one
    row per protected node in a flat CSR that the penalty solver, the
    final monotone bisection repair and the polish all read.  Rayleigh
    gradients are analytic, Nakagami and log-normal ones central
    differences.  The repair guarantees the returned costs satisfy
    every satisfiable constraint.

    Each FR planner's outcome carries a
    {!Planner.Outcome.Fr_allocation} artifact holding the stage-1
    backbone schedule and the stage-2 allocation diagnostics. *)

type backbone = [ `Eedcb | `Greedy | `Random ]
(** Stage-1 algorithm choice. *)

type allocation = Planner.Outcome.allocation = {
  costs : float array;  (** Per transmission, in backbone time order. *)
  nlp_feasible : bool;  (** NLP reached feasibility before repair. *)
  repaired : bool;  (** The repair pass had to adjust costs. *)
  unsatisfiable : int list;
      (** Nodes no cost assignment can serve (not covered by any
          backbone transmission, or needing w > w_max). *)
  outer_iterations : int;
}
(** Re-export of {!Planner.Outcome.allocation} so stage-2 callers can
    use [Fr.allocation] fields without reaching into [Planner]. *)

val allocate : ?warm:Planner.Warm.t -> Problem.t -> Schedule.t -> Schedule.t * allocation
(** Stage 2 alone: re-cost an arbitrary relay/time skeleton.  With
    [?warm] (see {!Planner.Warm}), the NLP starts from the store's
    previous allocation (single start, Barzilai–Borwein-accelerated
    inner solves) instead of the cold two-point multi-start, and the
    final costs are written back for the next call — the repair and
    polish stages run identically either way, so warm results satisfy
    exactly the same constraints and typically land within a few
    percent of the cold objective at a fraction of the iterations.
    Without [?warm] the solve path is bit-identical to before this
    option existed.
    @raise Invalid_argument when the problem's design channel is
    [`Static] (there is nothing to allocate: costs are thresholds). *)

val plan_with : backbone -> Planner.Ctx.t -> Problem.t -> Planner.Outcome.t
(** Both stages: backbone selection under the context (the [`Random]
    backbone draws from the context's [rng], defaulting to the
    documented seed-17 stream), then energy allocation.
    @raise Invalid_argument when the design channel is [`Static]. *)

val fr_eedcb : Planner.t
(** FR-EEDCB: {!plan_with}[ `Eedcb], fading channel, Section VI-B. *)

val fr_greed : Planner.t
(** FR-GREED: {!plan_with}[ `Greedy], fading channel, Section VI-B. *)

val fr_rand : Planner.t
(** FR-RAND: {!plan_with}[ `Random], fading channel, Section VI-B. *)
