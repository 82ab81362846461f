(** Feasibility checking of schedules against TMEDB instances: the four
    conditions of the decision problem (paper Section IV), with node
    status evolved exactly per Equation (6):

      p_{i,t} = Π over completed transmissions adjacent to i of φ(w).

    A transmission at t_k affects receivers at t_k + τ.  Under the
    static channel φ ∈ {0,1}, so the same code yields deterministic
    informed/uninformed status. *)

type report = {
  relays_informed : bool;  (** (i): every relay has p ≤ ε when it transmits. *)
  all_informed : bool;  (** (ii): every node has p ≤ ε by the deadline. *)
  within_deadline : bool;  (** (iii): max t_k + τ ≤ T. *)
  within_budget : bool;  (** (iv): Σ w ≤ C (vacuously true without a budget). *)
  costs_in_range : bool;  (** Every w ∈ [w_min, w_max]. *)
  feasible : bool;  (** Conjunction of the five above. *)
  informed_time : float option array;
      (** Per node: first instant its uninformed probability reached ε
          (the source is informed at the span start). *)
  uninformed : int list;  (** Nodes never informed by the deadline. *)
  uninformed_probability : float array;  (** Final p_i at the deadline. *)
  total_cost : float;
}

val replay :
  Problem.t ->
  ready:(int -> float -> bool) ->
  hear:(Schedule.transmission -> float -> float) ->
  receive:(int -> float -> float -> unit) ->
  fire:(int -> unit) ->
  Schedule.transmission array ->
  int list
(** [replay problem ~ready ~hear ~receive ~fire txs] walks the
    time-sorted transmissions [txs] causally under Equation (6), the
    one walk behind {!check}, the Monte-Carlo trials of [Simulate] and
    the firing order of [Fr].  At each distinct instant [t] it first
    applies the receive events due by [t], then releases that instant's
    transmissions in rounds: a round fires, in schedule order, every
    waiting transmission whose relay satisfies [ready relay t] when the
    round starts, and under τ = 0 the events it emitted are applied
    before the next round.  Rounds stop when one fires nothing.  Firing transmission
    [k] calls [fire k], then for each live neighbour [j] of its relay
    (ascending id, {!Tveg.iter_neighbors_at}) queues the event
    [(t + τ, j, hear txs.(k) dist)]; a factor of exactly 1 changes no
    product and is not queued.  Events are applied by [receive j
    effective factor] in emission order, which is effective-time
    order.  After the last instant the events due by the deadline are
    applied.  Returns the indices of the transmissions never released,
    ascending. *)

val check : Problem.t -> Schedule.t -> report
(** Evolve node status under the schedule per Equation (6) with
    {!replay} and test the four decision-problem conditions (plus the
    cost-range sanity check).  A relay is informed once its p ≤ ε; a
    transmission never released violates (i). *)

val informed_count : report -> int
(** Nodes informed by the deadline (source included). *)

val delivery_ratio : report -> float
(** Fraction of nodes informed by the deadline (analytic, not
    Monte-Carlo — see [Simulate] for the empirical metric). *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable dump of a feasibility report: verdict, violations
    and the per-node receive times. *)
