(** Nonlinear programs with inequality constraints and box bounds,
    solved by a quadratic-penalty sequence of box-constrained
    subproblems (the "existing methods" [19] the paper defers to for
    its Equations 14–17).

    minimise f(x)  subject to  g_i(x) <= 0,  lower <= x <= upper.

    {!solve} reads a problem only through the four functions of
    {!problem}, so a caller with structure (the FR allocation's rows,
    {!Tmedb.Fr}) evaluates them its own way; {!of_constraints} builds
    them from a list of constraint closures. *)

type problem = {
  objective : float array -> float;  (** f. *)
  penalized : mu:float -> bound:float -> float array -> float;
      (** [penalized ~mu ~bound x] is the quadratic-penalty objective
          [f x + mu * Σ max(0, g_i x)²] that {!solve} hands to
          {!Projgrad.minimize}, under that function's bound contract:
          when the value is [<= bound] the result is exactly it
          (bit-identical to [~bound:infinity]); otherwise it is any
          value [> bound].  {!solve} passes [mu > 0] only. *)
  penalized_grad : mu:float -> float array -> float array;
      (** Gradient of [penalized] in x. *)
  max_violation : float array -> float;
      (** Largest positive constraint value (0 when feasible). *)
  lower : float array;
  upper : float array;
}

type constraint_fn = {
  g : float array -> float;  (** Feasible iff <= 0. *)
  g_grad : (float array -> float array) option;
  label : string;
}

val of_constraints :
  ?objective_grad:(float array -> float array) ->
  objective:(float array -> float) ->
  lower:float array ->
  upper:float array ->
  constraint_fn list ->
  problem
(** The problem over the listed constraints, each evaluated through
    its closures.  [penalized] sums the constraints in list order and
    stops at the first one that takes the partial value past [bound],
    returning that partial value; it raises [Invalid_argument] unless
    [mu > 0].  Missing gradients fall back to central differences. *)

type options = {
  mu_init : float;  (** Initial penalty weight (> 0). *)
  mu_growth : float;  (** Multiplier per outer iteration (> 1). *)
  outer_iter : int;
  feas_tol : float;  (** Constraint violation tolerance. *)
  inner : Projgrad.options;
}

val default_options : options

type result = {
  x : float array;
  objective : float;
  max_violation : float;
  feasible : bool;  (** max_violation <= feas_tol. *)
  outer_iterations : int;
}

val solve : ?options:options -> problem -> x0:float array -> result
(** Penalty loop: minimise [penalized] at [mu_init], [mu_init ·
    mu_growth], ... with {!Projgrad.minimize} from the last iterate
    until [max_violation <= feas_tol] or [outer_iter] rounds. *)
