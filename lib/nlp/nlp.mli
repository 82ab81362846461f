(** Nonlinear programs with inequality constraints and box bounds,
    solved by a quadratic-penalty sequence of box-constrained
    subproblems (the "existing methods" [19] the paper defers to for
    its Equations 14–17).

    minimise f(x)  subject to  g_i(x) <= 0,  lower <= x <= upper. *)

type constraint_fn = {
  g : float array -> float;  (** Feasible iff <= 0. *)
  g_grad : (float array -> float array) option;
  label : string;
}

type problem = {
  objective : float array -> float;
  objective_grad : (float array -> float array) option;
  constraints : constraint_fn list;
  lower : float array;
  upper : float array;
}

type options = {
  mu_init : float;  (** Initial penalty weight. *)
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

val penalized : problem -> mu:float -> bound:float -> float array -> float
(** [penalized problem ~mu ~bound x] is the quadratic-penalty objective
    [objective x + mu * Σ max(0, g_i x)²] that {!solve} hands to
    {!Projgrad.minimize}, under that function's bound contract: when
    the value is [<= bound] the result is exactly it (bit-identical
    to [~bound:infinity]); otherwise the sum stops at the first
    constraint that takes it past [bound] and returns that partial
    value, which is [> bound].
    @raise Invalid_argument unless [mu > 0]. *)

val max_violation : problem -> float array -> float
(** Largest positive constraint value (0 when feasible). *)
