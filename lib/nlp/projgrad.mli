(** Box-constrained smooth minimisation by projected gradient descent
    with backtracking (Armijo) line search, optionally accelerated by
    Barzilai–Borwein spectral steps. *)

type options = {
  max_iter : int;
  grad_tol : float;  (** Stop when the projected gradient norm falls below. *)
  step_init : float;
  step_shrink : float;  (** Backtracking factor in (0,1). *)
  armijo : float;  (** Sufficient-decrease constant in (0,1). *)
  bb : bool;
      (** Seed each backtracking search with the Barzilai–Borwein
          (BB1) spectral step and accept against a nonmonotone
          reference (the worst of the last few accepted values)
          instead of the strictly monotone Armijo test.  Off by
          default: the default path is bit-identical to the classic
          monotone search, which the figure goldens pin.  Used by the
          warm-started FR allocation ({!Tmedb.Fr}), where the spectral
          step cuts iteration counts severalfold near a warm start. *)
}

val default_options : options

type result = {
  x : float array;
  f : float;
  iterations : int;
  converged : bool;  (** Projected-gradient criterion met. *)
}

val minimize :
  ?options:options ->
  f:(bound:float -> float array -> float) ->
  ?grad:(float array -> float array) ->
  lower:float array ->
  upper:float array ->
  x0:float array ->
  unit ->
  result
(** Gradient defaults to central differences.  [x0] is projected into
    the box before starting.

    [f ~bound x] is the objective under a cutoff.  The contract: when
    the true value at [x] is [<= bound] the result is exactly that
    value; otherwise it is any value [> bound].  Each backtracking try
    passes the tightest bound its accept test needs, so an objective
    that stops summing once it is past [bound] changes no iterate.  An
    objective that ignores [bound] always meets the contract.  The
    first evaluation and the central-difference gradient pass
    [infinity].
    @raise Invalid_argument on dimension mismatch or an empty box. *)
