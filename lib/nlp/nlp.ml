type problem = {
  objective : float array -> float;
  penalized : mu:float -> bound:float -> float array -> float;
  penalized_grad : mu:float -> float array -> float array;
  max_violation : float array -> float;
  lower : float array;
  upper : float array;
}

type constraint_fn = {
  g : float array -> float;
  g_grad : (float array -> float array) option;
  label : string;
}

type options = {
  mu_init : float;
  mu_growth : float;
  outer_iter : int;
  feas_tol : float;
  inner : Projgrad.options;
}

let default_options =
  {
    mu_init = 10.;
    mu_growth = 8.;
    outer_iter = 12;
    feas_tol = 1e-8;
    inner = { Projgrad.default_options with max_iter = 300 };
  }

type result = {
  x : float array;
  objective : float;
  max_violation : float;
  feasible : bool;
  outer_iterations : int;
}

(* Telemetry: penalty-method solves and their wall time (the inner
   projected-gradient work is timed separately as [nlp.projgrad]). *)
let c_solves = Tmedb_obs.Counter.make "nlp.solves"
let t_solve = Tmedb_obs.Timer.make "nlp.solve"

let of_constraints ?objective_grad ~objective ~lower ~upper constraints =
  let max_violation x =
    List.fold_left (fun acc c -> Float.max acc (Float.max 0. (c.g x))) 0. constraints
  in
  (* objective + mu·Σ max(0, g)², summed in constraint order.  Every
     term is >= 0 and mu > 0, and round-to-nearest addition and
     multiplication are monotone, so each partial value bounds the
     full value from below: once a partial value is past [bound] the
     full one is too, and returning it early meets
     {!Projgrad.minimize}'s bound contract.  A value that never passes
     [bound] is the full sum, bit-identical to an unbounded
     evaluation. *)
  let penalized ~mu ~bound x =
    if not (mu > 0.) then invalid_arg "Nlp.penalized: mu must be > 0";
    let objective = objective x in
    let rec sum violation_sq = function
      | [] -> objective +. (mu *. violation_sq)
      | c :: rest ->
          let v = Float.max 0. (c.g x) in
          let violation_sq = violation_sq +. (v *. v) in
          let value = objective +. (mu *. violation_sq) in
          if value > bound then value else sum violation_sq rest
    in
    sum 0. constraints
  in
  let penalized_grad ~mu x =
    let n = Array.length x in
    let base =
      match objective_grad with Some g -> g x | None -> Numdiff.gradient objective x
    in
    let grad = Array.copy base in
    List.iter
      (fun c ->
        let v = c.g x in
        if v > 0. then begin
          let cg = match c.g_grad with Some g -> g x | None -> Numdiff.gradient c.g x in
          for i = 0 to n - 1 do
            grad.(i) <- grad.(i) +. (2. *. mu *. v *. cg.(i))
          done
        end)
      constraints;
    grad
  in
  { objective; penalized; penalized_grad; max_violation; lower; upper }

let solve ?(options = default_options) problem ~x0 =
  Tmedb_obs.Counter.incr c_solves;
  let ts = Tmedb_obs.Timer.start t_solve in
  let mu = ref options.mu_init in
  let x = ref (Array.copy x0) in
  let outer = ref 0 in
  let finished = ref false in
  while (not !finished) && !outer < options.outer_iter do
    incr outer;
    let mu_now = !mu in
    let inner_result =
      Projgrad.minimize ~options:options.inner
        ~f:(problem.penalized ~mu:mu_now)
        ~grad:(problem.penalized_grad ~mu:mu_now)
        ~lower:problem.lower ~upper:problem.upper ~x0:!x ()
    in
    x := inner_result.Projgrad.x;
    if problem.max_violation !x <= options.feas_tol then finished := true
    else mu := !mu *. options.mu_growth
  done;
  let violation = problem.max_violation !x in
  Tmedb_obs.Timer.stop t_solve ts;
  {
    x = !x;
    objective = problem.objective !x;
    max_violation = violation;
    feasible = violation <= options.feas_tol;
    outer_iterations = !outer;
  }
