(* Tests for tmedb_nlp: numeric differentiation, bisection, projected
   gradient descent and the penalty-method NLP solver. *)

open Tmedb_nlp

let check_bool = Alcotest.(check bool)
let close ?(tol = 1e-6) msg a b =
  Alcotest.(check bool) (Printf.sprintf "%s (%.10g vs %.10g)" msg a b) true
    (Float.abs (a -. b) <= tol *. Float.max 1. (Float.max (Float.abs a) (Float.abs b)))

(* ------------------------------------------------------------------ *)
(* Numdiff *)

let test_numdiff_quadratic () =
  let f x = (x.(0) *. x.(0)) +. (3. *. x.(1)) in
  let g = Numdiff.gradient f [| 2.; 5. |] in
  close "df/dx0" 4. g.(0);
  close "df/dx1" 3. g.(1)

let test_numdiff_scales_with_magnitude () =
  let f x = x.(0) *. x.(0) in
  let g = Numdiff.gradient f [| 1e6 |] in
  close ~tol:1e-4 "large magnitude" 2e6 g.(0)

let test_numdiff_directional () =
  let f x = x.(0) +. (2. *. x.(1)) in
  close "directional" 5. (Numdiff.directional f [| 0.; 0. |] ~dir:[| 1.; 2. |]);
  close "zero direction" 0. (Numdiff.directional f [| 0.; 0. |] ~dir:[| 0.; 0. |])

(* ------------------------------------------------------------------ *)
(* Bisect *)

let test_bisect_root () =
  (match Bisect.root (fun x -> (x *. x) -. 2.) ~lo:0. ~hi:2. with
  | Some r -> close ~tol:1e-9 "sqrt 2" (sqrt 2.) r
  | None -> Alcotest.fail "expected root");
  check_bool "no bracket" true (Bisect.root (fun x -> x +. 10.) ~lo:0. ~hi:1. = None)

let test_bisect_root_at_end () =
  match Bisect.root (fun x -> x) ~lo:0. ~hi:1. with
  | Some r -> close "root at lo" 0. r
  | None -> Alcotest.fail "expected root"

let test_bisect_least_satisfying () =
  (match Bisect.least_satisfying (fun x -> x >= 3.) ~lo:0. ~hi:10. with
  | Some x -> close ~tol:1e-9 "threshold" 3. x
  | None -> Alcotest.fail "expected threshold");
  check_bool "never satisfied" true (Bisect.least_satisfying (fun _ -> false) ~lo:0. ~hi:1. = None);
  Alcotest.(check (option (float 1e-12))) "immediately satisfied" (Some 0.)
    (Bisect.least_satisfying (fun _ -> true) ~lo:0. ~hi:1.)

(* ------------------------------------------------------------------ *)
(* Projgrad *)

(* An objective that ignores [Projgrad.minimize]'s cutoff, which always
   meets the bound contract. *)
let unbounded f ~bound:_ x = f x

let test_projgrad_unconstrained_quadratic () =
  let f x = ((x.(0) -. 3.) ** 2.) +. ((x.(1) +. 1.) ** 2.) in
  let r =
    Projgrad.minimize ~f:(unbounded f) ~lower:[| -10.; -10. |] ~upper:[| 10.; 10. |]
      ~x0:[| 0.; 0. |] ()
  in
  close ~tol:1e-4 "x0 -> 3" 3. r.Projgrad.x.(0);
  close ~tol:1e-4 "x1 -> -1" (-1.) r.Projgrad.x.(1);
  check_bool "converged" true r.Projgrad.converged

let test_projgrad_active_bound () =
  (* Unconstrained optimum at x = 5; box caps at 2. *)
  let f x = (x.(0) -. 5.) ** 2. in
  let r = Projgrad.minimize ~f:(unbounded f) ~lower:[| 0. |] ~upper:[| 2. |] ~x0:[| 1. |] () in
  close ~tol:1e-6 "clamped" 2. r.Projgrad.x.(0)

let test_projgrad_projects_x0 () =
  let f x = x.(0) ** 2. in
  let r = Projgrad.minimize ~f:(unbounded f) ~lower:[| 1. |] ~upper:[| 3. |] ~x0:[| 100. |] () in
  check_bool "stays in box" true (1. <= r.Projgrad.x.(0) && r.Projgrad.x.(0) <= 3.);
  close ~tol:1e-6 "lands on lower bound" 1. r.Projgrad.x.(0)

let test_projgrad_analytic_gradient () =
  let f x = (x.(0) ** 2.) +. (x.(1) ** 2.) in
  let grad x = [| 2. *. x.(0); 2. *. x.(1) |] in
  let r =
    Projgrad.minimize ~f:(unbounded f) ~grad ~lower:[| -5.; -5. |] ~upper:[| 5.; 5. |]
      ~x0:[| 3.; -4. |] ()
  in
  close ~tol:1e-5 "origin x" 0. r.Projgrad.x.(0);
  close ~tol:1e-5 "origin y" 0. r.Projgrad.x.(1)

let test_projgrad_rosenbrock_descends () =
  (* Not required to reach the optimum, but must strictly improve. *)
  let f x =
    (100. *. ((x.(1) -. (x.(0) ** 2.)) ** 2.)) +. ((1. -. x.(0)) ** 2.)
  in
  let x0 = [| -1.2; 1. |] in
  let r = Projgrad.minimize ~f:(unbounded f) ~lower:[| -2.; -2. |] ~upper:[| 2.; 2. |] ~x0 () in
  check_bool "improved" true (r.Projgrad.f < f x0)

let test_projgrad_bb_matches_monotone () =
  (* An ill-conditioned quadratic: the spectral step must reach the
     same minimiser as the monotone search, in no more iterations. *)
  let f x = (50. *. ((x.(0) -. 3.) ** 2.)) +. ((x.(1) +. 1.) ** 2.) in
  let grad x = [| 100. *. (x.(0) -. 3.); 2. *. (x.(1) +. 1.) |] in
  let solve bb =
    Projgrad.minimize
      ~options:{ Projgrad.default_options with Projgrad.bb }
      ~f:(unbounded f) ~grad ~lower:[| -10.; -10. |] ~upper:[| 10.; 10. |] ~x0:[| 0.; 0. |] ()
  in
  let plain = solve false and bb = solve true in
  close ~tol:1e-4 "bb x0 -> 3" 3. bb.Projgrad.x.(0);
  close ~tol:1e-4 "bb x1 -> -1" (-1.) bb.Projgrad.x.(1);
  check_bool "bb converged" true bb.Projgrad.converged;
  check_bool
    (Printf.sprintf "bb no slower (%d vs %d iterations)" bb.Projgrad.iterations
       plain.Projgrad.iterations)
    true
    (bb.Projgrad.iterations <= plain.Projgrad.iterations)

let test_projgrad_bb_respects_bounds () =
  (* Nonmonotone acceptance must still project every iterate. *)
  let f x = (x.(0) -. 5.) ** 2. in
  let r =
    Projgrad.minimize
      ~options:{ Projgrad.default_options with Projgrad.bb = true }
      ~f:(unbounded f) ~lower:[| 0. |] ~upper:[| 2. |] ~x0:[| 1. |] ()
  in
  check_bool "stays in box" true (0. <= r.Projgrad.x.(0) && r.Projgrad.x.(0) <= 2.);
  close ~tol:1e-6 "clamped" 2. r.Projgrad.x.(0)

let test_projgrad_dimension_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Projgrad.minimize: dimension mismatch")
    (fun () ->
      ignore
        (Projgrad.minimize ~f:(unbounded (fun _ -> 0.)) ~lower:[| 0. |] ~upper:[| 1.; 2. |]
           ~x0:[| 0. |] ()))

(* ------------------------------------------------------------------ *)
(* Nlp (penalty solver) *)

(* min x + y over 0 <= x,y <= 1, under [constraints]. *)
let simple_with constraints =
  Nlp.of_constraints
    ~objective:(fun x -> x.(0) +. x.(1))
    ~objective_grad:(fun _ -> [| 1.; 1. |])
    ~lower:[| 0.; 0. |] ~upper:[| 1.; 1. |] constraints

let simple_problem =
  (* min x + y  s.t.  x + y >= 1 (i.e. 1 - x - y <= 0), 0 <= x,y <= 1 *)
  simple_with
    [ { Nlp.g = (fun x -> 1. -. x.(0) -. x.(1)); g_grad = Some (fun _ -> [| -1.; -1. |]);
        label = "sum" } ]

let test_nlp_linear_with_constraint () =
  let r = Nlp.solve simple_problem ~x0:[| 1.; 1. |] in
  check_bool "feasible" true r.Nlp.feasible;
  close ~tol:1e-3 "objective = 1" 1. r.Nlp.objective

let test_nlp_infeasible_reported () =
  (* x <= 1 but constraint demands x >= 2: impossible. *)
  let p =
    Nlp.of_constraints
      ~objective:(fun x -> x.(0))
      ~lower:[| 0. |] ~upper:[| 1. |]
      [ { Nlp.g = (fun x -> 2. -. x.(0)); g_grad = None; label = "impossible" } ]
  in
  let r = Nlp.solve p ~x0:[| 0.5 |] in
  check_bool "infeasible" false r.Nlp.feasible;
  check_bool "violation positive" true (r.Nlp.max_violation > 0.9)

let test_nlp_already_feasible () =
  let r = Nlp.solve (simple_with []) ~x0:[| 0.7; 0.7 |] in
  check_bool "feasible" true r.Nlp.feasible;
  close ~tol:1e-4 "unconstrained minimum at box corner" 0. r.Nlp.objective

let test_nlp_max_violation () =
  let x = [| 0.; 0. |] in
  close "violation" 1. (simple_problem.Nlp.max_violation x);
  close "none when satisfied" 0. (simple_problem.Nlp.max_violation [| 1.; 1. |])

let test_nlp_circle_constraint () =
  (* min x+y s.t. x^2 + y^2 >= 1 inside [0,2]^2: optimum on the circle,
     objective = sqrt 2 at the symmetric point... actually minimum of
     x+y subject to being outside the unit circle is 1 (corner (1,0) or
     (0,1)).  Accept anything feasible with objective <= 1.05. *)
  let p =
    Nlp.of_constraints
      ~objective:(fun x -> x.(0) +. x.(1))
      ~objective_grad:(fun _ -> [| 1.; 1. |])
      ~lower:[| 0.; 0. |] ~upper:[| 2.; 2. |]
      [ { Nlp.g = (fun x -> 1. -. ((x.(0) ** 2.) +. (x.(1) ** 2.)));
          g_grad = Some (fun x -> [| -2. *. x.(0); -2. *. x.(1) |]); label = "circle" } ]
  in
  let r = Nlp.solve p ~x0:[| 2.; 2. |] in
  check_bool "feasible" true r.Nlp.feasible;
  check_bool "near optimal" true (r.Nlp.objective <= 1.45)

(* Property: penalty solutions are always inside the box. *)
let prop_nlp_in_box =
  QCheck.Test.make ~name:"solutions within the box" ~count:50
    (QCheck.pair (QCheck.float_range 0. 1.) (QCheck.float_range 0. 1.)) (fun (a, b) ->
      let r = Nlp.solve simple_problem ~x0:[| a; b |] in
      Array.for_all (fun x -> -1e-12 <= x && x <= 1. +. 1e-12) r.Nlp.x)

(* ------------------------------------------------------------------ *)
(* The bound contract between Projgrad and the penalty objective *)

(* A random box-constrained penalty problem: a positive linear
   objective under covering constraints b - Σ a_j x_j <= 0, some with
   squared variables, and a penalty weight spanning the solver's
   schedule (10 up to 10·8^6). *)
type penalty_case = {
  weights : float array;
  rows : (float array * float * bool) list;  (** (a, b, squared) *)
  mu : float;
  lower : float array;
  upper : float array;
  x0 : float array;
}

let gen_penalty_case =
  let open QCheck.Gen in
  int_range 1 4 >>= fun n ->
  let vec lo hi = array_size (return n) (float_range lo hi) in
  vec 0.1 2. >>= fun weights ->
  list_size (int_range 1 6) (triple (vec 0. 2.) (float_range 0. 3.) bool) >>= fun rows ->
  float_range 1. 7. >>= fun log_mu ->
  vec (-1.) 1. >>= fun lower ->
  vec 0. 3. >>= fun width ->
  vec (-2.) 4. >>= fun x0 ->
  return { weights; rows; mu = 10. ** log_mu; lower; upper = Array.map2 ( +. ) lower width; x0 }

let print_penalty_case c =
  let vec v = String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") v)) in
  Printf.sprintf "weights [%s] mu %h lower [%s] upper [%s] x0 [%s] rows %s" (vec c.weights) c.mu
    (vec c.lower) (vec c.upper) (vec c.x0)
    (String.concat " "
       (List.map (fun (a, b, sq) -> Printf.sprintf "([%s] %h %b)" (vec a) b sq) c.rows))

let penalty_problem c =
  let row (a, b, squared) x =
    let acc = ref b in
    Array.iteri (fun j aj -> acc := !acc -. (aj *. if squared then x.(j) *. x.(j) else x.(j))) a;
    !acc
  in
  Nlp.of_constraints
    ~objective:(fun x ->
      let acc = ref 0. in
      Array.iteri (fun j w -> acc := !acc +. (w *. x.(j))) c.weights;
      !acc)
    ~lower:c.lower ~upper:c.upper
    (List.map (fun r -> { Nlp.g = row r; g_grad = None; label = "row" }) c.rows)

let arb_penalty_case = QCheck.make ~print:print_penalty_case gen_penalty_case
let bits = Int64.bits_of_float

let prop_bound_keeps_iterates =
  QCheck.Test.make ~name:"honouring the bound keeps iterates bit-identical" ~count:200
    arb_penalty_case (fun c ->
      let problem = penalty_problem c in
      List.for_all
        (fun bb ->
          let run f =
            Projgrad.minimize
              ~options:{ Projgrad.default_options with Projgrad.max_iter = 60; bb }
              ~f ~lower:c.lower ~upper:c.upper ~x0:c.x0 ()
          in
          let honoured = run (problem.Nlp.penalized ~mu:c.mu) in
          let ignored =
            run (fun ~bound:_ x -> problem.Nlp.penalized ~mu:c.mu ~bound:Float.infinity x)
          in
          Array.for_all2 (fun a b -> bits a = bits b) honoured.Projgrad.x ignored.Projgrad.x
          && bits honoured.Projgrad.f = bits ignored.Projgrad.f
          && honoured.Projgrad.iterations = ignored.Projgrad.iterations
          && honoured.Projgrad.converged = ignored.Projgrad.converged)
        [ false; true ])

(* The contract itself: exact at or below the bound, above it
   otherwise.  Bounds are drawn across the range the partial sums
   cover, so the early return fires at every constraint position. *)
let prop_penalized_contract =
  QCheck.Test.make ~name:"penalized meets the bound contract" ~count:500
    (QCheck.triple arb_penalty_case (QCheck.float_range 0. 1.) (QCheck.float_range (-0.2) 1.2))
    (fun (c, s, t) ->
      let problem = penalty_problem c in
      let x = Array.mapi (fun j lo -> lo +. (s *. (c.upper.(j) -. lo))) c.lower in
      let full = problem.Nlp.penalized ~mu:c.mu ~bound:Float.infinity x in
      let base = problem.Nlp.objective x in
      let bound = base +. (t *. (full -. base)) in
      let r = problem.Nlp.penalized ~mu:c.mu ~bound x in
      if full <= bound then bits r = bits full else r > bound)

let test_penalized_stops_past_bound () =
  let p =
    Nlp.of_constraints
      ~objective:(fun _ -> 0.)
      ~lower:[| 0.; 0. |] ~upper:[| 1.; 1. |]
      [
        { Nlp.g = (fun _ -> 1.); g_grad = None; label = "first" };
        { Nlp.g = (fun _ -> failwith "summed past the bound"); g_grad = None; label = "second" };
      ]
  in
  close "partial value" 1. (p.Nlp.penalized ~mu:1. ~bound:0.5 [| 0.; 0. |]);
  Alcotest.check_raises "mu > 0" (Invalid_argument "Nlp.penalized: mu must be > 0") (fun () ->
      ignore (simple_problem.Nlp.penalized ~mu:0. ~bound:Float.infinity [| 0.; 0. |]))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "nlp"
    [
      ( "numdiff",
        [
          tc "quadratic" test_numdiff_quadratic;
          tc "scales" test_numdiff_scales_with_magnitude;
          tc "directional" test_numdiff_directional;
        ] );
      ( "bisect",
        [
          tc "root" test_bisect_root;
          tc "root at end" test_bisect_root_at_end;
          tc "least satisfying" test_bisect_least_satisfying;
        ] );
      ( "projgrad",
        [
          tc "unconstrained quadratic" test_projgrad_unconstrained_quadratic;
          tc "active bound" test_projgrad_active_bound;
          tc "projects x0" test_projgrad_projects_x0;
          tc "analytic gradient" test_projgrad_analytic_gradient;
          tc "rosenbrock descends" test_projgrad_rosenbrock_descends;
          tc "bb matches monotone" test_projgrad_bb_matches_monotone;
          tc "bb respects bounds" test_projgrad_bb_respects_bounds;
          tc "dimension mismatch" test_projgrad_dimension_mismatch;
        ] );
      ( "nlp",
        [
          tc "linear with constraint" test_nlp_linear_with_constraint;
          tc "infeasible reported" test_nlp_infeasible_reported;
          tc "already feasible" test_nlp_already_feasible;
          tc "max violation" test_nlp_max_violation;
          tc "circle constraint" test_nlp_circle_constraint;
          QCheck_alcotest.to_alcotest prop_nlp_in_box;
        ] );
      ( "bound",
        [
          tc "stops past the bound" test_penalized_stops_past_bound;
          QCheck_alcotest.to_alcotest prop_penalized_contract;
          QCheck_alcotest.to_alcotest prop_bound_keeps_iterates;
        ] );
    ]
