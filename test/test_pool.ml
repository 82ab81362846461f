(* Tests for the domain pool: parallel maps agree with sequential
   execution, exceptions propagate, nested use is safe, and the
   experiment stack (Monte-Carlo simulation, figure sweeps) is
   bit-identical at every worker count. *)

open Tmedb_prelude
open Tmedb

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_int_array = Alcotest.(check (array int))

let jobs_under_test = [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Pool mechanics *)

let test_map_matches_sequential () =
  let input = Array.init 257 (fun i -> i - 31) in
  let f x = (x * x) + (3 * x) in
  let expected = Array.map f input in
  List.iter
    (fun k ->
      Pool.with_pool ~num_domains:k (fun pool ->
          check_int "advertised size" k (Pool.num_domains pool);
          check_int_array
            (Printf.sprintf "map jobs=%d" k)
            expected (Pool.parallel_map pool f input);
          check_int_array
            (Printf.sprintf "chunked jobs=%d" k)
            expected
            (Pool.parallel_map_chunked pool f input);
          check_int_array
            (Printf.sprintf "chunk=3 jobs=%d" k)
            expected
            (Pool.parallel_map_chunked ~chunk:3 pool f input)))
    jobs_under_test

let test_parallel_init () =
  Pool.with_pool ~num_domains:4 (fun pool ->
      check_int_array "init" (Array.init 100 (fun i -> 2 * i))
        (Pool.parallel_init pool 100 (fun i -> 2 * i));
      check_int_array "empty" [||] (Pool.parallel_init pool 0 (fun i -> i)))

let test_option_dispatch () =
  let input = Array.init 17 Fun.id in
  check_int_array "no pool" (Array.map succ input) (Pool.map None succ input);
  Pool.with_pool ~num_domains:2 (fun pool ->
      check_int_array "some pool" (Array.map succ input) (Pool.map (Some pool) succ input);
      check_int_array "some pool chunked" (Array.map succ input)
        (Pool.map_chunked ~chunk:4 (Some pool) succ input))

exception Boom of int

let test_exception_propagates () =
  List.iter
    (fun k ->
      Pool.with_pool ~num_domains:k (fun pool ->
          Alcotest.check_raises
            (Printf.sprintf "raises jobs=%d" k)
            (Boom 37)
            (fun () ->
              ignore
                (Pool.parallel_map pool
                   (fun i -> if i = 37 then raise (Boom 37) else i)
                   (Array.init 64 Fun.id)));
          (* The pool survives a failed batch. *)
          check_int "usable after failure" 10 (Pool.parallel_map pool (fun x -> x + 1) [| 9 |]).(0)))
    jobs_under_test

let test_nested_use () =
  Pool.with_pool ~num_domains:4 (fun pool ->
      let inner i =
        Array.fold_left ( + ) 0 (Pool.parallel_map pool (fun j -> i * j) (Array.init 32 Fun.id))
      in
      let result = Pool.parallel_map pool inner (Array.init 16 Fun.id) in
      let expected =
        Array.init 16 (fun i ->
            Array.fold_left ( + ) 0 (Array.init 32 (fun j -> i * j)))
      in
      check_int_array "nested map" expected result)

let test_create_validation () =
  check_bool "heuristic positive" true (Pool.default_num_domains () >= 1);
  Alcotest.check_raises "zero domains" (Invalid_argument "Pool.create: num_domains 0 < 1")
    (fun () -> ignore (Pool.create ~num_domains:0 ()))

(* ------------------------------------------------------------------ *)
(* Determinism of the experiment stack across worker counts *)

let tiny =
  {
    Experiment.default_config with
    Experiment.n = 8;
    horizon = 5000.;
    deadline = 1200.;
    sources = 1;
    mc_trials = 40;
    dts_cap = 400;
  }

let float_opt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Float.equal x y
  | None, Some _ | Some _, None -> false

let test_simulate_bit_identical () =
  let trace = Experiment.make_trace tiny ~n:8 in
  let problem =
    Experiment.make_problem tiny ~trace ~channel:`Rayleigh ~source:0 ~deadline:1200.
  in
  let schedule =
    (Greedy.plan (Planner.Ctx.make ~cap_per_node:400 ()) problem).Planner.Outcome.schedule
  in
  let run pool =
    Simulate.run ~trials:200 ?pool ~rng:(Rng.create 7) ~eval_channel:`Rayleigh problem schedule
  in
  let reference = run None in
  List.iter
    (fun k ->
      Pool.with_pool ~num_domains:k (fun pool ->
          let r = run (Some pool) in
          let tag field = Printf.sprintf "%s jobs=%d" field k in
          check_bool (tag "delivery") true
            (Float.equal reference.Simulate.delivery_ratio r.Simulate.delivery_ratio);
          check_bool (tag "stddev") true
            (Float.equal reference.Simulate.delivery_stddev r.Simulate.delivery_stddev);
          check_bool (tag "full rate") true
            (Float.equal reference.Simulate.full_delivery_rate r.Simulate.full_delivery_rate);
          check_bool (tag "energy") true
            (Float.equal reference.Simulate.mean_energy_spent r.Simulate.mean_energy_spent);
          check_bool (tag "completion") true
            (float_opt_equal reference.Simulate.mean_completion_time
               r.Simulate.mean_completion_time)))
    jobs_under_test

let test_fig4_bit_identical () =
  let run pool =
    Experiment.fig4 ~config:tiny ?pool ~variant:`Static ~deadlines:[ 800.; 1200. ] ~ns:[ 6; 8 ]
      ()
  in
  let reference = run None in
  check_bool "reference is non-trivial" true
    (List.exists (fun s -> s.Experiment.points <> []) reference);
  List.iter
    (fun k ->
      Pool.with_pool ~num_domains:k (fun pool ->
          (* Structural equality covers labels and every (x, y) float. *)
          check_bool (Printf.sprintf "fig4 jobs=%d" k) true (run (Some pool) = reference)))
    jobs_under_test

(* Fig. 5 exercises the warm chains (fading variant → FR planners →
   warm-started NLP): its values must still not depend on the worker
   count, since each (algorithm, source) chain is one pool task.  The
   reference series itself is pinned by a digest recorded before the
   NLP's objective evaluation was reworked: it is the one golden that
   runs the Barzilai–Borwein (nonmonotone) acceptance branch. *)
let test_fig5_bit_identical () =
  let run pool =
    Experiment.fig5 ~config:tiny ?pool ~variant:`Fading ~deadlines:[ 800.; 1200. ] ()
  in
  let reference = run None in
  check_bool "reference is non-trivial" true
    (List.exists (fun s -> s.Experiment.points <> []) reference);
  Alcotest.(check string)
    "reference digest" "453e69f7e90960a25aeb7ee5a968033f"
    (Digest.to_hex (Digest.string (Marshal.to_string reference [])));
  List.iter
    (fun k ->
      Pool.with_pool ~num_domains:k (fun pool ->
          check_bool (Printf.sprintf "fig5 jobs=%d" k) true (run (Some pool) = reference)))
    jobs_under_test

(* Warm-starting trades the cold multi-start for the previous point's
   allocation: over a deadline chain the energies must stay close to
   the cold run (both are feasible local optima of the same NLP), and
   the warm chain must not be wildly worse. *)
let test_warm_chain_close_to_cold () =
  let trace = Experiment.make_trace tiny ~n:8 in
  let deadlines = [ 900.; 1100.; 1300. ] in
  let algorithm =
    match Experiment.algorithm_of_string "FR-GREED" with Ok a -> a | Error e -> failwith e
  in
  let energies warm =
    List.map
      (fun deadline ->
        let rng = Rng.create 23 in
        (Experiment.run_alg ?warm tiny ~trace ~source:0 ~deadline ~rng algorithm)
          .Experiment.energy)
      deadlines
  in
  let cold = energies None in
  let warm = energies (Some (Planner.Warm.create ())) in
  check_bool "cold energies positive" true (List.for_all (fun e -> e > 0.) cold);
  List.iter2
    (fun c w ->
      check_bool
        (Printf.sprintf "warm %.6g within 10%% of cold %.6g" w c)
        true
        (Float.abs (w -. c) <= 0.10 *. Float.abs c))
    cold warm

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "pool"
    [
      ( "pool",
        [
          tc "map matches sequential" test_map_matches_sequential;
          tc "parallel init" test_parallel_init;
          tc "option dispatch" test_option_dispatch;
          tc "exception propagates" test_exception_propagates;
          tc "nested use" test_nested_use;
          tc "create validation" test_create_validation;
        ] );
      ( "determinism",
        [
          slow "Simulate.run bit-identical" test_simulate_bit_identical;
          slow "Experiment.fig4 bit-identical" test_fig4_bit_identical;
          slow "Experiment.fig5 bit-identical" test_fig5_bit_identical;
        ] );
      ("warm-start", [ slow "warm chain close to cold" test_warm_chain_close_to_cold ]);
    ]
