(* Tests for the time–energy Pareto engine: grid construction and
   validation, the dominance marking, and the sweep itself — shared
   solve state vs independent one-shot solves, worker-count
   invariance, and the solve-state compatibility check. *)

open Tmedb
open Tmedb_prelude

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_floats = Alcotest.(check (list (float 1e-9)))

let alg name =
  match Experiment.algorithm_of_string name with
  | Ok a -> a
  | Error e -> Alcotest.fail e

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let ok_or_fail = function Ok v -> v | Error e -> Alcotest.fail e

let expect_error label sub = function
  | Ok _ -> Alcotest.fail (label ^ ": expected an error")
  | Error e -> check_bool (label ^ ": mentions " ^ sub) true (contains e sub)

(* ------------------------------------------------------------------ *)
(* Grid *)

let test_grid_of_list () =
  check_floats "ascending list accepted" [ 1.; 2.; 3.5 ]
    (ok_or_fail (Pareto.Grid.of_list [ 1.; 2.; 3.5 ]));
  expect_error "empty" "empty" (Pareto.Grid.of_list []);
  expect_error "descending" "ascending" (Pareto.Grid.of_list [ 3.; 2. ]);
  expect_error "duplicate" "ascending" (Pareto.Grid.of_list [ 2.; 2. ]);
  expect_error "non-positive" "positive" (Pareto.Grid.of_list [ 0.; 1. ]);
  expect_error "nan" "NaN" (Pareto.Grid.of_list [ 1.; Float.nan ]);
  expect_error "infinite" "finite" (Pareto.Grid.of_list [ 1.; Float.infinity ])

let test_grid_of_range () =
  check_floats "endpoint on the grid" [ 1.; 2.; 3. ]
    (ok_or_fail (Pareto.Grid.of_range ~lo:1. ~hi:3. ~step:1.));
  check_floats "endpoint off the grid" [ 1.; 2. ]
    (ok_or_fail (Pareto.Grid.of_range ~lo:1. ~hi:2.5 ~step:1.));
  check_floats "single point" [ 4. ] (ok_or_fail (Pareto.Grid.of_range ~lo:4. ~hi:4. ~step:1.));
  expect_error "descending" "descending" (Pareto.Grid.of_range ~lo:6000. ~hi:2000. ~step:500.);
  expect_error "zero step" "step" (Pareto.Grid.of_range ~lo:1. ~hi:10. ~step:0.);
  expect_error "negative step" "step" (Pareto.Grid.of_range ~lo:1. ~hi:10. ~step:(-1.));
  expect_error "non-positive lo" "positive" (Pareto.Grid.of_range ~lo:0. ~hi:10. ~step:1.);
  expect_error "too many points" "points" (Pareto.Grid.of_range ~lo:1. ~hi:1e9 ~step:1e-3)

let test_grid_parse () =
  check_floats "range spec" [ 2000.; 4000.; 6000. ]
    (ok_or_fail (Pareto.Grid.parse_range "2000:6000:2000"));
  expect_error "two fields" "LO:HI:STEP" (Pareto.Grid.parse_range "2000:6000");
  expect_error "four fields" "LO:HI:STEP" (Pareto.Grid.parse_range "1:2:3:4");
  expect_error "not a number" "number" (Pareto.Grid.parse_range "a:2:3");
  expect_error "nan field" "NaN" (Pareto.Grid.parse_range "nan:2:3");
  expect_error "descending range" "descending" (Pareto.Grid.parse_range "6000:2000:500");
  check_floats "list spec" [ 1.5; 3. ] (ok_or_fail (Pareto.Grid.parse_list "1.5,3"));
  expect_error "descending list" "ascending" (Pareto.Grid.parse_list "3000,2000");
  expect_error "list junk" "number" (Pareto.Grid.parse_list "1,x")

(* ------------------------------------------------------------------ *)
(* Dominance *)

let mk ?(unreached = 0) ?(feasible = true) deadline energy =
  {
    Pareto.deadline;
    energy;
    transmissions = 1;
    feasible;
    unreached;
    dominated = false;
  }

let test_dominates () =
  let a = mk 1000. 5. and b = mk 2000. 7. in
  check_bool "earlier and cheaper dominates" true (Pareto.dominates a b);
  check_bool "later and dearer does not" false (Pareto.dominates b a);
  check_bool "no self-domination" false (Pareto.dominates a a);
  let c = mk 1000. 7. in
  check_bool "same energy, earlier deadline dominates" true (Pareto.dominates a c);
  check_bool "same deadline, cheaper dominates" true (Pareto.dominates (mk 2000. 5.) b);
  check_bool "incomplete never dominates" false (Pareto.dominates (mk ~unreached:2 500. 1.) b)

let test_mark_dominated () =
  (* 1000/5 dominates 2000/7; the incomplete point is dominated by
     definition; 3000/2 survives (latest but cheapest). *)
  let pts = [ mk 1000. 5.; mk 2000. 7.; mk ~unreached:1 2500. 1.; mk 3000. 2. ] in
  let marked = Pareto.mark_dominated pts in
  let flags = List.map (fun p -> p.Pareto.dominated) marked in
  check_bool "flags" true (flags = [ false; true; true; false ]);
  check_floats "order and fields preserved" (List.map (fun p -> p.Pareto.deadline) pts)
    (List.map (fun p -> p.Pareto.deadline) marked)

(* ------------------------------------------------------------------ *)
(* Sweep *)

let tiny =
  {
    Experiment.default_config with
    Experiment.n = 10;
    horizon = 6000.;
    deadline = 1500.;
    sources = 1;
  }

let tiny_problem ~channel =
  let trace = Experiment.make_trace tiny ~n:tiny.Experiment.n in
  Experiment.make_problem tiny ~trace ~channel ~source:0 ~deadline:tiny.Experiment.deadline

let grid = [ 1500.; 3000.; 4500. ]

let point_equal (a : Pareto.point) (b : Pareto.point) =
  Float.equal a.Pareto.deadline b.Pareto.deadline
  && Float.equal a.Pareto.energy b.Pareto.energy
  && a.Pareto.transmissions = b.Pareto.transmissions
  && Bool.equal a.Pareto.feasible b.Pareto.feasible
  && a.Pareto.unreached = b.Pareto.unreached
  && Bool.equal a.Pareto.dominated b.Pareto.dominated

let sweep_equal label a b =
  check_int (label ^ ": point count") (List.length a.Pareto.points) (List.length b.Pareto.points);
  check_bool (label ^ ": points equal") true
    (List.for_all2 point_equal a.Pareto.points b.Pareto.points);
  check_floats (label ^ ": front equal") a.Pareto.front b.Pareto.front

let test_sweep_shared_matches_independent () =
  List.iter
    (fun (name, channel) ->
      let p = tiny_problem ~channel in
      let planner = alg name in
      let shared = Pareto.sweep ~planner ~deadlines:grid p in
      let indep = Pareto.sweep ~share:false ~planner ~deadlines:grid p in
      sweep_equal (name ^ " shared vs independent") shared indep)
    [ ("EEDCB", `Rayleigh); ("SPT", `Static) ]

let test_sweep_consistency () =
  let r = Pareto.sweep ~planner:(alg "SPT") ~deadlines:grid (tiny_problem ~channel:`Static) in
  check_floats "one point per grid deadline" grid
    (List.map (fun p -> p.Pareto.deadline) r.Pareto.points);
  (* The marking is a pure function of the point values. *)
  let remarked = Pareto.mark_dominated r.Pareto.points in
  check_bool "marking is a fixpoint" true (List.for_all2 point_equal r.Pareto.points remarked);
  check_floats "front = non-dominated deadlines" r.Pareto.front
    (List.filter_map
       (fun p -> if p.Pareto.dominated then None else Some p.Pareto.deadline)
       r.Pareto.points)

let test_sweep_jobs_invariant () =
  let p = tiny_problem ~channel:`Rayleigh in
  let planner = alg "EEDCB" in
  let sequential = Pareto.sweep ~planner ~deadlines:grid p in
  List.iter
    (fun jobs ->
      let pool = Pool.create ~num_domains:jobs () in
      let parallel =
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () -> Pareto.sweep ~pool ~planner ~deadlines:grid p)
      in
      sweep_equal (Printf.sprintf "jobs %d" jobs) sequential parallel)
    [ 2; 4 ]

let test_sweep_rejects_bad_grids () =
  let p = tiny_problem ~channel:`Static in
  let raises label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (label ^ ": expected Invalid_argument")
  in
  raises "empty grid" (fun () -> Pareto.sweep ~planner:(alg "SPT") ~deadlines:[] p);
  raises "descending grid" (fun () ->
      Pareto.sweep ~planner:(alg "SPT") ~deadlines:[ 3000.; 1500. ] p);
  raises "beyond the span" (fun () ->
      Pareto.sweep ~planner:(alg "SPT") ~deadlines:[ 1500.; 7000. ] p)

let test_incompatible_state_rejected () =
  let p = tiny_problem ~channel:`Static in
  let state = Solve_state.create p in
  (* Wrong deadline direction: past the horizon. *)
  (match
     Solve_state.check_compatible state { p with Problem.deadline = 6000. } ~cap_per_node:None
   with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "deadline past the horizon: expected Invalid_argument");
  (* Wrong cap: the state's caches are keyed by the closure cap. *)
  (match Solve_state.check_compatible state p ~cap_per_node:(Some 7) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "cap mismatch: expected Invalid_argument");
  (* A planner handed an incompatible state refuses to run. *)
  let other = tiny_problem ~channel:`Rayleigh in
  let ctx = Planner.Ctx.make ~rng:(Rng.create 1) ~solve_state:state () in
  match Planner.run ~ctx (alg "EEDCB") other with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "foreign problem: expected Invalid_argument"

(* ------------------------------------------------------------------ *)
(* Solve_state.dts_at against the one-shot closure *)

(* Integer contact endpoints, deadlines and τ ∈ {0, 1} make arrivals
   land exactly on deadlines, the tie a prefix view must get right:
   the T-clipped graph cannot complete a hop arriving at exactly T, so
   such a node is sentinel-only there. *)
let prop_dts_at_matches_clipped =
  QCheck.Test.make ~name:"dts_at = one-shot closure of the clipped instance" ~count:200
    QCheck.small_int (fun seed ->
      let open Tmedb_tveg in
      let rng = Rng.create seed in
      let n = 3 + Rng.int rng 4 in
      let tau = float_of_int (Rng.int rng 2) in
      let entries = ref [] in
      for i = 0 to n - 2 do
        for j = i + 1 to n - 1 do
          if Rng.bool rng then begin
            let lo = float_of_int (Rng.int rng 9) in
            let hi = Float.min 10. (lo +. float_of_int (1 + Rng.int rng 3)) in
            let iv = Interval.make ~lo ~hi in
            entries := (i, j, { Tveg.iv; dist = 10. +. Rng.float rng 40. }) :: !entries
          end
        done
      done;
      let graph = Tveg.create ~n ~span:(Interval.make ~lo:0. ~hi:10.) ~tau !entries in
      let horizon = float_of_int (5 + Rng.int rng 6) in
      let p =
        Problem.make ~graph ~phy:Tmedb_channel.Phy.default ~channel:`Static ~source:0
          ~deadline:horizon ()
      in
      let st = Solve_state.create p in
      List.for_all
        (fun k ->
          let deadline = float_of_int k in
          let view = Solve_state.dts_at st ~deadline in
          let oneshot = Problem.dts (Problem.clip { p with Problem.deadline }) in
          Dts.num_nodes view = Dts.num_nodes oneshot
          && List.for_all
               (fun i ->
                 let a = Dts.node_points view i and b = Dts.node_points oneshot i in
                 Array.length a = Array.length b && Array.for_all2 Float.equal a b)
               (List.init n Fun.id))
        (List.init (int_of_float horizon) (fun k -> k + 1)))

(* The DCS memo: every entry is the direct query's list, and
   consecutive points with equal marginals share one physical list, so
   the memo and the lazy graph's blocks stay one per run. *)
let test_memo_shares_runs () =
  let open Tmedb_tveg in
  let params = Scale.default_params in
  let graph = Scale.scenario ~params ~n:12 () in
  let deadline = Scale.deadline ~params () in
  let phy = Tmedb_channel.Phy.default in
  let p = Problem.make ~graph ~phy ~channel:`Static ~source:0 ~deadline () in
  let st = Solve_state.create p in
  let dts = Solve_state.dts_at st ~deadline in
  let marginals = Solve_state.marginals st ~deadline in
  let tau = Problem.tau p in
  let equal = List.equal Dcs.equal_marginal in
  let runs = ref 0 and shared = ref 0 in
  for i = 0 to Dts.num_nodes dts - 1 do
    let prev = ref [] in
    Array.iter
      (fun time ->
        let m = marginals ~node:i ~time in
        let direct =
          if time +. tau >= deadline then []
          else Dcs.marginals_at graph ~phy ~channel:`Static ~node:i ~time
        in
        check_bool "memo = direct query" true (equal m direct);
        if m <> [] && equal m !prev then begin
          check_bool "equal run shares its list" true (m == !prev);
          incr shared
        end
        else incr runs;
        prev := m)
      (Dts.node_points dts i)
  done;
  check_bool
    (Printf.sprintf "runs repeat (%d shared, %d runs)" !shared !runs)
    true (!shared > !runs)

let () =
  Alcotest.run "pareto"
    [
      ( "grid",
        [
          Alcotest.test_case "of_list" `Quick test_grid_of_list;
          Alcotest.test_case "of_range" `Quick test_grid_of_range;
          Alcotest.test_case "parse" `Quick test_grid_parse;
        ] );
      ( "dominance",
        [
          Alcotest.test_case "dominates" `Quick test_dominates;
          Alcotest.test_case "mark_dominated" `Quick test_mark_dominated;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "shared matches independent" `Quick
            test_sweep_shared_matches_independent;
          Alcotest.test_case "marking and front consistent" `Quick test_sweep_consistency;
          Alcotest.test_case "worker-count invariant" `Quick test_sweep_jobs_invariant;
          Alcotest.test_case "rejects bad grids" `Quick test_sweep_rejects_bad_grids;
          Alcotest.test_case "incompatible state rejected" `Quick
            test_incompatible_state_rejected;
        ] );
      ( "solve state",
        [
          QCheck_alcotest.to_alcotest prop_dts_at_matches_clipped;
          Alcotest.test_case "memo shares equal runs" `Quick test_memo_shares_runs;
        ] );
    ]
