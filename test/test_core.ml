(* Tests for the tmedb core library: schedules, TMEDB instances,
   feasibility (conditions i-iv), the auxiliary-graph reduction,
   EEDCB / GREED / RAND, the FR pipeline with NLP energy allocation,
   the Monte-Carlo simulator and metrics.

   Includes the constructive checks of the paper's theory:
   - the Set-Cover gadget of Theorem 4.1 with known optima,
   - Theorem 5.2 (DTS equivalence): perturbing a feasible schedule
     within its DTS intervals preserves feasibility, and ET-law
     normalisation maps it back,
   - Property 6.1 / Proposition 6.1 via the DCS-based algorithms. *)

open Tmedb_prelude
open Tmedb_channel
open Tmedb_tveg
open Tmedb

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let close ?(tol = 1e-9) msg a b =
  Alcotest.(check bool) (Printf.sprintf "%s (%.10g vs %.10g)" msg a b) true
    (Float.abs (a -. b) <= tol *. Float.max 1. (Float.max (Float.abs a) (Float.abs b)))

let iv lo hi = Interval.make ~lo ~hi
let link lo hi dist = { Tveg.iv = iv lo hi; dist }
let phy = Phy.default
let tx relay time cost = { Schedule.relay; time; cost }

(* Planner shorthands: every algorithm goes through plan + Ctx now. *)
let run_eedcb ?level p = Eedcb.plan (Planner.Ctx.make ?steiner_level:level ()) p
let run_greedy ?cap_per_node p = Greedy.plan (Planner.Ctx.make ?cap_per_node ()) p
let run_rand ~rng p = Random_relay.plan (Planner.Ctx.make ~rng ()) p
let run_fr ?rng backbone p = Fr.plan_with backbone (Planner.Ctx.make ?rng ()) p
let run_bip p = Static_bip.plan (Planner.Ctx.default ()) p
let fr_alloc o = Option.get (Planner.Outcome.allocation o)
let fr_backbone o = Option.get (Planner.Outcome.backbone o)

(* The quickstart topology: known optimal normalized energy 1269. *)
let quickstart_graph () =
  Tveg.create ~n:5 ~span:(iv 0. 100.) ~tau:0.
    [
      (0, 1, link 0. 30. 10.);
      (0, 2, link 0. 40. 30.);
      (1, 3, link 20. 60. 15.);
      (2, 4, link 35. 70. 12.);
      (1, 4, link 50. 75. 40.);
    ]

let quickstart_problem ?(channel = `Static) ?(deadline = 80.) () =
  Problem.make ~graph:(quickstart_graph ()) ~phy ~channel ~source:0 ~deadline ()

let w_for d = Phy.min_cost phy ~dist:d

(* Random reachable-ish instances shared by several property tests. *)
let random_instance seed =
  let rng = Rng.create seed in
  let n = 4 + Rng.int rng 4 in
  let entries = ref [] in
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      for _ = 0 to Rng.int rng 2 do
        let lo = Rng.float rng 80. in
        let hi = Float.min 100. (lo +. 5. +. Rng.float rng 20.) in
        if hi > lo then begin
          let d = 5. +. Rng.float rng 45. in
          entries := (i, j, link lo hi d) :: !entries
        end
      done
    done
  done;
  let g = Tveg.create ~n ~span:(iv 0. 100.) ~tau:0. !entries in
  Problem.make ~graph:g ~phy ~channel:`Static ~source:0 ~deadline:100. ()

(* ------------------------------------------------------------------ *)
(* Schedule *)

let test_schedule_sorted_and_cost () =
  let s = Schedule.of_transmissions [ tx 1 5. 2.; tx 0 1. 1.; tx 2 3. 4. ] in
  Alcotest.(check (list (float 0.))) "times sorted" [ 1.; 3.; 5. ] (Schedule.times s);
  close "total" 7. (Schedule.total_cost s);
  check_int "count" 3 (Schedule.num_transmissions s);
  Alcotest.(check (option (float 0.))) "latest" (Some 5.) (Schedule.latest_time s)

let test_schedule_validation () =
  Alcotest.check_raises "negative cost"
    (Invalid_argument "Schedule.of_transmissions: negative cost") (fun () ->
      ignore (Schedule.of_transmissions [ tx 0 1. (-1.) ]))

let test_schedule_map_costs () =
  let s = Schedule.of_transmissions [ tx 0 1. 1.; tx 1 2. 2. ] in
  let s' = Schedule.map_costs s (fun k _ -> float_of_int (10 * (k + 1))) in
  Alcotest.(check (list (float 0.))) "rewritten" [ 10.; 20. ] (Schedule.costs s')

let test_schedule_empty () =
  close "empty cost" 0. (Schedule.total_cost Schedule.empty);
  Alcotest.(check (option (float 0.))) "no latest" None (Schedule.latest_time Schedule.empty)

let test_schedule_equal () =
  let a = Schedule.of_transmissions [ tx 0 1. 1.; tx 1 2. 2. ] in
  let b = Schedule.of_transmissions [ tx 1 2. 2.; tx 0 1. 1. ] in
  check_bool "order independent" true (Schedule.equal a b)

let test_schedule_csv_roundtrip () =
  let s = Schedule.of_transmissions [ tx 0 0.1 1.513e-9; tx 3 17.25 4.2e-10 ] in
  (match Schedule.of_csv (Schedule.to_csv s) with
  | Ok s' -> check_bool "roundtrip" true (Schedule.equal s s')
  | Error e -> Alcotest.fail e);
  (match Schedule.of_csv "0,1.5,notanumber\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error");
  match Schedule.of_csv "# only a comment\n\n" with
  | Ok s' -> check_int "empty ok" 0 (Schedule.num_transmissions s')
  | Error e -> Alcotest.fail e

let test_schedule_save_load () =
  let s = Schedule.of_transmissions [ tx 0 0. (w_for 30.); tx 1 20. (w_for 15.) ] in
  let path = Filename.temp_file "tmedb" ".sched" in
  Schedule.save s ~path;
  (match Schedule.load ~path with
  | Ok s' -> check_bool "same" true (Schedule.equal s s')
  | Error e -> Alcotest.fail e);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Problem *)

let test_problem_validation () =
  Alcotest.check_raises "bad source" (Invalid_argument "Problem.make: source out of range")
    (fun () ->
      ignore (Problem.make ~graph:(quickstart_graph ()) ~phy ~channel:`Static ~source:9 ~deadline:50. ()));
  Alcotest.check_raises "bad deadline"
    (Invalid_argument "Problem.make: deadline outside the graph span") (fun () ->
      ignore
        (Problem.make ~graph:(quickstart_graph ()) ~phy ~channel:`Static ~source:0 ~deadline:101. ()))

let test_problem_reachability () =
  check_bool "reachable at 80" true (Problem.is_reachable (quickstart_problem ()));
  (* By t=30 node 4 cannot have the packet (2--4 opens at 35). *)
  check_bool "unreachable at 30" false (Problem.is_reachable (quickstart_problem ~deadline:30. ()));
  close "completion bound" 35. (Problem.completion_lower_bound (quickstart_problem ()))

(* Problem.clip: the one clipping rule behind EEDCB, SPT and the
   shared solve state. *)

let test_clip_restricts_span () =
  let p = quickstart_problem ~deadline:45. () in
  let c = Problem.clip p in
  let span = Tveg.span c.Problem.graph in
  close "span start kept" 0. span.Interval.lo;
  close "span ends at the deadline" 45. span.Interval.hi;
  close "deadline kept" 45. c.Problem.deadline;
  check_int "source kept" 0 c.Problem.source;
  (* 1--4 opens at 50, after the deadline; 2--4 on [35, 70) is cut. *)
  check_int "late contact dropped" 0 (List.length (Tveg.links c.Problem.graph 1 4));
  match Tveg.links c.Problem.graph 2 4 with
  | [ l ] -> close "straddling contact cut" 45. l.Tveg.iv.Interval.hi
  | _ -> Alcotest.fail "expected one 2--4 contact"

let test_gadget_structure () =
  let instance, source_cost, element_cost =
    Problem.set_cover_gadget ~universe:3 ~sets:[ [ 0; 1 ]; [ 1; 2 ] ] ()
  in
  check_int "nodes" 6 (Problem.n instance);
  check_bool "reachable" true (Problem.is_reachable instance);
  check_bool "costs ordered" true (source_cost < element_cost)

let test_gadget_validation () =
  Alcotest.check_raises "uncovered universe"
    (Invalid_argument "Problem.set_cover_gadget: universe not covered by the union of sets")
    (fun () -> ignore (Problem.set_cover_gadget ~universe:3 ~sets:[ [ 0; 1 ] ] ()))

(* Theorem 4.1 gadget, k* = 1: one set covers the universe. *)
let test_gadget_optimal_single_set () =
  let instance, source_cost, element_cost =
    Problem.set_cover_gadget ~universe:3 ~sets:[ [ 0; 1 ]; [ 0; 1; 2 ]; [ 2 ] ] ()
  in
  let r = run_eedcb instance in
  check_bool "feasible" true r.Planner.Outcome.report.Feasibility.feasible;
  close ~tol:1e-9 "cost = source + 1 element set" (source_cost +. element_cost)
    (Schedule.total_cost r.Planner.Outcome.schedule)

(* k* = 2: disjoint halves. *)
let test_gadget_optimal_two_sets () =
  let instance, source_cost, element_cost =
    Problem.set_cover_gadget ~universe:4 ~sets:[ [ 0; 1 ]; [ 2; 3 ]; [ 1; 2 ] ] ()
  in
  let r = run_eedcb instance in
  check_bool "feasible" true r.Planner.Outcome.report.Feasibility.feasible;
  close ~tol:1e-9 "cost = source + 2 element sets"
    (source_cost +. (2. *. element_cost))
    (Schedule.total_cost r.Planner.Outcome.schedule)

(* ------------------------------------------------------------------ *)
(* Feasibility *)

let optimal_quickstart_schedule () =
  Schedule.of_transmissions [ tx 0 0. (w_for 30.); tx 1 20. (w_for 15.); tx 2 35. (w_for 12.) ]

let test_feasibility_valid_schedule () =
  let r = Feasibility.check (quickstart_problem ()) (optimal_quickstart_schedule ()) in
  check_bool "feasible" true r.Feasibility.feasible;
  Alcotest.(check (list int)) "nobody uninformed" [] r.Feasibility.uninformed;
  close "delivery 1" 1. (Feasibility.delivery_ratio r);
  (match r.Feasibility.informed_time.(4) with
  | Some t -> close "node 4 informed at 35" 35. t
  | None -> Alcotest.fail "node 4 must be informed")

let test_feasibility_uninformed_relay () =
  (* Node 1 relays before anyone told it anything. *)
  let s = Schedule.of_transmissions [ tx 1 20. (w_for 15.) ] in
  let r = Feasibility.check (quickstart_problem ()) s in
  check_bool "relay flag" false r.Feasibility.relays_informed;
  check_bool "infeasible" false r.Feasibility.feasible

let test_feasibility_missing_node () =
  (* Without 2 -> 4, node 4 stays uninformed. *)
  let s = Schedule.of_transmissions [ tx 0 0. (w_for 30.); tx 1 20. (w_for 15.) ] in
  let r = Feasibility.check (quickstart_problem ()) s in
  check_bool "not all informed" false r.Feasibility.all_informed;
  Alcotest.(check (list int)) "node 4 missing" [ 4 ] r.Feasibility.uninformed

let test_feasibility_late_transmission () =
  let s = Schedule.add (optimal_quickstart_schedule ()) (tx 1 90. (w_for 15.)) in
  let r = Feasibility.check (quickstart_problem ()) s in
  check_bool "deadline flag" false r.Feasibility.within_deadline

let test_feasibility_budget () =
  let p = Problem.make ~graph:(quickstart_graph ()) ~phy ~channel:`Static ~source:0 ~deadline:80.
      ~budget:(w_for 30.) () in
  let r = Feasibility.check p (optimal_quickstart_schedule ()) in
  check_bool "over budget" false r.Feasibility.within_budget;
  check_bool "infeasible" false r.Feasibility.feasible

let test_feasibility_cost_out_of_range () =
  let p = quickstart_problem () in
  let s = Schedule.add (optimal_quickstart_schedule ()) (tx 0 1. (2. *. phy.Phy.w_max)) in
  let r = Feasibility.check p s in
  check_bool "cost range flag" false r.Feasibility.costs_in_range

let test_feasibility_insufficient_power () =
  (* Source transmits with only enough power for 10 m: node 2 (30 m)
     misses it. *)
  let s = Schedule.of_transmissions [ tx 0 0. (w_for 10.) ] in
  let r = Feasibility.check (quickstart_problem ()) s in
  check_bool "node 1 informed" true (r.Feasibility.informed_time.(1) <> None);
  check_bool "node 2 not informed" true (r.Feasibility.informed_time.(2) = None)

let test_feasibility_same_instant_chain () =
  (* tau = 0: 0 -> 1 and 1 -> 3 at the same instant must chain
     regardless of relay ids. *)
  let g = Tveg.create ~n:3 ~span:(iv 0. 10.) ~tau:0.
      [ (0, 1, link 0. 10. 10.); (1, 2, link 0. 10. 10.) ] in
  let p = Problem.make ~graph:g ~phy ~channel:`Static ~source:0 ~deadline:10. () in
  let s = Schedule.of_transmissions [ tx 0 5. (w_for 10.); tx 1 5. (w_for 10.) ] in
  let r = Feasibility.check p s in
  check_bool "chained" true r.Feasibility.feasible

let test_feasibility_fading_accumulates () =
  (* Rayleigh: repeated transmissions multiply failure probabilities
     (Eq. 6); enough repeats push p below eps. *)
  let g = Tveg.create ~n:2 ~span:(iv 0. 10.) ~tau:0. [ (0, 1, link 0. 10. 10.) ] in
  let p = Problem.make ~graph:g ~phy ~channel:`Rayleigh ~source:0 ~deadline:10. () in
  let beta = Phy.beta phy ~dist:10. in
  (* One shot at w = beta fails with prob 1 - e^-1 ~ 0.63 > eps. *)
  let one = Schedule.of_transmissions [ tx 0 1. beta ] in
  let r1 = Feasibility.check p one in
  check_bool "single shot insufficient" false r1.Feasibility.all_informed;
  (* Eleven shots: (1 - e^-1)^11 ~ 0.0065 < 0.01 (ten gives 0.0102,
     just above eps). *)
  let eleven =
    Schedule.of_transmissions (List.init 11 (fun k -> tx 0 (float_of_int k *. 0.5) beta))
  in
  let r11 = Feasibility.check p eleven in
  check_bool "eleven shots inform" true r11.Feasibility.all_informed

(* Theorem 5.2, constructive direction: shifting a feasible schedule's
   times within their DTS/status intervals keeps it feasible, and the
   ET-law normalisation yields an equal-cost feasible schedule. *)
let test_dts_equivalence_perturbation () =
  let p = quickstart_problem () in
  let base = optimal_quickstart_schedule () in
  check_bool "base feasible" true (Feasibility.check p base).Feasibility.feasible;
  (* Perturb each transmission forward by 2 s: still inside the same
     contact and after each relay's informed time. *)
  let shifted =
    Schedule.of_transmissions
      (List.map
         (fun t -> { t with Schedule.time = t.Schedule.time +. 2. })
         (Schedule.transmissions base))
  in
  let r = Feasibility.check p shifted in
  check_bool "shifted feasible" true r.Feasibility.feasible;
  (* Normalise back with the ET law. *)
  let dts = Problem.dts p in
  let informed_time v = r.Feasibility.informed_time.(v) in
  let normalized = Schedule.normalize_et shifted dts ~informed_time in
  close "cost unchanged" (Schedule.total_cost shifted) (Schedule.total_cost normalized);
  check_bool "normalized feasible" true (Feasibility.check p normalized).Feasibility.feasible;
  (* Every normalised time is a DTS point of its relay. *)
  List.iter
    (fun t ->
      check_bool "time on DTS" true
        (Dts.index_of_point dts t.Schedule.relay t.Schedule.time <> None))
    (Schedule.transmissions normalized)

(* Random inputs for the replay reference properties.  Half-unit
   contact records over [0, 10) make touching and overlapping records
   of one pair common, τ ∈ {0, 0.5, 1}, and the channel is static or
   Rayleigh.  The schedule is random, not planner output: a chain from
   the source at one shared instant (relays that chain under τ = 0,
   listed in ascending id whatever their causal order), later
   transmissions by the source's receivers, random relays that are
   often never informed, one transmission that ends exactly at the
   deadline, and costs drawn below w_min, above w_max, at a link's
   threshold or at zero. *)
let replay_instance seed =
  let rng = Rng.create seed in
  let n = 2 + Rng.int rng 6 in
  let tau = [| 0.; 0.5; 1. |].(seed mod 3) in
  let channel = if seed / 3 mod 2 = 0 then `Static else `Rayleigh in
  let phy = Phy.make ~w_min:(Phy.min_cost Phy.default ~dist:2.) () in
  let entries = ref [] in
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      for _ = 1 to Rng.int rng 4 do
        let lo = 0.5 *. float_of_int (Rng.int rng 19) in
        let hi = Float.min 10. (lo +. (0.5 *. float_of_int (1 + Rng.int rng 6))) in
        entries := (i, j, link lo hi (1. +. Rng.float rng 9.)) :: !entries
      done
    done
  done;
  let g = Tveg.create ~n ~span:(iv 0. 10.) ~tau (List.rev !entries) in
  let deadline = 0.5 *. float_of_int (4 + Rng.int rng 17) in
  let budget = if Rng.int rng 3 = 0 then Some (Rng.float rng (4. *. phy.Phy.w_max)) else None in
  let source = Rng.int rng n in
  let problem = Problem.make ?budget ~graph:g ~phy ~channel ~source ~deadline () in
  let cost () =
    match Rng.int rng 6 with
    | 0 -> 0.
    | 1 -> phy.Phy.w_min *. Rng.float rng 1.
    | 2 -> phy.Phy.w_max *. (1. +. Rng.float rng 1.)
    | 3 -> Phy.min_cost phy ~dist:(1. +. Rng.float rng 9.)
    | _ -> Phy.fading_reference_cost phy ~dist:10.
  in
  let instant () = 0.5 *. float_of_int (Rng.int rng 21) in
  let t0 = instant () in
  let chain =
    let rec grow relay k acc =
      let acc = tx relay t0 (cost ()) :: acc in
      match Tveg.neighbors_at g relay t0 with
      | [] -> acc
      | nbrs when k > 0 -> grow (fst (Rng.pick rng (Array.of_list nbrs))) (k - 1) acc
      | _ -> acc
    in
    grow source (Rng.int rng 4) []
  in
  (* Later relays among the source's receivers, so which of them a
     transmission informs decides who can forward. *)
  let follow_ups =
    List.filter_map
      (fun (j, _) ->
        if Rng.int rng 2 = 0 then None
        else
          Some (tx j (Float.min 10. (t0 +. tau +. (0.5 *. float_of_int (Rng.int rng 4)))) (cost ())))
      (Tveg.neighbors_at g source t0)
  in
  let random_txs = List.init (Rng.int rng 6) (fun _ -> tx (Rng.int rng n) (instant ()) (cost ())) in
  let at_deadline =
    if deadline -. tau >= 0. then [ tx (Rng.int rng n) (deadline -. tau) (cost ()) ] else []
  in
  (problem, Schedule.of_transmissions (chain @ follow_ups @ random_txs @ at_deadline))

(* [Feasibility.check] as it stood before the shared replay, kept
   verbatim as the oracle: its own event queue, linear same-instant
   grouping, fixpoint rounds and the dense Tveg.ed_at scan over all N
   nodes per transmission. *)
type reference_event = { effective : float; node : int; factor : float }

let reference_check (problem : Problem.t) schedule =
  let g = problem.Problem.graph in
  let phy = problem.Problem.phy in
  let n = Tveg.n g in
  let tau = Tveg.tau g in
  let eps = phy.Phy.eps in
  let p = Array.make n 1. in
  let informed_time = Array.make n None in
  p.(problem.Problem.source) <- 0.;
  informed_time.(problem.Problem.source) <- Some (Problem.span_start problem);
  let pending = Queue.create () in
  let apply_until t =
    let rec drain () =
      match Queue.peek_opt pending with
      | Some ev when ev.effective <= t ->
          ignore (Queue.pop pending);
          p.(ev.node) <- p.(ev.node) *. ev.factor;
          if p.(ev.node) <= eps && informed_time.(ev.node) = None then
            informed_time.(ev.node) <- Some ev.effective;
          drain ()
      | Some _ | None -> ()
    in
    drain ()
  in
  let relays_informed = ref true in
  let costs_in_range = ref true in
  let process_tx tx =
    let open Schedule in
    if not (Phy.in_cost_set phy tx.cost) then costs_in_range := false;
    for j = 0 to n - 1 do
      if j <> tx.relay then begin
        let ed = Tveg.ed_at g ~phy ~channel:problem.Problem.channel tx.relay j tx.time in
        match ed with
        | Ed_function.Absent -> ()
        | Ed_function.Step _ | Ed_function.Rayleigh _ | Ed_function.Nakagami _
        | Ed_function.Lognormal _ ->
            let factor = Ed_function.failure_prob ed ~w:tx.cost in
            Queue.add { effective = tx.time +. tau; node = j; factor } pending
      end
    done
  in
  let same_time_groups txs =
    let rec group acc current = function
      | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
      | tx :: rest -> (
          match current with
          | [] -> group acc [ tx ] rest
          | first :: _ ->
              if Float.equal first.Schedule.time tx.Schedule.time then
                group acc (tx :: current) rest
              else group (List.rev current :: acc) [ tx ] rest)
    in
    group [] [] txs
  in
  List.iter
    (fun group ->
      match group with
      | [] -> ()
      | first :: _ ->
          let t = first.Schedule.time in
          apply_until t;
          let waiting = ref group in
          let progress = ref true in
          while !waiting <> [] && !progress do
            let ready, blocked =
              List.partition (fun tx -> p.(tx.Schedule.relay) <= eps) !waiting
            in
            progress := ready <> [];
            if ready <> [] then begin
              List.iter process_tx ready;
              if Float.equal tau 0. then apply_until t
            end;
            waiting := blocked
          done;
          if !waiting <> [] then begin
            relays_informed := false;
            List.iter
              (fun tx ->
                if not (Phy.in_cost_set phy tx.Schedule.cost) then costs_in_range := false)
              !waiting
          end)
    (same_time_groups (Schedule.transmissions schedule));
  apply_until problem.Problem.deadline;
  let uninformed =
    List.filter (fun i -> p.(i) > eps) (List.init n (fun i -> i))
  in
  let within_deadline =
    match Schedule.latest_time schedule with
    | None -> true
    | Some t -> t +. tau <= problem.Problem.deadline
  in
  let total_cost = Schedule.total_cost schedule in
  let within_budget =
    match problem.Problem.budget with None -> true | Some c -> total_cost <= c
  in
  let all_informed = uninformed = [] in
  {
    Feasibility.relays_informed = !relays_informed;
    all_informed;
    within_deadline;
    within_budget;
    costs_in_range = !costs_in_range;
    feasible = !relays_informed && all_informed && within_deadline && within_budget && !costs_in_range;
    informed_time;
    uninformed;
    uninformed_probability = p;
    total_cost;
  }

(* Every field of a report, floats by their exact bits. *)
let report_bits (r : Feasibility.report) =
  let floats a = String.concat ";" (List.map (Printf.sprintf "%h") (Array.to_list a)) in
  Printf.sprintf "relays=%b all=%b deadline=%b budget=%b costs=%b feasible=%b informed=[%s] \
                  uninformed=[%s] p=[%s] cost=%h"
    r.Feasibility.relays_informed r.all_informed r.within_deadline r.within_budget
    r.costs_in_range r.feasible
    (String.concat ";"
       (Array.to_list
          (Array.map (function Some t -> Printf.sprintf "%h" t | None -> "-") r.informed_time)))
    (String.concat ";" (List.map string_of_int r.uninformed))
    (floats r.uninformed_probability) r.total_cost

let prop_check_matches_reference =
  QCheck.Test.make ~name:"check = pre-replay reference, bit for bit" ~count:300
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let problem, schedule = replay_instance seed in
      let got = report_bits (Feasibility.check problem schedule) in
      let want = report_bits (reference_check problem schedule) in
      String.equal got want
      || QCheck.Test.fail_reportf "seed %d@.check:     %s@.reference: %s" seed got want)

(* ------------------------------------------------------------------ *)
(* Aux graph *)

let test_aux_graph_shape () =
  let p = quickstart_problem () in
  let dts = Problem.dts p in
  let aux = Aux_graph.build p dts in
  check_int "wait vertices = DTS points" (Dts.total_points dts) (Aux_graph.num_wait_vertices aux);
  check_bool "has level vertices" true (Aux_graph.num_level_vertices aux > 0);
  check_int "terminals = n - 1" (Problem.n p - 1) (List.length aux.Aux_graph.terminals);
  (match aux.Aux_graph.vertex.(aux.Aux_graph.source_vertex) with
  | Aux_graph.Wait { node; point_idx; _ } ->
      check_int "source node" 0 node;
      check_int "first point" 0 point_idx
  | Aux_graph.Level _ -> Alcotest.fail "source must be a wait vertex")

let test_aux_graph_extract_roundtrip () =
  (* Any Steiner tree over the aux graph extracts to a feasible
     schedule whose cost is at most the tree cost (chains collapse to
     the deepest level). *)
  let p = quickstart_problem () in
  let dts = Problem.dts p in
  let aux = Aux_graph.build p dts in
  let o =
    Tmedb_steiner.Dst.solve ~level:2 aux.Aux_graph.graph ~root:aux.Aux_graph.source_vertex
      ~terminals:aux.Aux_graph.terminals
  in
  check_bool "all terminals covered" true (o.Tmedb_steiner.Dst.uncovered = []);
  let schedule = Aux_graph.extract_schedule aux o.Tmedb_steiner.Dst.tree in
  check_bool "extracted feasible" true (Feasibility.check p schedule).Feasibility.feasible;
  check_bool "schedule cost <= tree cost" true
    (Schedule.total_cost schedule <= o.Tmedb_steiner.Dst.tree.Tmedb_steiner.Dst.cost +. 1e-18)

let test_aux_graph_deadline_blocks_late_levels () =
  (* With tau > 0, a transmission can only start if it finishes by the
     deadline: points beyond deadline - tau get no level vertices. *)
  let g = Tveg.create ~n:2 ~span:(iv 0. 10.) ~tau:2. [ (0, 1, link 0. 10. 10.) ] in
  let p = Problem.make ~graph:g ~phy ~channel:`Static ~source:0 ~deadline:9. () in
  let dts = Problem.dts p in
  let aux = Aux_graph.build p dts in
  Array.iter
    (fun v ->
      match v with
      | Aux_graph.Level { time; _ } -> check_bool "level fits deadline" true (time +. 2. <= 9.)
      | Aux_graph.Wait _ -> ())
    aux.Aux_graph.vertex

(* The auxiliary graph, pinned: an MD5 over every vertex's forward and
   reverse successor lists (ids and %h weights) and its description,
   recorded from an independent edge-list implementation of the
   paper's construction.  Adjacency order is part of the pin
   because the traversals break priority ties by operation sequence.
   The forward lists and descriptions are read before the reverse
   ones, which force the graph. *)
let describe_line = function
  | Aux_graph.Wait { node; point_idx; time } -> Printf.sprintf "W %d %d %h" node point_idx time
  | Aux_graph.Level { node; point_idx; time; level_idx; cum_cost } ->
      Printf.sprintf "L %d %d %h %d %h" node point_idx time level_idx cum_cost

let aux_digest ~nv ~fwd ~rev ~describe =
  let succs iter u =
    let b = Buffer.create 32 in
    iter u (fun v w -> Buffer.add_string b (Printf.sprintf " %d %h" v w));
    Buffer.contents b
  in
  let f = Array.init nv (succs fwd) in
  let d = Array.init nv (fun u -> describe_line (describe u)) in
  let r = Array.init nv (succs rev) in
  let b = Buffer.create 4096 in
  for u = 0 to nv - 1 do
    Buffer.add_string b (Printf.sprintf "f%d:%s\nr%d:%s\n%s\n" u f.(u) u r.(u) d.(u))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let lazy_digest l =
  let fwd = Aux_graph.Lazy.view l and rev = Aux_graph.Lazy.rev_view l in
  aux_digest ~nv:(Aux_graph.Lazy.num_vertices l) ~fwd:fwd.Tmedb_steiner.Digraph.iter_succ
    ~rev:rev.Tmedb_steiner.Digraph.iter_succ ~describe:(Aux_graph.Lazy.describe l)

(* The lazy view read before the graph is forced, the same view read
   after, and [build]'s CSR all match the pin. *)
let check_aux_graph_pinned ?cap_per_node p digest =
  let dts = Problem.dts ?cap_per_node p in
  let l = Aux_graph.Lazy.create p dts in
  let nv = Aux_graph.Lazy.num_vertices l in
  Alcotest.(check string) "lazy view, then forced" digest (lazy_digest l);
  let g = (Aux_graph.force l).Aux_graph.graph in
  check_int "every vertex materialized" nv (Aux_graph.Lazy.nodes_materialized l);
  check_int "every edge materialized" (Tmedb_steiner.Digraph.m g)
    (Aux_graph.Lazy.edges_materialized l);
  let l = Aux_graph.Lazy.create p dts in
  ignore (Aux_graph.force l);
  Alcotest.(check string) "forced, then lazy view" digest (lazy_digest l);
  let aux = Aux_graph.build p dts in
  let g = aux.Aux_graph.graph in
  check_int "vertex universe" nv (Tmedb_steiner.Digraph.n g);
  check_int "wait vertices" (Aux_graph.Lazy.num_wait_vertices l) (Aux_graph.num_wait_vertices aux);
  check_int "source vertex" (Aux_graph.Lazy.source_vertex l) aux.Aux_graph.source_vertex;
  Alcotest.(check (list int)) "terminals" (Aux_graph.Lazy.terminals l) aux.Aux_graph.terminals;
  check_bool "edge bound" true (Tmedb_steiner.Digraph.m g <= Aux_graph.Lazy.edge_bound l);
  Alcotest.(check string)
    "build" digest
    (aux_digest ~nv
       ~fwd:(Tmedb_steiner.Digraph.iter_succ g)
       ~rev:(Tmedb_steiner.Digraph.iter_succ (Tmedb_steiner.Digraph.reverse g))
       ~describe:(fun u -> aux.Aux_graph.vertex.(u)))

let test_aux_graph_pinned () =
  check_aux_graph_pinned (quickstart_problem ()) "c4aece4d888a91bcfacac8254786b107";
  check_aux_graph_pinned (quickstart_problem ~deadline:40. ()) "75a13e24c26ba923de8756e7f5f90c45";
  check_aux_graph_pinned
    (quickstart_problem ~channel:`Rayleigh ())
    "0cd32429d54355ee707a1900efed6029";
  let g =
    Tveg.create ~n:3 ~span:(iv 0. 20.) ~tau:2.
      [ (0, 1, link 0. 12. 10.); (1, 2, link 5. 20. 25.); (0, 2, link 14. 20. 60.) ]
  in
  check_aux_graph_pinned
    (Problem.make ~graph:g ~phy ~channel:`Static ~source:0 ~deadline:18. ())
    "e7605254882c6c1d8e12185fb6ae809b"

(* Logs warnings of the DTS source raised while running [f]. *)
let with_dts_warnings f =
  let count = ref 0 in
  let reporter = Logs.reporter () and level = Logs.level () in
  Logs.set_level (Some Logs.Warning);
  Logs.set_reporter
    {
      Logs.report =
        (fun src lvl ~over k msgf ->
          if lvl = Logs.Warning && String.equal (Logs.Src.name src) "tmedb.dts" then incr count;
          msgf (fun ?header:_ ?tags:_ fmt ->
              Format.ikfprintf (fun _ -> over (); k ()) Format.err_formatter fmt));
    };
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter reporter;
      Logs.set_level level)
    (fun () ->
      let r = f () in
      (r, !count))

(* A clustered Scale shape whose DTS cap bites at the base points, so
   coverage edges round forward past dropped receive instants.  The
   pin check reads the graph in both orders: lazy view first, forced
   first. *)
let test_aux_graph_pinned_capped () =
  let params = { Scale.default_params with Scale.cluster = 6; epochs = 1; seed = 11 } in
  let g = Scale.scenario ~params ~n:12 () in
  let p =
    Problem.make ~graph:g ~phy ~channel:`Static ~source:0 ~deadline:(Scale.deadline ~params ()) ()
  in
  let (), warnings = with_dts_warnings (fun () -> ignore (Problem.dts ~cap_per_node:5 p)) in
  check_int "cap bites" 1 warnings;
  check_aux_graph_pinned ~cap_per_node:5 p "efb71654b822882b7e1f26d45bc2b42b"

let test_lazy_frontier_is_partial () =
  (* A targeted Dijkstra on the lazy view must not touch the whole
     universe (that is the whole point). *)
  let p = quickstart_problem () in
  let dts = Problem.dts p in
  let lz = Aux_graph.Lazy.create p dts in
  let fwd = Aux_graph.Lazy.view lz in
  let src = Aux_graph.Lazy.source_vertex lz in
  (match Aux_graph.Lazy.terminals lz with
  | [] -> Alcotest.fail "expected terminals"
  | t :: _ ->
      ignore (Tmedb_steiner.Dijkstra.run_view ~targets:[ t ] fwd ~src));
  let touched = Aux_graph.Lazy.nodes_materialized lz in
  check_bool "some frontier" true (touched > 0);
  check_bool "not the whole universe" true
    (touched < Aux_graph.Lazy.num_vertices lz)

(* ------------------------------------------------------------------ *)
(* EEDCB *)

let test_eedcb_quickstart_optimal () =
  let p = quickstart_problem () in
  let r = run_eedcb p in
  check_bool "feasible" true r.Planner.Outcome.report.Feasibility.feasible;
  close ~tol:1e-6 "known optimum 1269" 1269. (Metrics.normalized_energy p r.Planner.Outcome.schedule);
  Alcotest.(check (list int)) "everyone reached" [] r.Planner.Outcome.unreached

let test_eedcb_respects_deadline () =
  (* Deadline 40: 2--4 [35,70) still allows completion; the returned
     schedule must finish by 40. *)
  let p = quickstart_problem ~deadline:40. () in
  let r = run_eedcb p in
  check_bool "feasible" true r.Planner.Outcome.report.Feasibility.feasible;
  (match Schedule.latest_time r.Planner.Outcome.schedule with
  | Some t -> check_bool "within deadline" true (t <= 40.)
  | None -> Alcotest.fail "expected transmissions")

let test_eedcb_unreachable_reported () =
  let p = quickstart_problem ~deadline:30. () in
  let r = run_eedcb p in
  check_bool "node 4 unreached" true (List.mem 4 r.Planner.Outcome.unreached)

let test_eedcb_level1_works () =
  let p = quickstart_problem () in
  let r = run_eedcb ~level:1 p in
  check_bool "level 1 feasible" true r.Planner.Outcome.report.Feasibility.feasible

let test_eedcb_positive_tau () =
  (* Same topology with tau = 2: every hop takes 2 s, transmissions
     must fit inside contacts and finish by the deadline. *)
  let graph =
    Tveg.create ~n:5 ~span:(iv 0. 100.) ~tau:2.
      [
        (0, 1, link 0. 30. 10.);
        (0, 2, link 0. 40. 30.);
        (1, 3, link 20. 60. 15.);
        (2, 4, link 35. 70. 12.);
        (1, 4, link 50. 75. 40.);
      ]
  in
  let p = Problem.make ~graph ~phy ~channel:`Static ~source:0 ~deadline:80. () in
  let r = run_eedcb p in
  check_bool "tau>0 feasible" true r.Planner.Outcome.report.Feasibility.feasible;
  (* Each scheduled transmission completes inside its contact. *)
  List.iter
    (fun t ->
      let covered =
        List.exists
          (fun j -> Tveg.rho_tau graph t.Schedule.relay j t.Schedule.time)
          (List.filter (fun j -> j <> t.Schedule.relay) [ 0; 1; 2; 3; 4 ])
      in
      check_bool "transmission fits a contact" true covered)
    (Schedule.transmissions r.Planner.Outcome.schedule)

let test_eedcb_tau_too_large () =
  (* tau = 50 exceeds every contact: nothing can ever be transmitted. *)
  let graph = Tveg.create ~n:2 ~span:(iv 0. 100.) ~tau:50. [ (0, 1, link 0. 30. 10.) ] in
  let p = Problem.make ~graph ~phy ~channel:`Static ~source:0 ~deadline:100. () in
  let r = run_eedcb p in
  check_bool "node 1 unreached" true (List.mem 1 r.Planner.Outcome.unreached)

let test_eedcb_schedule_on_dts () =
  (* Proposition 6.1 + Theorem 5.2: EEDCB's schedule lives on the DTS
     and uses DCS costs. *)
  let p = quickstart_problem () in
  let dts = Problem.dts p in
  let r = run_eedcb p in
  List.iter
    (fun t ->
      check_bool "time on DTS" true (Dts.index_of_point dts t.Schedule.relay t.Schedule.time <> None);
      let levels = Dcs.at (quickstart_graph ()) ~phy ~channel:`Static ~node:t.Schedule.relay
          ~time:t.Schedule.time in
      check_bool "cost in DCS" true
        (List.exists (fun l -> Futil.approx_eq l.Dcs.cost t.Schedule.cost) levels))
    (Schedule.transmissions r.Planner.Outcome.schedule)

(* ------------------------------------------------------------------ *)
(* GREED / RAND *)

let test_greedy_feasible () =
  let p = quickstart_problem () in
  let r = run_greedy p in
  check_bool "feasible" true r.Planner.Outcome.report.Feasibility.feasible;
  Alcotest.(check (list int)) "everyone" [] r.Planner.Outcome.unreached

let test_greedy_never_beats_itself_with_less_time () =
  let p80 = quickstart_problem () in
  let p60 = quickstart_problem ~deadline:60. () in
  let e80 = Metrics.normalized_energy p80 (run_greedy p80).Planner.Outcome.schedule in
  let e60 = Metrics.normalized_energy p60 (run_greedy p60).Planner.Outcome.schedule in
  (* Fewer opportunities can only cost the same or more. *)
  check_bool "monotone in deadline" true (e60 >= e80 -. 1e-9)

let test_greedy_stalls_gracefully () =
  let p = quickstart_problem ~deadline:30. () in
  let r = run_greedy p in
  check_bool "reports unreached" true (List.mem 4 r.Planner.Outcome.unreached);
  check_bool "partial schedule infeasible" false r.Planner.Outcome.report.Feasibility.feasible

let test_random_feasible_and_deterministic () =
  let p = quickstart_problem () in
  let a = run_rand ~rng:(Rng.create 3) p in
  let b = run_rand ~rng:(Rng.create 3) p in
  check_bool "feasible" true a.Planner.Outcome.report.Feasibility.feasible;
  check_bool "same seed same schedule" true
    (Schedule.equal a.Planner.Outcome.schedule b.Planner.Outcome.schedule)

let test_eedcb_beats_baselines_quickstart () =
  let p = quickstart_problem () in
  let e = Metrics.normalized_energy p (run_eedcb p).Planner.Outcome.schedule in
  let g = Metrics.normalized_energy p (run_greedy p).Planner.Outcome.schedule in
  let r = Metrics.normalized_energy p (run_rand ~rng:(Rng.create 1) p).Planner.Outcome.schedule in
  check_bool "EEDCB <= GREED" true (e <= g +. 1e-9);
  check_bool "EEDCB <= RAND" true (e <= r +. 1e-9)

(* ------------------------------------------------------------------ *)
(* FR pipeline *)

let test_fr_requires_fading_channel () =
  Alcotest.check_raises "static rejected"
    (Invalid_argument "Fr.plan: design channel must be a fading model") (fun () ->
      ignore (run_fr `Eedcb (quickstart_problem ())))

let test_fr_eedcb_feasible () =
  let p = quickstart_problem ~channel:`Rayleigh () in
  let r = run_fr `Eedcb p in
  check_bool "feasible under Eq. 6" true r.Planner.Outcome.report.Feasibility.feasible;
  Alcotest.(check (list int)) "nothing unsatisfiable" [] (fr_alloc r).Fr.unsatisfiable

let test_fr_allocation_saves_energy () =
  let p = quickstart_problem ~channel:`Rayleigh () in
  let r = run_fr `Eedcb p in
  (* The uniform-w0 backbone is already per-hop tight here, so the NLP
     cannot beat it by much — but it must never exceed it beyond its
     own safety margin (relative 1e-6 per constraint). *)
  check_bool "NLP <= uniform w0 (+margin)" true
    (Schedule.total_cost r.Planner.Outcome.schedule
    <= Schedule.total_cost (fr_backbone r) *. (1. +. 1e-4))

let test_fr_costs_more_than_static () =
  (* Fading-resistance at eps = 1% costs orders of magnitude more than
     the static design (w0 ~ 100 beta). *)
  let ps = quickstart_problem () in
  let pr = quickstart_problem ~channel:`Rayleigh () in
  let static = Metrics.normalized_energy ps (run_eedcb ps).Planner.Outcome.schedule in
  let fading = Metrics.normalized_energy pr (run_fr `Eedcb pr).Planner.Outcome.schedule in
  check_bool "fading >> static" true (fading > 10. *. static)

let test_fr_greedy_and_random_backbones () =
  let p = quickstart_problem ~channel:`Rayleigh () in
  let g = run_fr `Greedy p in
  check_bool "greedy backbone feasible" true g.Planner.Outcome.report.Feasibility.feasible;
  let r = run_fr ~rng:(Rng.create 4) `Random p in
  check_bool "random backbone feasible" true r.Planner.Outcome.report.Feasibility.feasible

let test_fr_allocate_respects_bounds () =
  let p = quickstart_problem ~channel:`Rayleigh () in
  let r = run_fr `Eedcb p in
  Array.iter
    (fun w -> check_bool "within W" true (phy.Phy.w_min <= w && w <= phy.Phy.w_max))
    (fr_alloc r).Fr.costs

let test_fr_polish_removes_redundancy () =
  (* Two identical transmissions both covering node 1: the allocation
     must discover that one at the ε-cost suffices and drive the other
     to (near) zero. *)
  let g = Tveg.create ~n:2 ~span:(iv 0. 10.) ~tau:0. [ (0, 1, link 0. 10. 10.) ] in
  let p = Problem.make ~graph:g ~phy ~channel:`Rayleigh ~source:0 ~deadline:10. () in
  let w0 = Phy.fading_reference_cost phy ~dist:10. in
  let skeleton = Schedule.of_transmissions [ tx 0 1. w0; tx 0 2. w0 ] in
  let schedule, alloc = Fr.allocate p skeleton in
  Alcotest.(check (list int)) "satisfiable" [] alloc.Fr.unsatisfiable;
  check_bool "redundancy removed" true (Schedule.total_cost schedule <= 1.02 *. w0);
  check_bool "still feasible" true (Feasibility.check p schedule).Feasibility.feasible

let test_fr_unsatisfiable_when_uncovered () =
  (* A backbone that never covers node 4 cannot satisfy its constraint. *)
  let p = quickstart_problem ~channel:`Rayleigh () in
  let skeleton = Schedule.of_transmissions [ tx 0 0. 1e-9; tx 1 20. 1e-9 ] in
  let _, alloc = Fr.allocate p skeleton in
  check_bool "node 4 unsatisfiable" true (List.mem 4 alloc.Fr.unsatisfiable)

let test_fr_nakagami_channel () =
  let p = quickstart_problem ~channel:(`Nakagami 2.) () in
  let r = run_fr `Eedcb p in
  check_bool "nakagami feasible" true r.Planner.Outcome.report.Feasibility.feasible

let test_fr_lognormal_channel () =
  (* sigma = 1.84 nepers ~ 8 dB shadowing. *)
  let p = quickstart_problem ~channel:(`Lognormal 1.84) () in
  let r = run_fr `Eedcb p in
  check_bool "lognormal feasible" true r.Planner.Outcome.report.Feasibility.feasible

(* Allocated costs, bit for bit ("%h"), for every FR backbone under
   each fading channel on the quickstart instance, recorded before the
   NLP's objective evaluation was reworked.  The fig6 golden covers only
   cold Rayleigh solves; the Nakagami and log-normal rows go through the
   numeric-difference derivative. *)
let test_fr_costs_pinned () =
  List.iter
    (fun ((channel, channel_name), (backbone, name), expected) ->
      let p = quickstart_problem ~channel () in
      let costs = (fr_alloc (run_fr backbone p)).Fr.costs in
      Alcotest.(check string) (name ^ " " ^ channel_name) expected
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") costs))))
    [
      ( (`Rayleigh, "Rayleigh"),
        (`Eedcb, "FR-EEDCB"),
        "0x1.433415143d52p-23 0x1.433415143c59cp-25 0x1.9db34e2e62a7ep-26" );
      ((`Rayleigh, "Rayleigh"), (`Greedy, "FR-GREED"), "0x1.433415143d052p-23 0x1.1f4abd67523bdp-22");
      ( (`Rayleigh, "Rayleigh"),
        (`Random, "FR-RAND"),
        "0x1.1f4abd6d5ec33p-26 0x1.a6f4e51a8d51ep-27 0x1.433415143c58dp-25 0x1.26f2e68c5f097p-26" );
      ( (`Nakagami 2., "Nakagami 2"),
        (`Eedcb, "FR-EEDCB"),
        "0x1.5ddb3ccb35453p-26 0x1.5ddb3ccb34df2p-28 0x1.bfd0f1a7f2369p-29" );
      ((`Nakagami 2., "Nakagami 2"), (`Greedy, "FR-GREED"), "0x1.5ddb3ccb35453p-26 0x1.36fbc442d96dbp-25");
      ( (`Nakagami 2., "Nakagami 2"),
        (`Random, "FR-RAND"),
        "0x1.86e9561884f8dp-28 0x1.86e9561884f8dp-28 0x1.5b7a13a5639fep-27 0x1.5b7a13a5639fep-27" );
      ( (`Lognormal 1.84, "Lognormal 1.84"),
        (`Eedcb, "FR-EEDCB"),
        "0x1.d58afd06b3515p-24 0x1.d58afd06b27cap-26 0x1.2c81e99de2ed1p-26" );
      ((`Lognormal 1.84, "Lognormal 1.84"), (`Greedy, "FR-GREED"), "0x1.d58afd06b3515p-24 0x1.a15f19cd106a9p-23");
      ( (`Lognormal 1.84, "Lognormal 1.84"),
        (`Random, "FR-RAND"),
        "0x1.12af9f1ae4a31p-26 0x1.12af9f1ae4a31p-26 0x1.e854a9135cd5fp-26 0x1.e854a9135cd5fp-26" );
    ]

(* Regression: with τ = 0 two same-instant transmissions can cover
   each other's relays; Eq. 16 read as plain "t_k <= t_j" lets the NLP
   zero out the source's transmission and rely on the cycle.  The
   firing-rank ordering must prevent that. *)
let test_fr_same_instant_cycle () =
  let g =
    Tveg.create ~n:3 ~span:(iv 0. 10.) ~tau:0.
      [ (0, 1, link 0. 10. 10.); (1, 2, link 0. 10. 10.) ]
  in
  let p = Problem.make ~graph:g ~phy ~channel:`Rayleigh ~source:0 ~deadline:10. () in
  let w0 = Phy.fading_reference_cost phy ~dist:10. in
  (* Chain 0 -> 1 -> 2 all at t = 1, plus a redundant 2 -> 1 shot. *)
  let skeleton = Schedule.of_transmissions [ tx 0 1. w0; tx 1 1. w0; tx 2 1. w0 ] in
  let schedule, alloc = Fr.allocate p skeleton in
  Alcotest.(check (list int)) "nothing unsatisfiable" [] alloc.Fr.unsatisfiable;
  let r = Feasibility.check p schedule in
  check_bool "cycle-free allocation feasible" true r.Feasibility.feasible

(* A skeleton whose relays can never fire (no transmission from the
   source at all) must be reported unsatisfiable, not silently
   accepted. *)
let test_fr_unfireable_relays_reported () =
  let g =
    Tveg.create ~n:3 ~span:(iv 0. 10.) ~tau:0.
      [ (0, 1, link 0. 10. 10.); (1, 2, link 0. 10. 10.) ]
  in
  let p = Problem.make ~graph:g ~phy ~channel:`Rayleigh ~source:0 ~deadline:10. () in
  let w0 = Phy.fading_reference_cost phy ~dist:10. in
  let skeleton = Schedule.of_transmissions [ tx 1 1. w0; tx 2 1. w0 ] in
  let _, alloc = Fr.allocate p skeleton in
  check_bool "relays unsatisfiable" true (alloc.Fr.unsatisfiable <> [])

(* The FR allocation as it stood before the flat penalty kernel, kept
   to pin the kernel bit for bit: the closure-per-constraint [Fr.allocate]
   with the [Nlp.solve], [Nlp.penalized], [Nlp.penalized_grad] and
   [Projgrad.minimize] it ran on, verbatim but for telemetry and
   provenance, which change no float. *)
module Closure_alloc = struct
  open Tmedb_nlp

  let minimize ?(options = Projgrad.default_options) ~f ?grad ~lower ~upper ~x0 () =
    let project ~lower ~upper x =
      Array.mapi (fun i xi -> Futil.clamp ~lo:lower.(i) ~hi:upper.(i) xi) x
    in
    let bb_history = 5 and bb_step_min = 1e-10 and bb_step_max = 1e10 in
    let n = Array.length x0 in
    if Array.length lower <> n || Array.length upper <> n then
      invalid_arg "Projgrad.minimize: dimension mismatch";
    Array.iteri
      (fun i lo -> if lo > upper.(i) then invalid_arg "Projgrad.minimize: empty box")
      lower;
    let grad =
      match grad with Some g -> g | None -> Numdiff.gradient (f ~bound:Float.infinity)
    in
    let x = ref (project ~lower ~upper x0) in
    let fx = ref (f ~bound:Float.infinity !x) in
    let iterations = ref 0 in
    let converged = ref false in
    let prev = ref None in
    let recent_f = ref [ !fx ] in
    while (not !converged) && !iterations < options.Projgrad.max_iter do
      incr iterations;
      let xk = !x in
      let g = grad xk in
      let pg_sq = ref 0. in
      for i = 0 to n - 1 do
        let pg = xk.(i) -. Futil.clamp ~lo:lower.(i) ~hi:upper.(i) (xk.(i) -. g.(i)) in
        pg_sq := !pg_sq +. (pg *. pg)
      done;
      if sqrt !pg_sq <= options.Projgrad.grad_tol then converged := true
      else begin
        let step0 =
          if not options.Projgrad.bb then options.Projgrad.step_init
          else begin
            match !prev with
            | None -> options.Projgrad.step_init
            | Some (px, pgrad) ->
                let sts = ref 0. and sty = ref 0. in
                for i = 0 to n - 1 do
                  let s = xk.(i) -. px.(i) in
                  sts := !sts +. (s *. s);
                  sty := !sty +. (s *. (g.(i) -. pgrad.(i)))
                done;
                if !sty > 0. && !sts > 0. then
                  Futil.clamp ~lo:bb_step_min ~hi:bb_step_max (!sts /. !sty)
                else options.Projgrad.step_init
          end
        in
        let f_ref =
          if not options.Projgrad.bb then !fx else List.fold_left Float.max !fx !recent_f
        in
        let cand = Array.make n 0. in
        let rec backtrack step tries =
          if tries = 0 then None
          else begin
            let decrease = ref 0. in
            for i = 0 to n - 1 do
              let ci = Futil.clamp ~lo:lower.(i) ~hi:upper.(i) (xk.(i) -. (step *. g.(i))) in
              cand.(i) <- ci;
              decrease := !decrease +. (g.(i) *. (xk.(i) -. ci))
            done;
            let limit = f_ref -. (options.Projgrad.armijo *. !decrease) in
            let fc = f ~bound:(Float.min limit f_ref) cand in
            if fc <= limit && fc < f_ref then Some fc
            else backtrack (step *. options.Projgrad.step_shrink) (tries - 1)
          end
        in
        match backtrack step0 60 with
        | Some fc ->
            if options.Projgrad.bb then begin
              prev := Some (xk, g);
              recent_f := fc :: List.filteri (fun i _ -> i < bb_history - 1) !recent_f
            end;
            x := cand;
            fx := fc
        | None -> converged := true
      end
    done;
    !x

  type constraint_fn = {
    g : float array -> float;
    g_grad : (float array -> float array) option;
  }

  type problem = {
    objective : float array -> float;
    objective_grad : (float array -> float array) option;
    constraints : constraint_fn list;
    lower : float array;
    upper : float array;
  }

  let max_violation problem x =
    List.fold_left (fun acc c -> Float.max acc (Float.max 0. (c.g x))) 0. problem.constraints

  let penalized (problem : problem) ~mu ~bound x =
    if not (mu > 0.) then invalid_arg "Nlp.penalized: mu must be > 0";
    let objective = problem.objective x in
    let rec sum violation_sq = function
      | [] -> objective +. (mu *. violation_sq)
      | c :: rest ->
          let v = Float.max 0. (c.g x) in
          let violation_sq = violation_sq +. (v *. v) in
          let value = objective +. (mu *. violation_sq) in
          if value > bound then value else sum violation_sq rest
    in
    sum 0. problem.constraints

  let penalized_grad problem ~mu x =
    let n = Array.length x in
    let base =
      match problem.objective_grad with
      | Some g -> g x
      | None -> Numdiff.gradient problem.objective x
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
      problem.constraints;
    grad

  let solve ?(options = Nlp.default_options) problem ~x0 =
    let mu = ref options.Nlp.mu_init in
    let x = ref (Array.copy x0) in
    let outer = ref 0 in
    let finished = ref false in
    while (not !finished) && !outer < options.Nlp.outer_iter do
      incr outer;
      let mu_now = !mu in
      x :=
        minimize ~options:options.Nlp.inner
          ~f:(penalized problem ~mu:mu_now)
          ~grad:(penalized_grad problem ~mu:mu_now)
          ~lower:problem.lower ~upper:problem.upper ~x0:!x ();
      if max_violation problem !x <= options.Nlp.feas_tol then finished := true
      else mu := !mu *. options.Nlp.mu_growth
    done;
    let violation = max_violation problem !x in
    {
      Nlp.x = !x;
      objective = problem.objective !x;
      max_violation = violation;
      feasible = violation <= options.Nlp.feas_tol;
      outer_iterations = !outer;
    }

  let log_failure channel =
    match channel with
    | `Rayleigh -> fun ~beta w -> if w <= 0. then 0. else Futil.log1p_safe (-.exp (-.beta /. w))
    | `Nakagami m ->
        fun ~beta w ->
          if w <= 0. then 0.
          else Float.log (Float.max 1e-300 (Specfun.gammp ~a:m ~x:(m *. beta /. w)))
    | `Lognormal sigma ->
        fun ~beta w ->
          if w <= 0. then 0.
          else Float.log (Float.max 1e-300 (Specfun.normal_cdf (log (beta /. w) /. sigma)))
    | `Static -> assert false

  let dlog_failure channel =
    match channel with
    | `Rayleigh ->
        fun ~beta w ->
          if w <= 0. then 0.
          else begin
            let e = exp (-.beta /. w) in
            let phi = 1. -. e in
            if phi <= 0. then 0. else -.(e *. beta /. (w *. w)) /. phi
          end
    | `Nakagami _ | `Lognormal _ ->
        let term = log_failure channel in
        fun ~beta w ->
          if w <= 0. then 0.
          else begin
            let h = 1e-6 *. Float.max w 1e-15 in
            (term ~beta (w +. h) -. term ~beta (w -. h)) /. (2. *. h)
          end
    | `Static -> assert false

  type coverage_constraint = { about : int; idx : int array; beta : float array }

  let of_members about members =
    { about; idx = Array.of_list (List.map fst members); beta = Array.of_list (List.map snd members) }

  let constraint_value ~term ~log_eps c w =
    let acc = ref 0. in
    for i = 0 to Array.length c.idx - 1 do
      acc := !acc +. term ~beta:c.beta.(i) w.(c.idx.(i))
    done;
    !acc -. log_eps

  let firing_ranks (problem : Problem.t) arr =
    let phy = problem.Problem.phy in
    let eps = phy.Phy.eps *. (1. +. 1e-6) in
    let p = Array.make (Tveg.n problem.Problem.graph) 1. in
    p.(problem.Problem.source) <- 0.;
    let rank = Array.make (Array.length arr) None in
    let next_rank = ref 0 in
    let (_ : int list) =
      Feasibility.replay problem arr
        ~ready:(fun relay _ -> p.(relay) <= eps)
        ~hear:(fun tx dist ->
          Ed_function.failure_prob
            (Ed_function.of_distance phy problem.Problem.channel ~dist)
            ~w:tx.Schedule.cost)
        ~receive:(fun node _ factor -> p.(node) <- p.(node) *. factor)
        ~fire:(fun k ->
          rank.(k) <- Some !next_rank;
          incr next_rank)
    in
    rank

  let build_constraints problem txs =
    let g = problem.Problem.graph in
    let phy = problem.Problem.phy in
    let tau = Tveg.tau g in
    let arr = Array.of_list txs in
    let ranks = firing_ranks problem arr in
    let coverage k =
      let tx = arr.(k) in
      List.map
        (fun (j, dist) -> (j, Phy.beta phy ~dist))
        (Tveg.neighbors_at g tx.Schedule.relay tx.Schedule.time)
    in
    let coverages = Array.init (Array.length arr) coverage in
    let node_members = Array.make (Tveg.n g) [] in
    Array.iteri
      (fun k cov ->
        if ranks.(k) <> None then
          List.iter (fun (j, beta) -> node_members.(j) <- (k, beta) :: node_members.(j)) cov)
      coverages;
    let node_constraints =
      List.filter_map
        (fun j ->
          if j = problem.Problem.source then None else Some (of_members j node_members.(j)))
        (List.init (Tveg.n g) (fun j -> j))
    in
    let relay_constraints =
      Array.to_list arr
      |> List.mapi (fun k' tx ->
             let r = tx.Schedule.relay in
             if r = problem.Problem.source then None
             else begin
               let members =
                 List.filter
                   (fun (k, _) ->
                     k <> k'
                     && arr.(k).Schedule.time +. tau <= tx.Schedule.time
                     &&
                     match (ranks.(k), ranks.(k')) with
                     | Some rk, Some rk' -> rk < rk'
                     | Some _, None -> true
                     | None, (Some _ | None) -> false)
                   node_members.(r)
               in
               Some (of_members r members)
             end)
      |> List.filter_map Fun.id
    in
    (node_constraints, relay_constraints, coverages)

  let allocate ?warm problem backbone_schedule =
    let term = log_failure problem.Problem.channel in
    let dterm = dlog_failure problem.Problem.channel in
    let phy = problem.Problem.phy in
    let log_eps = log phy.Phy.eps -. 1e-6 in
    let txs = Schedule.transmissions backbone_schedule in
    let nvars = List.length txs in
    if nvars = 0 then
      ( backbone_schedule,
        {
          Fr.costs = [||];
          nlp_feasible = true;
          repaired = false;
          unsatisfiable = [];
          outer_iterations = 0;
        } )
    else begin
      let node_constraints, relay_constraints, coverages = build_constraints problem txs in
      let unsatisfiable_empty =
        List.filter_map
          (fun c -> if c.idx = [||] then Some c.about else None)
          (node_constraints @ relay_constraints)
        |> List.sort_uniq Int.compare
      in
      let live_constraints =
        List.filter (fun c -> c.idx <> [||]) (node_constraints @ relay_constraints)
      in
      let scale =
        Array.map
          (fun cov ->
            let beta_max = List.fold_left (fun acc (_, b) -> Float.max acc b) 0. cov in
            if beta_max > 0. then beta_max /. log (1. /. (1. -. phy.Phy.eps))
            else Float.max phy.Phy.w_min (1e-6 *. phy.Phy.w_max))
          coverages
      in
      let scale_sum = Array.fold_left ( +. ) 0. scale in
      let objective x =
        let sum = ref 0. and comp = ref 0. in
        for k = 0 to nvars - 1 do
          let y = (scale.(k) *. x.(k)) -. !comp in
          let t = !sum +. y in
          comp := t -. !sum -. y;
          sum := t
        done;
        !sum /. scale_sum
      in
      let objective_grad _ = Array.map (fun s -> s /. scale_sum) scale in
      let mk_constraint c =
        {
          g =
            (fun x ->
              let acc = ref 0. in
              for i = 0 to Array.length c.idx - 1 do
                let k = c.idx.(i) in
                acc := !acc +. term ~beta:c.beta.(i) (scale.(k) *. x.(k))
              done;
              !acc -. log_eps);
          g_grad =
            Some
              (fun x ->
                let grad = Array.make nvars 0. in
                for i = 0 to Array.length c.idx - 1 do
                  let k = c.idx.(i) in
                  grad.(k) <- grad.(k) +. (dterm ~beta:c.beta.(i) (scale.(k) *. x.(k)) *. scale.(k))
                done;
                grad);
        }
      in
      let lower = Array.map (fun s -> phy.Phy.w_min /. s) scale in
      let upper = Array.map (fun s -> phy.Phy.w_max /. s) scale in
      let x0 =
        Array.map (fun s -> Futil.clamp ~lo:(phy.Phy.w_min /. s) ~hi:(phy.Phy.w_max /. s) 1.) scale
      in
      let nlp_problem =
        {
          objective;
          objective_grad = Some objective_grad;
          constraints = List.map mk_constraint live_constraints;
          lower;
          upper;
        }
      in
      let solve_from factor =
        let x0 = Array.map (fun x -> Futil.clamp ~lo:0. ~hi:Float.infinity (factor *. x)) x0 in
        let x0 = Array.mapi (fun k x -> Futil.clamp ~lo:lower.(k) ~hi:upper.(k) x) x0 in
        solve nlp_problem ~x0
      in
      let warm_keys =
        lazy
          (let seen = Hashtbl.create 16 in
           List.map
             (fun (tx : Schedule.transmission) ->
               let r = tx.Schedule.relay in
               let occ = match Hashtbl.find_opt seen r with Some c -> c | None -> 0 in
               Hashtbl.replace seen r (occ + 1);
               (r, occ))
             txs)
      in
      let candidates_solved =
        match warm with
        | None -> List.map solve_from [ 1.; 0.5 ]
        | Some store ->
            let x0 =
              Array.of_list (Lazy.force warm_keys)
              |> Array.mapi (fun k (relay, occurrence) ->
                     match Planner.Warm.find store ~relay ~occurrence with
                     | Some w0 -> Futil.clamp ~lo:lower.(k) ~hi:upper.(k) (w0 /. scale.(k))
                     | None -> x0.(k))
            in
            let options =
              {
                Nlp.default_options with
                Nlp.inner = { Projgrad.default_options with Projgrad.max_iter = 300; bb = true };
              }
            in
            [ solve ~options nlp_problem ~x0 ]
      in
      let tol = 1e-9 in
      let repair_all w =
        let unsatisfiable = ref unsatisfiable_empty in
        let repaired = ref false in
        let repair c =
          if constraint_value ~term ~log_eps c w > tol then begin
            repaired := true;
            let apply lambda =
              Array.iter (fun k -> w.(k) <- Float.min phy.Phy.w_max (lambda *. w.(k))) c.idx
            in
            let value_at lambda =
              let acc = ref 0. in
              for i = 0 to Array.length c.idx - 1 do
                acc :=
                  !acc
                  +. term ~beta:c.beta.(i) (Float.min phy.Phy.w_max (lambda *. w.(c.idx.(i))))
              done;
              !acc -. log_eps
            in
            let lambda_max =
              Array.fold_left
                (fun acc k -> Float.max acc (phy.Phy.w_max /. Float.max w.(k) 1e-300))
                1. c.idx
            in
            match
              Bisect.least_satisfying (fun lambda -> value_at lambda <= 0.) ~lo:1. ~hi:lambda_max
            with
            | Some lambda -> apply lambda
            | None ->
                apply lambda_max;
                unsatisfiable := List.sort_uniq Int.compare (c.about :: !unsatisfiable)
          end
        in
        List.iter repair live_constraints;
        List.iter repair live_constraints;
        (!unsatisfiable, !repaired)
      in
      let repaired_candidates =
        List.map
          (fun (r : Nlp.result) ->
            let w = Array.mapi (fun k xk -> scale.(k) *. xk) r.Nlp.x in
            let unsat, rep = repair_all w in
            (w, unsat, rep, r))
          candidates_solved
      in
      let w_backbone = Array.of_list (Schedule.costs backbone_schedule) in
      let backbone_unsat, _ = repair_all w_backbone in
      let w, unsatisfiable, repaired, solved =
        List.fold_left
          (fun ((bw, _, _, _) as best) ((cw, _, _, _) as cand) ->
            if Futil.kahan_sum cw < Futil.kahan_sum bw then cand else best)
          (w_backbone, backbone_unsat, true, List.hd candidates_solved)
          repaired_candidates
      in
      let ed_of beta =
        match problem.Problem.channel with
        | `Rayleigh -> Ed_function.rayleigh ~beta
        | `Nakagami m -> Ed_function.nakagami ~beta ~m
        | `Lognormal sigma -> Ed_function.lognormal ~beta ~sigma
        | `Static -> assert false
      in
      let constraints_of = Array.make nvars [] in
      List.iter
        (fun c -> Array.iteri (fun i k -> constraints_of.(k) <- (c, i) :: constraints_of.(k)) c.idx)
        live_constraints;
      let polish_tol = 1e-4 in
      let sweep () =
        let changed = ref false in
        for k = 0 to nvars - 1 do
          let required =
            List.fold_left
              (fun acc (c, i) ->
                if constraint_value ~term ~log_eps c w > tol then Float.max acc w.(k)
                else begin
                  let others = ref 0. in
                  Array.iteri
                    (fun i' k' ->
                      if k' <> k then others := !others +. term ~beta:c.beta.(i') w.(k'))
                    c.idx;
                  let rhs = log_eps -. !others in
                  if rhs >= 0. then acc
                  else begin
                    match Ed_function.cost_for_failure (ed_of c.beta.(i)) ~target:(exp rhs) with
                    | Some need -> Float.max acc need
                    | None -> Float.max acc w.(k)
                  end
                end)
              phy.Phy.w_min constraints_of.(k)
          in
          if required < w.(k) *. (1. -. polish_tol) then begin
            w.(k) <- required;
            changed := true
          end
        done;
        !changed
      in
      let sweeps = ref 0 in
      while sweep () && !sweeps < 25 do
        incr sweeps
      done;
      (match warm with
      | None -> ()
      | Some store ->
          Planner.Warm.reset store;
          List.iteri
            (fun k (relay, occurrence) -> Planner.Warm.set store ~relay ~occurrence w.(k))
            (Lazy.force warm_keys));
      let schedule =
        Schedule.of_transmissions
          (List.filteri
             (fun k _ -> w.(k) > 0.)
             (Schedule.transmissions (Schedule.map_costs backbone_schedule (fun k _ -> w.(k)))))
      in
      ( schedule,
        {
          Fr.costs = w;
          nlp_feasible = solved.Nlp.feasible;
          repaired;
          unsatisfiable;
          outer_iterations = solved.Nlp.outer_iterations;
        } )
    end
end

(* A random stage-2 input: a TVEG of 3–10 nodes (τ = 0 on half the
   seeds), a fading design channel, and a backbone skeleton that
   floods it: each transmission's relay is mostly a node an earlier
   one reached, sometimes one nothing reached (an unfireable relay),
   and sometimes shares the previous instant (a same-instant chain
   under τ = 0).  Each costs the single-hop ε-cost of its farthest
   neighbour, capped at w_max, which buys one hop of 25 m at ε = 1 %;
   contacts reach 35 m, so w_max saturates. *)
let fr_kernel_case seed =
  let phy = Phy.make ~w_max:(Phy.fading_reference_cost phy ~dist:25.) () in
  let rng = Rng.create seed in
  let n = 3 + Rng.int rng 8 in
  let tau = if Rng.int rng 2 = 0 then 0. else 0.5 +. Rng.float rng 3. in
  let entries = ref [] in
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      if Rng.int rng 4 > 0 then begin
        let lo = Rng.float rng 60. in
        let hi = Float.min 100. (lo +. 20. +. Rng.float rng 40.) in
        entries := (i, j, link lo hi (2. +. Rng.float rng 33.)) :: !entries
      end
    done
  done;
  let g = Tveg.create ~n ~span:(iv 0. 100.) ~tau !entries in
  let channel =
    (* Mostly Rayleigh, whose terms the kernel writes inline;
       log-normal cases cost the most to run. *)
    match Rng.int rng 8 with
    | 0 | 1 | 2 | 3 | 4 -> `Rayleigh
    | 5 | 6 -> `Nakagami (List.nth [ 1.; 2.; 3.5 ] (Rng.int rng 3))
    | _ -> `Lognormal (0.5 +. Rng.float rng 2.)
  in
  let reached = Array.make n false in
  reached.(0) <- true;
  let time = ref (Rng.float rng 30.) in
  let skeleton =
    List.init (1 + Rng.int rng (2 * n)) (fun k ->
        if k > 0 && Rng.int rng 3 > 0 then time := !time +. Rng.float rng 15.;
        let informed = List.filter (fun j -> reached.(j)) (List.init n Fun.id) in
        let relay =
          if Rng.int rng 5 = 0 then Rng.int rng n
          else List.nth informed (Rng.int rng (List.length informed))
        in
        let neighbours = Tveg.neighbors_at g relay !time in
        List.iter (fun (j, _) -> reached.(j) <- true) neighbours;
        let far = List.fold_left (fun acc (_, d) -> Float.max acc d) 2. neighbours in
        tx relay !time (Float.min phy.Phy.w_max (Phy.fading_reference_cost phy ~dist:far)))
  in
  let problem deadline = Problem.make ~graph:g ~phy ~channel ~source:0 ~deadline () in
  (problem, skeleton)

let prop_fr_kernel_matches_closures =
  QCheck.Test.make ~name:"FR allocation = closure-per-constraint allocation, bit for bit"
    ~count:100 (QCheck.int_range 0 1_000_000) (fun seed ->
      let problem, skeleton = fr_kernel_case seed in
      let hex a = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") a)) in
      let show (schedule, (a : Fr.allocation)) =
        Printf.sprintf "costs [%s] schedule [%s] nlp_feasible %b repaired %b unsat [%s] outer %d"
          (hex a.Fr.costs)
          (String.concat "; "
             (List.map
                (fun (t : Schedule.transmission) ->
                  Printf.sprintf "%d %h %h" t.Schedule.relay t.Schedule.time t.Schedule.cost)
                (Schedule.transmissions schedule)))
          a.Fr.nlp_feasible a.Fr.repaired
          (String.concat "," (List.map string_of_int a.Fr.unsatisfiable))
          a.Fr.outer_iterations
      in
      let within deadline =
        Schedule.of_transmissions
          (List.filter (fun (t : Schedule.transmission) -> t.Schedule.time < deadline) skeleton)
      in
      let cold = problem 100. in
      let same label kernel closures =
        let a = show kernel and b = show closures in
        if String.equal a b then true
        else QCheck.Test.fail_reportf "%s:\n kernel   %s\n closures %s" label a b
      in
      same "cold"
        (Fr.allocate cold (within 100.))
        (Closure_alloc.allocate cold (within 100.))
      &&
      (* Warm: one store per side carried across two deadlines, as a
         Pareto chain does. *)
      let kernel_store = Planner.Warm.create () and closure_store = Planner.Warm.create () in
      List.for_all
        (fun deadline ->
          same
            (Printf.sprintf "warm T=%g" deadline)
            (Fr.allocate ~warm:kernel_store (problem deadline) (within deadline))
            (Closure_alloc.allocate ~warm:closure_store (problem deadline) (within deadline)))
        [ 60.; 100. ])

(* ------------------------------------------------------------------ *)
(* SPT *)

let test_spt_quickstart () =
  let p = quickstart_problem () in
  let spt = Spt.plan (Planner.Ctx.make ()) p in
  check_bool "feasible" true spt.Planner.Outcome.report.Feasibility.feasible;
  Alcotest.(check (list int)) "everyone reached" [] spt.Planner.Outcome.unreached;
  (* The Steiner solver shares relays; the path union cannot beat it
     here, and both must stay feasible. *)
  let e = run_eedcb p in
  check_bool "eedcb <= spt" true
    (Schedule.total_cost e.Planner.Outcome.schedule
    <= Schedule.total_cost spt.Planner.Outcome.schedule +. 1e-9)

(* SPT's schedules, pinned to the digests the same scan gave on the
   independently built CSR graph. *)
let test_spt_lazy_pinned () =
  List.iter
    (fun (p, digest, unreached) ->
      let o = Spt.plan (Planner.Ctx.make ()) p in
      Alcotest.(check string)
        "schedule" digest
        (Digest.to_hex (Digest.string (Schedule.to_csv o.Planner.Outcome.schedule)));
      Alcotest.(check (list int)) "unreached" unreached o.Planner.Outcome.unreached)
    [
      (quickstart_problem (), "eb73f28f19ba5a37f6d4ffdd96397fcd", []);
      (quickstart_problem ~deadline:40. (), "537f4227f251302ed721baec4b7f5b66", []);
      (quickstart_problem ~deadline:30. (), "6c6fae1029e2230e9a456989dc175026", [ 4 ]);
    ]

(* SPT's tree against the assembly it replaced, kept here verbatim as
   the reference: a (u, v)-keyed Hashtbl of the predecessor walks,
   listed by a closure sort, costed by a Set of pairs.  Both read one
   scan of the same lazy graph; edges, covered terminals and cost must
   agree to the bit. *)
module Reference_spt = struct
  open Tmedb_steiner

  let tree_cost edges =
    let module S = Set.Make (struct
      type t = int * int

      let compare = Stdlib.compare
    end) in
    let _, total =
      List.fold_left
        (fun (seen, total) (u, v, w) ->
          if S.mem (u, v) seen then (seen, total) else (S.add (u, v) seen, total +. w))
        (S.empty, 0.) edges
    in
    total

  let tree ?cap_per_node problem =
    let problem = Problem.clip problem in
    let dts = Problem.dts ?cap_per_node problem in
    let aux = Aux_graph.Lazy.create problem dts in
    let fwd = Aux_graph.Lazy.view aux and root = Aux_graph.Lazy.source_vertex aux in
    let terminals = Aux_graph.Lazy.terminals aux in
    let res = Dijkstra.run_view ~targets:terminals fwd ~src:root in
    let reached, _ = List.partition (fun t -> res.Dijkstra.dist.(t) < Float.infinity) terminals in
    let in_tree = Tmedb_prelude.Bitset.create (Aux_graph.Lazy.num_vertices aux) in
    Tmedb_prelude.Bitset.set in_tree root;
    let edge_tbl = Hashtbl.create 64 in
    List.iter
      (fun term ->
        let v = ref term in
        while not (Tmedb_prelude.Bitset.mem in_tree !v) do
          Tmedb_prelude.Bitset.set in_tree !v;
          let u = res.Dijkstra.pred.(!v) in
          let w =
            match Digraph.view_edge_weight fwd u !v with
            | Some w -> w
            | None -> invalid_arg "Spt.plan: predecessor edge missing from view"
          in
          Hashtbl.replace edge_tbl (u, !v) w;
          v := u
        done)
      reached;
    let edges =
      Hashtbl.fold (fun (u, v) w acc -> (u, v, w) :: acc) edge_tbl []
      |> List.sort (fun (u1, v1, _) (u2, v2, _) ->
             let c = Int.compare u1 u2 in
             if c <> 0 then c else Int.compare v1 v2)
    in
    { Dst.edges; cost = tree_cost edges; covered = List.sort Int.compare reached }
end

let spt_tree_bits (tree : Tmedb_steiner.Dst.tree) =
  Printf.sprintf "edges [%s] covered [%s] cost %h"
    (String.concat "; "
       (List.map (fun (u, v, w) -> Printf.sprintf "%d %d %h" u v w) tree.Tmedb_steiner.Dst.edges))
    (String.concat " " (List.map string_of_int tree.Tmedb_steiner.Dst.covered))
    tree.Tmedb_steiner.Dst.cost

(* Random instances at several deadlines, τ and caps (a cap of 2
   truncates every node). *)
let prop_spt_tree_matches_reference =
  QCheck.Test.make ~name:"tree = Hashtbl/Set assembly, by bits" ~count:60
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let base = random_instance seed in
      let tau = [| 0.; 0.; 0.5; 2. |].(Rng.int rng 4) in
      let g = base.Problem.graph in
      let graph =
        Tveg.create ~n:(Tveg.n g) ~span:(Tveg.span g) ~tau
          (List.concat_map
             (fun i ->
               List.concat_map
                 (fun j -> if j > i then List.map (fun l -> (i, j, l)) (Tveg.links g i j) else [])
                 (Array.to_list (Tveg.neighbor_ids g i)))
             (List.init (Tveg.n g) Fun.id))
      in
      let deadline = 30. +. Rng.float rng 70. in
      let cap_per_node = [| None; Some 2; Some 6 |].(Rng.int rng 3) in
      let p = { base with Problem.graph; deadline } in
      let o, _ =
        with_dts_warnings (fun () -> Spt.plan (Planner.Ctx.make ?cap_per_node ()) p)
      in
      let got =
        List.find_map
          (function
            | Planner.Outcome.Steiner_tree { tree; _ } -> Some (spt_tree_bits tree) | _ -> None)
          o.Planner.Outcome.artifacts
      in
      let want, _ = with_dts_warnings (fun () -> spt_tree_bits (Reference_spt.tree ?cap_per_node p)) in
      got = Some want
      || QCheck.Test.fail_reportf "seed %d@.got:  %s@.want: %s" seed
           (Option.value got ~default:"no tree") want)

let test_spt_on_scale_scenario () =
  (* End-to-end on a small clustered Scale instance: lazy SPT reaches
     everyone and leaves most of the vertex universe untouched. *)
  let params = { Scale.default_params with Scale.cluster = 12; epochs = 2 } in
  let g = Scale.scenario ~params ~n:36 () in
  let p =
    Problem.make ~graph:g ~phy ~channel:`Static ~source:0
      ~deadline:(Scale.deadline ~params ()) ()
  in
  let dts = Problem.dts ~cap_per_node:64 p in
  let lz = Aux_graph.Lazy.create p dts in
  let outcome = Spt.plan (Planner.Ctx.make ~cap_per_node:64 ()) p in
  check_bool "feasible" true outcome.Planner.Outcome.report.Feasibility.feasible;
  Alcotest.(check (list int)) "everyone reached" [] outcome.Planner.Outcome.unreached;
  (* Replay the planner's scan on a fresh lazy graph to measure the
     frontier cut on this instance. *)
  ignore
    (Tmedb_steiner.Dijkstra.run_view
       ~targets:(Aux_graph.Lazy.terminals lz)
       (Aux_graph.Lazy.view lz)
       ~src:(Aux_graph.Lazy.source_vertex lz));
  let total = Aux_graph.Lazy.num_vertices lz in
  let touched = Aux_graph.Lazy.nodes_materialized lz in
  check_bool "frontier cut" true (touched * 2 < total)

(* A one-shot lazy SPT queries each block's DCS once, in the sizing
   pass, and never again: the scan and the schedule read the level
   table.  Scale scenarios have τ = 0, so every DTS point can finish by
   the deadline and is sized. *)
let test_spt_one_query_per_block () =
  let g = Scale.scenario ~n:100 () in
  let p =
    Problem.make ~graph:g ~phy ~channel:`Static ~source:0 ~deadline:(Scale.deadline ()) ()
  in
  let queries = Tmedb_obs.Counter.make "dcs.queries" in
  let points = Tmedb_obs.Counter.make "dts.points" in
  let was = Tmedb_obs.enabled () in
  Tmedb_obs.set_enabled true;
  let q0 = Tmedb_obs.Counter.value queries and p0 = Tmedb_obs.Counter.value points in
  let o, _ =
    Fun.protect
      ~finally:(fun () -> Tmedb_obs.set_enabled was)
      (fun () ->
        with_dts_warnings (fun () -> Spt.plan (Planner.Ctx.make ~cap_per_node:64 ()) p))
  in
  let sized = Tmedb_obs.Counter.value points - p0 in
  Alcotest.(check (list int)) "everyone reached" [] o.Planner.Outcome.unreached;
  check_bool "blocks sized" true (sized > 0);
  check_int "one query per sized block" sized (Tmedb_obs.Counter.value queries - q0)

(* ------------------------------------------------------------------ *)
(* Static BIP baseline *)

let test_bip_static_network () =
  (* A line 0-1-2 with permanent links: the static protocol works. *)
  let g =
    Tveg.create ~n:3 ~span:(iv 0. 10.) ~tau:0.
      [ (0, 1, link 0. 10. 10.); (1, 2, link 0. 10. 10.) ]
  in
  let p = Problem.make ~graph:g ~phy ~channel:`Static ~source:0 ~deadline:10. () in
  let r = run_bip p in
  Alcotest.(check (list int)) "all informed" [] r.Planner.Outcome.unreached;
  check_bool "feasible on static graph" true r.Planner.Outcome.report.Feasibility.feasible;
  (* Tree: 0 -> 1 -> 2, two transmissions at 10 m each. *)
  close "planned = 2 hops" (2. *. w_for 10.) (Option.get (Planner.Outcome.planned_energy r))

let test_bip_one_shot_misses_disjoint_contacts () =
  (* 0 meets 1 and 2 during disjoint windows.  BIP's tree makes 0 the
     parent of both, but a single transmission cannot serve both
     windows: the replay must lose one child — the paper's motivating
     failure of static protocols.  EEDCB transmits twice and wins. *)
  let g =
    Tveg.create ~n:3 ~span:(iv 0. 40.) ~tau:0.
      [ (0, 1, link 0. 10. 10.); (0, 2, link 20. 30. 10.) ]
  in
  let p = Problem.make ~graph:g ~phy ~channel:`Static ~source:0 ~deadline:40. () in
  let bip = run_bip p in
  Alcotest.(check (list int)) "BIP misses node 2" [ 2 ] bip.Planner.Outcome.unreached;
  check_bool "BIP infeasible" false bip.Planner.Outcome.report.Feasibility.feasible;
  let eedcb = run_eedcb p in
  check_bool "EEDCB succeeds" true eedcb.Planner.Outcome.report.Feasibility.feasible

let test_bip_power_planned_on_best_distance () =
  (* The snapshot records the pair 1-2 at its best-ever 5 m, but that
     window closes before node 1 is informed (via 0-1 during
     [10, 15)); the only remaining 1-2 contact is at 20 m.  BIP's
     5 m-planned power is too weak at replay time. *)
  let g =
    Tveg.create ~n:3 ~span:(iv 0. 40.) ~tau:0.
      [ (0, 1, link 10. 15. 10.); (1, 2, link 0. 5. 5.); (1, 2, link 20. 30. 20.) ]
  in
  let p = Problem.make ~graph:g ~phy ~channel:`Static ~source:0 ~deadline:40. () in
  let bip = run_bip p in
  (* Node 1 transmits at t=20 with power planned for 5 m; the actual
     distance is 20 m: node 2 misses the packet. *)
  check_bool "node 2 lost" true (List.mem 2 bip.Planner.Outcome.unreached);
  let eedcb = run_eedcb p in
  check_bool "EEDCB adapts power" true eedcb.Planner.Outcome.report.Feasibility.feasible

let test_bip_snapshot_unreachable () =
  let g = Tveg.create ~n:3 ~span:(iv 0. 10.) ~tau:0. [ (0, 1, link 0. 10. 10.) ] in
  let p = Problem.make ~graph:g ~phy ~channel:`Static ~source:0 ~deadline:10. () in
  let r = run_bip p in
  Alcotest.(check (list int)) "isolated node" [ 2 ] (Planner.Outcome.snapshot_unreachable r)

let test_bip_quickstart_comparison () =
  (* On the quickstart instance the snapshot happens to be realisable
     in part; BIP must never beat EEDCB when both deliver, and when
     BIP loses nodes its delivery is below 1. *)
  let p = quickstart_problem () in
  let bip = run_bip p in
  let eedcb = run_eedcb p in
  if bip.Planner.Outcome.unreached = [] then
    check_bool "EEDCB no worse" true
      (Schedule.total_cost eedcb.Planner.Outcome.schedule
      <= Schedule.total_cost bip.Planner.Outcome.schedule +. 1e-18)
  else check_bool "BIP delivery below 1" true (Feasibility.delivery_ratio bip.Planner.Outcome.report < 1.)

(* ------------------------------------------------------------------ *)
(* Simulate *)

let test_simulate_static_deterministic () =
  let p = quickstart_problem () in
  let s = optimal_quickstart_schedule () in
  let sim = Simulate.run ~trials:50 ~rng:(Rng.create 1) ~eval_channel:`Static p s in
  close "full delivery" 1. sim.Simulate.delivery_ratio;
  close "no variance" 0. sim.Simulate.delivery_stddev;
  close "energy = schedule cost" (Schedule.total_cost s) sim.Simulate.mean_energy_spent

let test_simulate_single_link_rayleigh () =
  (* One link at distance d, one transmission at w = beta: success
     probability e^-1, so mean delivery over 2 nodes is
     (1 + e^-1) / 2 ~ 0.684. *)
  let g = Tveg.create ~n:2 ~span:(iv 0. 10.) ~tau:0. [ (0, 1, link 0. 10. 10.) ] in
  let p = Problem.make ~graph:g ~phy ~channel:`Rayleigh ~source:0 ~deadline:10. () in
  let s = Schedule.of_transmissions [ tx 0 1. (Phy.beta phy ~dist:10.) ] in
  let sim = Simulate.run ~trials:20_000 ~rng:(Rng.create 2) ~eval_channel:`Rayleigh p s in
  close ~tol:0.02 "expected delivery" ((1. +. exp (-1.)) /. 2.) sim.Simulate.delivery_ratio

let test_simulate_uninformed_relay_spends_nothing () =
  let p = quickstart_problem () in
  (* Node 1 transmits but never received: no energy, no delivery. *)
  let s = Schedule.of_transmissions [ tx 1 20. (w_for 15.) ] in
  let sim = Simulate.run ~trials:20 ~rng:(Rng.create 3) ~eval_channel:`Static p s in
  close "no energy" 0. sim.Simulate.mean_energy_spent;
  close "only source" (1. /. 5.) sim.Simulate.delivery_ratio

let test_simulate_fr_high_delivery () =
  let p = quickstart_problem ~channel:`Rayleigh () in
  let r = run_fr `Eedcb p in
  let sim = Simulate.run ~trials:2000 ~rng:(Rng.create 4) ~eval_channel:`Rayleigh p r.Planner.Outcome.schedule in
  check_bool "delivery > 95%" true (sim.Simulate.delivery_ratio > 0.95)

let test_simulate_static_design_suffers_in_fading () =
  let p_static = quickstart_problem () in
  let s = (run_eedcb p_static).Planner.Outcome.schedule in
  let p_eval = quickstart_problem ~channel:`Rayleigh () in
  let sim = Simulate.run ~trials:2000 ~rng:(Rng.create 5) ~eval_channel:`Rayleigh p_eval s in
  check_bool "delivery well below 1" true (sim.Simulate.delivery_ratio < 0.9)

let test_simulate_deterministic_in_seed () =
  let p = quickstart_problem () in
  let s = optimal_quickstart_schedule () in
  let a = Simulate.run ~trials:100 ~rng:(Rng.create 6) ~eval_channel:`Rayleigh p s in
  let b = Simulate.run ~trials:100 ~rng:(Rng.create 6) ~eval_channel:`Rayleigh p s in
  close "same ratio" a.Simulate.delivery_ratio b.Simulate.delivery_ratio

(* [Simulate.run]'s per-trial loop as it stood before the shared
   replay, kept verbatim as the oracle (telemetry dropped), with the
   same per-trial stream split and statistics. *)
type reference_receive = { at : float; receiver : int }

let reference_trial ~rng ~eval_channel (problem : Problem.t) schedule =
  let g = problem.Problem.graph in
  let phy = problem.Problem.phy in
  let n = Tveg.n g in
  let tau = Tveg.tau g in
  let informed_at = Array.make n Float.infinity in
  informed_at.(problem.Problem.source) <- Problem.span_start problem;
  let pending = Queue.create () in
  let apply_until t =
    let rec drain () =
      match Queue.peek_opt pending with
      | Some ev when ev.at <= t ->
          ignore (Queue.pop pending);
          if ev.at < informed_at.(ev.receiver) then informed_at.(ev.receiver) <- ev.at;
          drain ()
      | Some _ | None -> ()
    in
    drain ()
  in
  let energy = ref 0. in
  let fire tx =
    let open Schedule in
    energy := !energy +. tx.cost;
    List.iter
      (fun (j, dist) ->
        let ed = Ed_function.of_distance phy eval_channel ~dist in
        let p_success = Ed_function.success_prob ed ~w:tx.cost in
        if Dist.bernoulli rng ~p:p_success then
          Queue.add { at = tx.time +. tau; receiver = j } pending)
      (Tveg.neighbors_at g tx.relay tx.time)
  in
  let rec groups = function
    | [] -> []
    | tx :: _ as txs ->
        let same, rest =
          List.partition (fun t -> Float.equal t.Schedule.time tx.Schedule.time) txs
        in
        same :: groups rest
  in
  List.iter
    (fun group ->
      match group with
      | [] -> ()
      | first :: _ ->
          let t = first.Schedule.time in
          apply_until t;
          let waiting = ref group in
          let progress = ref true in
          while !waiting <> [] && !progress do
            let ready, blocked =
              List.partition (fun tx -> informed_at.(tx.Schedule.relay) <= t) !waiting
            in
            progress := ready <> [];
            List.iter fire ready;
            if ready <> [] && Float.equal tau 0. then apply_until t;
            waiting := blocked
          done)
    (groups (Schedule.transmissions schedule));
  apply_until problem.Problem.deadline;
  let informed =
    Array.fold_left (fun acc t -> if Float.is_finite t then acc + 1 else acc) 0 informed_at
  in
  let completion =
    if informed = n then Some (Array.fold_left Float.max 0. informed_at) else None
  in
  (float_of_int informed /. float_of_int n, !energy, completion)

let reference_simulate ~trials ~rng ~eval_channel problem schedule =
  let rngs = Array.make trials rng in
  for k = 0 to trials - 1 do
    rngs.(k) <- Rng.split rng
  done;
  let outcomes = Array.map (fun r -> reference_trial ~rng:r ~eval_channel problem schedule) rngs in
  let deliveries = Array.make trials 0. in
  let energies = Array.make trials 0. in
  let completions = ref [] in
  let full = ref 0 in
  for k = trials - 1 downto 0 do
    let delivery, energy, completion = outcomes.(k) in
    deliveries.(k) <- delivery;
    energies.(k) <- energy;
    match completion with
    | Some t ->
        incr full;
        completions := t :: !completions
    | None -> ()
  done;
  {
    Simulate.trials;
    delivery_ratio = Stats.mean deliveries;
    delivery_stddev = Stats.stddev deliveries;
    full_delivery_rate = float_of_int !full /. float_of_int trials;
    mean_energy_spent = Stats.mean energies;
    mean_completion_time =
      (match !completions with
      | [] -> None
      | cs -> Some (Stats.mean (Array.of_list cs)));
  }

let simulate_bits (r : Simulate.result) =
  Printf.sprintf "trials=%d delivery=%h stddev=%h full=%h energy=%h completion=%s"
    r.Simulate.trials r.delivery_ratio r.delivery_stddev r.full_delivery_rate
    r.mean_energy_spent
    (match r.mean_completion_time with Some t -> Printf.sprintf "%h" t | None -> "-")

(* The evaluation channel is Rayleigh for two seeds in three, so most
   trials draw real coin flips in the replay's neighbour order. *)
let prop_simulate_matches_reference =
  QCheck.Test.make ~name:"run = pre-replay trial loop, bit for bit" ~count:150
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let problem, schedule = replay_instance seed in
      let eval_channel = if seed mod 3 = 0 then `Static else `Rayleigh in
      let got =
        simulate_bits
          (Simulate.run ~trials:20 ~rng:(Rng.create seed) ~eval_channel problem schedule)
      in
      let want =
        simulate_bits
          (reference_simulate ~trials:20 ~rng:(Rng.create seed) ~eval_channel problem schedule)
      in
      String.equal got want
      || QCheck.Test.fail_reportf "seed %d@.run:       %s@.reference: %s" seed got want)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_normalized_energy () =
  let p = quickstart_problem () in
  let s = Schedule.of_transmissions [ tx 0 0. (w_for 30.) ] in
  close "d^2" 900. (Metrics.normalized_energy p s)

let test_lower_bound_single_link_static () =
  (* One link at 10 m: the optimum is exactly the bound. *)
  let g = Tveg.create ~n:2 ~span:(iv 0. 10.) ~tau:0. [ (0, 1, link 0. 10. 10.) ] in
  let p = Problem.make ~graph:g ~phy ~channel:`Static ~source:0 ~deadline:10. () in
  close "LB = w_th" (w_for 10.) (Metrics.energy_lower_bound p);
  let r = run_eedcb p in
  close "EEDCB achieves LB" (Metrics.energy_lower_bound p) (Schedule.total_cost r.Planner.Outcome.schedule)

let test_lower_bound_additive_refinement () =
  (* Node 2 never meets the source: the bound must include both the
     source hop and a second transmission. *)
  let g =
    Tveg.create ~n:3 ~span:(iv 0. 10.) ~tau:0.
      [ (0, 1, link 0. 10. 10.); (1, 2, link 0. 10. 20.) ]
  in
  let p = Problem.make ~graph:g ~phy ~channel:`Static ~source:0 ~deadline:10. () in
  close "LB additive" (w_for 10. +. w_for 20.) (Metrics.energy_lower_bound p);
  let r = run_eedcb p in
  close "EEDCB achieves it" (Metrics.energy_lower_bound p) (Schedule.total_cost r.Planner.Outcome.schedule)

let test_lower_bound_unreachable_infinite () =
  let g = Tveg.create ~n:3 ~span:(iv 0. 10.) ~tau:0. [ (0, 1, link 0. 10. 10.) ] in
  let p = Problem.make ~graph:g ~phy ~channel:`Static ~source:0 ~deadline:10. () in
  check_bool "infinite" true (Metrics.energy_lower_bound p = Float.infinity)

let test_lower_bound_below_all_algorithms () =
  for seed = 100 to 130 do
    let p = random_instance seed in
    if Problem.is_reachable p then begin
      let lb = Metrics.energy_lower_bound p in
      let e = Schedule.total_cost (run_eedcb p).Planner.Outcome.schedule in
      check_bool "LB <= EEDCB (static)" true (lb <= e +. 1e-18);
      let pf = { p with Problem.channel = `Rayleigh } in
      let lbf = Metrics.energy_lower_bound pf in
      let f = Schedule.total_cost (run_fr `Eedcb pf).Planner.Outcome.schedule in
      check_bool "LB <= FR-EEDCB (fading)" true (lbf <= f +. 1e-18)
    end
  done

let test_lower_bound_fading_exceeds_static () =
  let ps = quickstart_problem () in
  let pf = quickstart_problem ~channel:`Rayleigh () in
  check_bool "fading bound dearer" true
    (Metrics.energy_lower_bound pf > Metrics.energy_lower_bound ps)

let test_metrics_latency () =
  let p = quickstart_problem () in
  (match Metrics.broadcast_latency p (optimal_quickstart_schedule ()) with
  | Some l -> close "latency 35" 35. l
  | None -> Alcotest.fail "expected latency");
  check_bool "none when incomplete" true
    (Metrics.broadcast_latency p (Schedule.of_transmissions [ tx 0 0. (w_for 10.) ]) = None)

(* Property: on random reachable instances EEDCB returns feasible
   schedules. *)
let prop_eedcb_feasible_when_reachable =
  QCheck.Test.make ~name:"EEDCB feasible on reachable instances" ~count:40
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let p = random_instance seed in
      if not (Problem.is_reachable p) then true
      else begin
        let r = run_eedcb p in
        r.Planner.Outcome.report.Feasibility.feasible
      end)

(* EEDCB is an approximation: on individual instances it may lose to
   GREED (recursive-greedy density is myopic too), but the paper's
   Fig. 5 claim is the aggregate ordering.  Check the mean ratio over
   many random instances, plus a sanity per-instance bound. *)
let test_eedcb_beats_greedy_on_average () =
  let ratios = ref [] in
  for seed = 500 to 579 do
    let p = random_instance seed in
    if Problem.is_reachable p then begin
      let e = Schedule.total_cost (run_eedcb p).Planner.Outcome.schedule in
      let g = Schedule.total_cost (run_greedy p).Planner.Outcome.schedule in
      check_bool "never catastrophically worse" true (e <= (2. *. g) +. 1e-15);
      ratios := (e /. g) :: !ratios
    end
  done;
  let mean = Stats.mean (Array.of_list !ratios) in
  check_bool
    (Printf.sprintf "mean EEDCB/GREED ratio < 1 (got %.3f)" mean)
    true (mean < 1.)

(* Theorem 5.2 / Prop. 5.1 on random instances: ET-law normalisation
   of a feasible schedule is feasible at equal cost, with every time on
   the DTS. *)
let prop_et_law_on_random_instances =
  QCheck.Test.make ~name:"ET-law normalisation preserves feasibility (Thm 5.2)" ~count:40
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let p = random_instance (seed + 2000) in
      if not (Problem.is_reachable p) then true
      else begin
        let r = run_greedy p in
        if not r.Planner.Outcome.report.Feasibility.feasible then true
        else begin
          let dts = Problem.dts p in
          let informed v = r.Planner.Outcome.report.Feasibility.informed_time.(v) in
          let normalized = Schedule.normalize_et r.Planner.Outcome.schedule dts ~informed_time:informed in
          let check = Feasibility.check p normalized in
          check.Feasibility.feasible
          && Float.abs (Schedule.total_cost normalized -. Schedule.total_cost r.Planner.Outcome.schedule)
             < 1e-18
          && List.for_all
               (fun t ->
                 Dts.latest_at_or_before dts t.Schedule.relay t.Schedule.time
                 = Some t.Schedule.time)
               (Schedule.transmissions normalized)
        end
      end)

(* The Eq.-6 analytic delivery and the Monte-Carlo delivery agree under
   the static channel (both deterministic). *)
let prop_static_simulation_matches_analytic =
  QCheck.Test.make ~name:"static MC delivery = analytic delivery" ~count:25
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let p = random_instance (seed + 3000) in
      let r = run_greedy p in
      let analytic = Feasibility.delivery_ratio r.Planner.Outcome.report in
      let sim =
        Simulate.run ~trials:3 ~rng:(Rng.create seed) ~eval_channel:`Static p r.Planner.Outcome.schedule
      in
      Float.abs (sim.Simulate.delivery_ratio -. analytic) < 1e-9)

let prop_fr_allocation_feasible =
  QCheck.Test.make ~name:"FR allocation satisfies Eq. 6 when satisfiable" ~count:25
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let p = random_instance (seed + 900) in
      if not (Problem.is_reachable p) then true
      else begin
        let p = { p with Problem.channel = `Rayleigh } in
        let r = run_fr `Eedcb p in
        (fr_alloc r).Fr.unsatisfiable <> [] || r.Planner.Outcome.report.Feasibility.feasible
      end)

(* Digest guard for the sorted-iteration rewrites flagged by lint rule
   R1 (Dst.Edge_set, Random_relay, Aux_graph.extract_schedule,
   Trace.stats): the full fig6 sweep — all six algorithms over the
   auxiliary graph, RAND draws and the Monte-Carlo simulator — must
   marshal to the same bytes at every worker count. *)
let test_fig6_digest_jobs_invariant () =
  let config =
    {
      Experiment.default_config with
      Experiment.n = 8;
      horizon = 5000.;
      deadline = 1200.;
      sources = 1;
      mc_trials = 40;
      dts_cap = 400;
    }
  in
  let digest pool =
    let series = Experiment.fig6 ~config ?pool ~ns:[ 6; 8 ] () in
    Digest.to_hex (Digest.string (Marshal.to_string series []))
  in
  let reference = digest None in
  List.iter
    (fun k ->
      Pool.with_pool ~num_domains:k (fun pool ->
          Alcotest.(check string)
            (Printf.sprintf "fig6 digest jobs=%d" k)
            reference
            (digest (Some pool))))
    [ 1; 2; 4 ]

(* Cap-biting DTS closures and the lazy SPT schedule, pinned to the
   digests of the reference implementation (per-node FloatSet
   cardinals, a hashed pair table and a second DCS query per block),
   together with the number of truncation warnings each raised. *)
let hex_digest x = Digest.to_hex (Digest.string (Marshal.to_string x []))
let dts_digest d = hex_digest (Array.init (Dts.num_nodes d) (Dts.node_points d))

(* Four well-connected nodes and six sparse ones.  Every node starts
   below the cap of 24, so truncation only begins mid-propagation,
   once some nodes have filled while others never do.  The dense pairs
   have overlapping records, so P^ad holds only their canonical piece
   endpoints (pair 0–2's record [28, 34) lies inside [16, 34)). *)
let mixed_density_graph ~tau =
  let rng = Rng.create 3 in
  let n = 10 and dense = 4 in
  let entries = ref [] in
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      let k = if i < dense && j < dense then 3 else if Rng.float rng 1. < 0.35 then 1 else 0 in
      for _ = 1 to k do
        let lo = Float.round (Rng.float rng 90.) in
        let len = 2. +. Float.round (Rng.float rng 20.) in
        let hi = Float.min 100. (lo +. len) in
        entries := (i, j, link lo hi (5. +. Rng.float rng 50.)) :: !entries
      done
    done
  done;
  Tveg.create ~n ~span:(iv 0. 100.) ~tau (List.rev !entries)

let test_dts_cap_pinned_scale () =
  let g = Scale.scenario ~n:64 () in
  let deadline = Scale.deadline () in
  let p = Problem.make ~graph:g ~phy ~channel:`Static ~source:0 ~deadline () in
  let d, w = with_dts_warnings (fun () -> Problem.dts ~cap_per_node:8 p) in
  Alcotest.(check string) "source-pruned points" "6e654bd99113fd36003abb93960555ce" (dts_digest d);
  check_int "source-pruned warnings" 1 w;
  let d, w = with_dts_warnings (fun () -> Dts.compute ~cap_per_node:8 g ~deadline) in
  Alcotest.(check string) "unpruned points" "6283963dc9e5eec839e0bf99ff5a397a" (dts_digest d);
  check_int "unpruned warnings" 1 w

let test_dts_cap_pinned_mid_propagation () =
  List.iter
    (fun (tau, cap, digest, warnings) ->
      let label = Printf.sprintf "tau %g cap %d" tau cap in
      let d, w =
        with_dts_warnings (fun () ->
            Dts.compute ~cap_per_node:cap (mixed_density_graph ~tau) ~deadline:90.)
      in
      Alcotest.(check string) (label ^ " points") digest (dts_digest d);
      check_int (label ^ " warnings") warnings w)
    [
      (1., 24, "80aea30bb711337900919659198fe290", 1);
      (0., 24, "b5500441801d15c22b13e4317a5b7c0e", 1);
      (1., 100_000, "e091263915aee31b7415ffafb2052396", 0);
      (0., 100_000, "352bddb59e2a7ef30dacb0a91c98ea11", 0);
    ]

(* The capped shared-state view against the capped one-shot closure:
   the cap truncates the horizon closure in breadth-first order over
   all of [0, 1200], so below a smaller deadline it can keep other
   points than the T-clipped closure does.  Pin how many nodes differ
   and what each view holds. *)
let test_dts_view_pinned_capped_scale () =
  let g = Scale.scenario ~n:100 () in
  let p =
    Problem.make ~graph:g ~phy ~channel:`Static ~source:0 ~deadline:(Scale.deadline ()) ()
  in
  let st, _ = with_dts_warnings (fun () -> Solve_state.create ~cap_per_node:64 p) in
  List.iter
    (fun (deadline, differing, digest) ->
      let label = Printf.sprintf "T=%g" deadline in
      let view = Solve_state.dts_at st ~deadline in
      let oneshot, _ =
        with_dts_warnings (fun () ->
            Problem.dts ~cap_per_node:64 (Problem.clip { p with Problem.deadline }))
      in
      let diff = ref 0 in
      for i = 0 to Dts.num_nodes view - 1 do
        if Dts.node_points view i <> Dts.node_points oneshot i then incr diff
      done;
      check_int (label ^ " differing nodes") differing !diff;
      Alcotest.(check string) (label ^ " view") digest (dts_digest view))
    [
      (300., 36, "dc6a93f08eeb1f0a74901d292e42f2bb");
      (600., 2, "42845b848a8c3c34a564875f28af58b7");
      (900., 0, "0c9c5c0e87ab4f5036eb9b5c281c07e0");
      (1200., 0, "6fbf062793690308464a0ed61e71f8b9");
    ]

(* Source picks, degree windows and trace statistics, pinned to the
   digests of the dense presence-table implementation they once went
   through (an O(N^2) table per contact).  The sparse store must give
   the same picks and the same floats, bit for bit. *)
let pin_config =
  { Experiment.default_config with Experiment.horizon = 8000.; deadline = 1500.; sources = 3 }

let pin_traces () = List.map (fun n -> Experiment.make_trace pin_config ~n) [ 8; 12; 20 ]

(* fig7's density ramp, scaled to the horizon as fig7 scales it. *)
let ramp_trace () =
  let h = pin_config.Experiment.horizon in
  let density_profile = Tmedb_trace.Synth.ramp_profile ~t0:(0.29 *. h) ~t1:(0.47 *. h) ~low:0.25 in
  Experiment.make_trace ~density_profile pin_config ~n:16

let test_degree_windows_pinned () =
  let g = Tveg.of_trace ~tau:0. (ramp_trace ()) in
  let series =
    List.init 16 (fun k ->
        let t0 = 500. *. float_of_int k in
        Tveg.average_degree_over g ~window:(iv t0 (t0 +. 500.)))
  in
  Alcotest.(check string) "500 s windows" "b516886e577790174055994f009975ee" (hex_digest series)

let test_source_picks_pinned () =
  let picks =
    List.concat_map
      (fun trace ->
        List.map
          (fun deadline -> Experiment.choose_sources pin_config ~trace ~deadline)
          [ 500.; 1500.; 4000. ])
      (pin_traces ())
  in
  Alcotest.(check string) "picks" "82d43f350e29078414aa8bd14dc31f16" (hex_digest picks)

let test_trace_stats_pinned () =
  let stats = List.map Tmedb_trace.Trace.stats (ramp_trace () :: pin_traces ()) in
  Alcotest.(check string) "stats" "49dca45bd0e765bf993c0da91f353a99" (hex_digest stats)

let test_spt_lazy_pinned_scale () =
  let g = Scale.scenario ~n:100 () in
  let p =
    Problem.make ~graph:g ~phy ~channel:`Static ~source:0 ~deadline:(Scale.deadline ()) ()
  in
  let o, w =
    with_dts_warnings (fun () ->
        Spt.plan (Planner.Ctx.make ~cap_per_node:64 ()) p)
  in
  Alcotest.(check string)
    "schedule" "ed2d268fba0635fe025a4ef87958628e"
    (Digest.to_hex (Digest.string (Schedule.to_csv o.Planner.Outcome.schedule)));
  Alcotest.(check (list int)) "everyone reached" [] o.Planner.Outcome.unreached;
  check_int "warnings" 1 w

(* nscale-500's first seed-42 instance, where every node starts at or
   above the cap: the schedule, the DTS point total and the scan's
   materialised vertices, pinned at the set-based closure, the
   binary-searching lazy view and the hash-table tree assembly. *)
let test_spt_lazy_pinned_scale_500 () =
  let params = { Scale.default_params with Scale.seed = 42 * 1_000_003 } in
  let g = Scale.scenario ~params ~n:500 () in
  let p =
    Problem.make ~graph:g ~phy ~channel:`Static ~source:0 ~deadline:(Scale.deadline ~params ()) ()
  in
  let points = Tmedb_obs.Counter.make "dts.points" in
  let materialized = Tmedb_obs.Counter.make "aux_graph.nodes_materialized" in
  let was = Tmedb_obs.enabled () in
  Tmedb_obs.set_enabled true;
  let p0 = Tmedb_obs.Counter.value points and m0 = Tmedb_obs.Counter.value materialized in
  let o, w =
    Fun.protect
      ~finally:(fun () -> Tmedb_obs.set_enabled was)
      (fun () ->
        with_dts_warnings (fun () -> Spt.plan (Planner.Ctx.make ~cap_per_node:64 ()) p))
  in
  Alcotest.(check string)
    "schedule" "28bf1add86ded2336fb9263a139f7716"
    (Digest.to_hex (Digest.string (Schedule.to_csv o.Planner.Outcome.schedule)));
  Alcotest.(check (list int)) "everyone reached" [] o.Planner.Outcome.unreached;
  check_int "DTS points" 119_663 (Tmedb_obs.Counter.value points - p0);
  check_int "nodes materialized" 277_822 (Tmedb_obs.Counter.value materialized - m0);
  check_int "warnings" 1 w

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "core"
    [
      ( "schedule",
        [
          tc "sorted and cost" test_schedule_sorted_and_cost;
          tc "validation" test_schedule_validation;
          tc "map costs" test_schedule_map_costs;
          tc "empty" test_schedule_empty;
          tc "equal" test_schedule_equal;
          tc "csv roundtrip" test_schedule_csv_roundtrip;
          tc "save/load" test_schedule_save_load;
        ] );
      ( "problem",
        [
          tc "validation" test_problem_validation;
          tc "reachability" test_problem_reachability;
          tc "gadget structure" test_gadget_structure;
          tc "gadget validation" test_gadget_validation;
          tc "gadget optimal k*=1" test_gadget_optimal_single_set;
          tc "gadget optimal k*=2" test_gadget_optimal_two_sets;
        ] );
      ("problem_clip", [ tc "restricts span" test_clip_restricts_span ]);
      ( "feasibility",
        [
          tc "valid schedule" test_feasibility_valid_schedule;
          tc "uninformed relay" test_feasibility_uninformed_relay;
          tc "missing node" test_feasibility_missing_node;
          tc "late transmission" test_feasibility_late_transmission;
          tc "budget" test_feasibility_budget;
          tc "cost out of range" test_feasibility_cost_out_of_range;
          tc "insufficient power" test_feasibility_insufficient_power;
          tc "same-instant chain" test_feasibility_same_instant_chain;
          tc "fading accumulates" test_feasibility_fading_accumulates;
          tc "DTS equivalence (Thm 5.2)" test_dts_equivalence_perturbation;
          QCheck_alcotest.to_alcotest prop_et_law_on_random_instances;
          QCheck_alcotest.to_alcotest prop_check_matches_reference;
        ] );
      ( "aux_graph",
        [
          tc "shape" test_aux_graph_shape;
          tc "extract roundtrip" test_aux_graph_extract_roundtrip;
          tc "deadline blocks late levels" test_aux_graph_deadline_blocks_late_levels;
          tc "lazy equivalence" test_aux_graph_pinned;
          tc "lazy equivalence capped, both touch orders" test_aux_graph_pinned_capped;
          tc "lazy frontier partial" test_lazy_frontier_is_partial;
        ] );
      ( "spt",
        [
          tc "quickstart" test_spt_quickstart;
          tc "lazy pinned" test_spt_lazy_pinned;
          tc "scale scenario end-to-end" test_spt_on_scale_scenario;
          tc "one query per sized block" test_spt_one_query_per_block;
          QCheck_alcotest.to_alcotest prop_spt_tree_matches_reference;
        ] );
      ( "eedcb",
        [
          tc "quickstart optimal" test_eedcb_quickstart_optimal;
          tc "respects deadline" test_eedcb_respects_deadline;
          tc "unreachable reported" test_eedcb_unreachable_reported;
          tc "level 1 works" test_eedcb_level1_works;
          tc "positive tau" test_eedcb_positive_tau;
          tc "tau too large" test_eedcb_tau_too_large;
          tc "schedule on DTS" test_eedcb_schedule_on_dts;
          tc "beats greedy on average" test_eedcb_beats_greedy_on_average;
          QCheck_alcotest.to_alcotest prop_eedcb_feasible_when_reachable;
        ] );
      ( "baselines",
        [
          tc "greedy feasible" test_greedy_feasible;
          tc "greedy monotone deadline" test_greedy_never_beats_itself_with_less_time;
          tc "greedy stalls gracefully" test_greedy_stalls_gracefully;
          tc "random deterministic" test_random_feasible_and_deterministic;
          tc "EEDCB beats baselines" test_eedcb_beats_baselines_quickstart;
        ] );
      ( "fr",
        [
          tc "requires fading" test_fr_requires_fading_channel;
          tc "fr-eedcb feasible" test_fr_eedcb_feasible;
          tc "allocation saves energy" test_fr_allocation_saves_energy;
          tc "fading >> static" test_fr_costs_more_than_static;
          tc "other backbones" test_fr_greedy_and_random_backbones;
          tc "respects bounds" test_fr_allocate_respects_bounds;
          tc "polish removes redundancy" test_fr_polish_removes_redundancy;
          tc "unsatisfiable reported" test_fr_unsatisfiable_when_uncovered;
          tc "nakagami channel" test_fr_nakagami_channel;
          tc "lognormal channel" test_fr_lognormal_channel;
          tc "same-instant cycle regression" test_fr_same_instant_cycle;
          tc "unfireable relays reported" test_fr_unfireable_relays_reported;
          QCheck_alcotest.to_alcotest prop_fr_allocation_feasible;
          tc "costs pinned per channel" test_fr_costs_pinned;
          QCheck_alcotest.to_alcotest prop_fr_kernel_matches_closures;
        ] );
      ( "static_bip",
        [
          tc "static network" test_bip_static_network;
          tc "one shot misses disjoint contacts" test_bip_one_shot_misses_disjoint_contacts;
          tc "best-distance power fails" test_bip_power_planned_on_best_distance;
          tc "snapshot unreachable" test_bip_snapshot_unreachable;
          tc "quickstart comparison" test_bip_quickstart_comparison;
        ] );
      ( "simulate",
        [
          tc "static deterministic" test_simulate_static_deterministic;
          tc "single-link rayleigh" test_simulate_single_link_rayleigh;
          tc "uninformed relay spends nothing" test_simulate_uninformed_relay_spends_nothing;
          tc "fr high delivery" test_simulate_fr_high_delivery;
          tc "static suffers in fading" test_simulate_static_design_suffers_in_fading;
          tc "deterministic in seed" test_simulate_deterministic_in_seed;
          QCheck_alcotest.to_alcotest prop_static_simulation_matches_analytic;
          QCheck_alcotest.to_alcotest prop_simulate_matches_reference;
        ] );
      ( "metrics",
        [
          tc "normalized energy" test_metrics_normalized_energy;
          tc "latency" test_metrics_latency;
          tc "LB single link" test_lower_bound_single_link_static;
          tc "LB additive refinement" test_lower_bound_additive_refinement;
          tc "LB unreachable infinite" test_lower_bound_unreachable_infinite;
          tc "LB below all algorithms" test_lower_bound_below_all_algorithms;
          tc "LB fading exceeds static" test_lower_bound_fading_exceeds_static;
        ] );
      ( "determinism",
        [
          tc "fig6 digest jobs=1/2/4" test_fig6_digest_jobs_invariant;
          tc "capped DTS pinned (Scale)" test_dts_cap_pinned_scale;
          tc "capped DTS pinned (mid-propagation)" test_dts_cap_pinned_mid_propagation;
          tc "capped DTS view pinned (Scale N=100)" test_dts_view_pinned_capped_scale;
          tc "lazy SPT pinned (Scale N=100)" test_spt_lazy_pinned_scale;
          tc "degree windows pinned" test_degree_windows_pinned;
          tc "source picks pinned" test_source_picks_pinned;
          tc "trace stats pinned" test_trace_stats_pinned;
          tc "lazy SPT pinned (Scale N=500)" test_spt_lazy_pinned_scale_500;
        ] );
    ]
