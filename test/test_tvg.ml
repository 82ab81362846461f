(* Tests for the temporal-graph queries of the sparse TVEG store:
   adjacent partitions (Def. 5.1, Eq. 9), presence, ρ_τ, degrees,
   earliest arrivals and temporal reachability. *)

open Tmedb_prelude
open Tmedb_tveg

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_floats = Alcotest.(check (array (float 1e-9)))
let iv lo hi = Interval.make ~lo ~hi
let span10 = iv 0. 10.
let graph ?(n = 4) ?(tau = 0.) pairs =
  Tveg.create ~n ~span:span10 ~tau
    (List.map (fun (i, j, lo, hi) -> (i, j, { Tveg.iv = iv lo hi; dist = 1. })) pairs)

(* ------------------------------------------------------------------ *)
(* Partition points *)

let test_partition_make () =
  (* Node 0's contact endpoints repeat 3 and 7; the span endpoints
     join them. *)
  let g = graph [ (0, 1, 3., 7.); (0, 2, 3., 7.); (0, 1, 7., 10.) ] in
  let p = Tveg.adjacent_partition g 0 in
  check_floats "points" [| 0.; 3.; 7.; 10. |] p;
  check_int "intervals" 3 (Array.length p - 1)

let test_partition_trivial () =
  let g = graph [ (0, 1, 3., 7.) ] in
  let p = Tveg.adjacent_partition g 3 in
  check_floats "two points" [| 0.; 10. |] p;
  check_int "one interval" 1 (Array.length p - 1)

(* ------------------------------------------------------------------ *)
(* Presence, ρ_τ and degrees *)

(* 0 -- 1 on [0,4) and [6,8);  1 -- 2 on [3,7);  isolated node 3. *)
let sample ?tau () = graph ?tau [ (0, 1, 0., 4.); (0, 1, 6., 8.); (1, 2, 3., 7.) ]

let test_tvg_presence () =
  let g = sample () in
  let present i j t = Tveg.rho_tau g i j t in
  check_bool "0-1 at 2" true (present 0 1 2.);
  check_bool "0-1 at 5" false (present 0 1 5.);
  check_bool "symmetric" true (present 1 0 2.);
  check_bool "1-2 at 3" true (present 1 2 3.);
  check_bool "0-2 never" false (present 0 2 3.)

let test_tvg_rho_tau () =
  check_bool "tau 0 inside" true (Tveg.rho_tau (sample ()) 0 1 3.9);
  check_bool "tau 1 fits" true (Tveg.rho_tau (sample ~tau:1. ()) 0 1 2.9);
  check_bool "tau 1 overruns" false (Tveg.rho_tau (sample ~tau:1. ()) 0 1 3.5);
  check_bool "tau spans gap" false (Tveg.rho_tau (sample ~tau:3. ()) 0 1 3.)

let test_tvg_neighbors_degree () =
  let g = sample () in
  let ids i t = List.map fst (Tveg.neighbors_at g i t) in
  Alcotest.(check (list int)) "n(1) at 3.5" [ 0; 2 ] (ids 1 3.5);
  Alcotest.(check (list int)) "n(1) at 5" [ 2 ] (ids 1 5.);
  check_int "deg(3)" 0 (List.length (ids 3 5.));
  let edges =
    List.concat_map
      (fun i ->
        Array.to_list (Tveg.neighbor_ids g i)
        |> List.filter_map (fun j -> if j > i then Some (i, j) else None))
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check (list (pair int int))) "edges" [ (0, 1); (1, 2) ] edges

let test_tvg_adjacent_partition () =
  let g = sample () in
  (* Union of 0-1 and 1-2 boundaries. *)
  check_floats "P^ad_1" [| 0.; 3.; 4.; 6.; 7.; 8.; 10. |] (Tveg.adjacent_partition g 1);
  check_floats "isolated trivial" [| 0.; 10. |] (Tveg.adjacent_partition g 3)

let test_tvg_average_degree () =
  let g = sample () in
  (* Total presence length = 4 + 2 + 4 = 10; degree integral = 2*10;
     nodes = 4; window length 10 -> 0.5. *)
  Alcotest.(check (float 1e-9)) "avg degree" 0.5 (Tveg.average_degree_over g ~window:span10)

let test_tvg_restrict () =
  let r = Tveg.restrict (sample ()) ~span:(iv 3. 7.) in
  let pieces i j = List.map (fun (l : Tveg.link) -> l.Tveg.iv) (Tveg.links r i j) in
  check_bool "0-1 clipped" true (List.equal Interval.equal [ iv 3. 4.; iv 6. 7. ] (pieces 0 1));
  check_bool "1-2 kept" true (List.equal Interval.equal [ iv 3. 7. ] (pieces 1 2))

let test_tvg_validation () =
  Alcotest.check_raises "self loop" (Invalid_argument "Tveg.create: self-loop") (fun () ->
      ignore (graph ~n:3 [ (1, 1, 0., 1.) ]));
  Alcotest.check_raises "out of span" (Invalid_argument "Tveg.create: link outside the span")
    (fun () -> ignore (Tveg.create ~n:3 ~span:span10 ~tau:0. [ (0, 1, { Tveg.iv = iv 5. 11.; dist = 1. }) ]))

(* ------------------------------------------------------------------ *)
(* Earliest arrivals *)

let test_earliest_arrival_waits_for_edge () =
  (* From node 2 starting at t=0: edge 1-2 opens at 3. *)
  let arr = Tveg.earliest_arrival (sample ()) ~src:2 ~t0:0. in
  Alcotest.(check (float 1e-9)) "reach 1 at 3" 3. arr.(1);
  Alcotest.(check (float 1e-9)) "reach 0 at 3 (chain)" 3. arr.(0);
  check_bool "node 3 unreachable" true (arr.(3) = Float.infinity)

let test_earliest_arrival_tau_delays () =
  let arr = Tveg.earliest_arrival (sample ~tau:1. ()) ~src:2 ~t0:0. in
  Alcotest.(check (float 1e-9)) "reach 1 at 4" 4. arr.(1);
  (* 0-1 gap [4,6): must wait for the second contact, depart 6 arrive 7. *)
  Alcotest.(check (float 1e-9)) "reach 0 at 7" 7. arr.(0)

let test_earliest_arrival_source () =
  let arr = Tveg.earliest_arrival (sample ()) ~src:0 ~t0:2. in
  Alcotest.(check (float 1e-9)) "source at t0" 2. arr.(0);
  Alcotest.(check (float 1e-9)) "1 immediately" 2. arr.(1);
  Alcotest.(check (float 1e-9)) "2 waits for 3" 3. arr.(2)

(* Random graphs for property tests. *)
let random_graph seed =
  let g = Rng.create seed in
  let n = 2 + Rng.int g 5 in
  let entries = ref [] in
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      for _ = 0 to Rng.int g 3 do
        let lo = Rng.float g 8. in
        let hi = lo +. 0.2 +. Rng.float g (9.8 -. lo) in
        entries := (i, j, lo, Float.min 10. hi) :: !entries
      done
    done
  done;
  graph ~n !entries

let prop_earliest_arrival_sound =
  QCheck.Test.make ~name:"earliest arrival >= t0, source = t0" ~count:100
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let arr = Tveg.earliest_arrival (random_graph seed) ~src:0 ~t0:1. in
      arr.(0) = 1. && Array.for_all (fun a -> a >= 1.) arr)

(* ------------------------------------------------------------------ *)
(* Reachability *)

let reachable g ~deadline =
  let arr = Tveg.earliest_arrival g ~src:0 ~t0:0. in
  List.filter (fun i -> arr.(i) <= deadline) (List.init (Tveg.n g) Fun.id)

let problem g ~deadline =
  Tmedb.Problem.make ~graph:g ~phy:Tmedb_channel.Phy.default ~channel:`Static ~source:0 ~deadline
    ()

let test_reachable_set () =
  let g = sample () in
  Alcotest.(check (list int)) "component" [ 0; 1; 2 ] (reachable g ~deadline:10.);
  check_bool "not broadcastable" false (Tmedb.Problem.is_reachable (problem g ~deadline:10.))

let test_reachable_deadline_cuts () =
  Alcotest.(check (list int)) "only 0,1 by t=2" [ 0; 1 ] (reachable (sample ()) ~deadline:2.)

let test_completion_time () =
  let g = graph ~n:3 [ (0, 1, 1., 2.); (1, 2, 5., 6.) ] in
  Alcotest.(check (float 1e-9)) "completion" 5.
    (Tmedb.Problem.completion_lower_bound (problem g ~deadline:10.));
  check_bool "infinite with isolated node" true
    (Tmedb.Problem.completion_lower_bound (problem (sample ()) ~deadline:10.) = Float.infinity)

let prop_reachability_monotone_deadline =
  QCheck.Test.make ~name:"reachable set grows with deadline" ~count:100
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let g = random_graph seed in
      let late = reachable g ~deadline:9. in
      List.for_all (fun i -> List.mem i late) (reachable g ~deadline:3.))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "tvg"
    [
      ( "partition",
        [ tc "make" test_partition_make; tc "trivial" test_partition_trivial ] );
      ( "tvg",
        [
          tc "presence" test_tvg_presence;
          tc "rho_tau" test_tvg_rho_tau;
          tc "neighbors/degree" test_tvg_neighbors_degree;
          tc "adjacent partition" test_tvg_adjacent_partition;
          tc "average degree" test_tvg_average_degree;
          tc "restrict" test_tvg_restrict;
          tc "validation" test_tvg_validation;
        ] );
      ( "journey",
        [
          tc "earliest waits for edge" test_earliest_arrival_waits_for_edge;
          tc "earliest tau delays" test_earliest_arrival_tau_delays;
          tc "earliest from source" test_earliest_arrival_source;
          QCheck_alcotest.to_alcotest prop_earliest_arrival_sound;
        ] );
      ( "reachability",
        [
          tc "reachable set" test_reachable_set;
          tc "deadline cuts" test_reachable_deadline_cuts;
          tc "completion time" test_completion_time;
          QCheck_alcotest.to_alcotest prop_reachability_monotone_deadline;
        ] );
    ]
