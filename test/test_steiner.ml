(* Tests for tmedb_steiner: CSR digraphs, Dijkstra, arborescences and
   the recursive-greedy directed Steiner tree solver. *)

open Tmedb_prelude
open Tmedb_steiner

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Digraph *)

let diamond () =
  (* 0 -> 1 (1), 0 -> 2 (4), 1 -> 2 (1), 1 -> 3 (5), 2 -> 3 (1) *)
  Digraph.of_edges ~n:4 [ (0, 1, 1.); (0, 2, 4.); (1, 2, 1.); (1, 3, 5.); (2, 3, 1.) ]

let test_digraph_basics () =
  let g = diamond () in
  check_int "n" 4 (Digraph.n g);
  check_int "m" 5 (Digraph.m g);
  check_int "outdeg 0" 2 (Digraph.out_degree g 0);
  check_int "outdeg 3" 0 (Digraph.out_degree g 3);
  Alcotest.(check (option (float 0.))) "weight" (Some 4.) (Digraph.edge_weight g 0 2);
  Alcotest.(check (option (float 0.))) "absent" None (Digraph.edge_weight g 3 0)

let test_digraph_parallel_edges () =
  let g = Digraph.of_edges ~n:2 [ (0, 1, 5.); (0, 1, 2.) ] in
  Alcotest.(check (option (float 0.))) "min parallel" (Some 2.) (Digraph.edge_weight g 0 1)

let test_digraph_reverse () =
  let g = Digraph.reverse (diamond ()) in
  Alcotest.(check (option (float 0.))) "reversed edge" (Some 1.) (Digraph.edge_weight g 1 0);
  Alcotest.(check (option (float 0.))) "forward gone" None (Digraph.edge_weight g 0 1)

let test_digraph_validation () =
  Alcotest.check_raises "negative weight" (Invalid_argument "Digraph.of_edges: negative weight")
    (fun () -> ignore (Digraph.of_edges ~n:2 [ (0, 1, -1.) ]));
  Alcotest.check_raises "range" (Invalid_argument "Digraph.of_edges: vertex out of range")
    (fun () -> ignore (Digraph.of_edges ~n:2 [ (0, 5, 1.) ]))

let test_digraph_fold () =
  let g = diamond () in
  let total = Digraph.fold_succ g 1 (fun acc _ w -> acc +. w) 0. in
  check_float "sum out of 1" 6. total

(* ------------------------------------------------------------------ *)
(* Dijkstra *)

let test_dijkstra_distances () =
  let g = diamond () in
  let r = Dijkstra.run g ~src:0 in
  check_float "d(0)" 0. r.Dijkstra.dist.(0);
  check_float "d(1)" 1. r.Dijkstra.dist.(1);
  check_float "d(2)" 2. r.Dijkstra.dist.(2);
  check_float "d(3)" 3. r.Dijkstra.dist.(3)

let test_dijkstra_unreachable () =
  let g = Digraph.of_edges ~n:3 [ (0, 1, 1.) ] in
  let r = Dijkstra.run g ~src:0 in
  check_bool "infinite" true (r.Dijkstra.dist.(2) = Float.infinity);
  check_bool "no path" true (Dijkstra.path r ~src:0 ~dst:2 = None)

let test_dijkstra_path () =
  let g = diamond () in
  let r = Dijkstra.run g ~src:0 in
  Alcotest.(check (option (list int))) "path" (Some [ 0; 1; 2; 3 ]) (Dijkstra.path r ~src:0 ~dst:3)

let test_dijkstra_path_edges () =
  let g = diamond () in
  let r = Dijkstra.run g ~src:0 in
  match Dijkstra.path_edges g r ~src:0 ~dst:3 with
  | None -> Alcotest.fail "expected path"
  | Some edges ->
      check_float "total" 3. (List.fold_left (fun acc (_, _, w) -> acc +. w) 0. edges)

let test_dijkstra_zero_weights () =
  let g = Digraph.of_edges ~n:3 [ (0, 1, 0.); (1, 2, 0.) ] in
  let r = Dijkstra.run g ~src:0 in
  check_float "zero chain" 0. r.Dijkstra.dist.(2)

let test_dijkstra_multi_source () =
  let g = Digraph.of_edges ~n:4 [ (0, 2, 5.); (1, 2, 1.); (2, 3, 1.) ] in
  let r = Dijkstra.run_multi g ~sources:[ 0; 1 ] in
  check_float "source 0" 0. r.Dijkstra.dist.(0);
  check_float "source 1" 0. r.Dijkstra.dist.(1);
  check_float "nearest source wins" 1. r.Dijkstra.dist.(2);
  check_float "chained" 2. r.Dijkstra.dist.(3)

let test_dijkstra_refine () =
  let g = Digraph.of_edges ~n:4 [ (0, 1, 10.); (2, 1, 1.); (1, 3, 1.) ] in
  let r = Dijkstra.run_multi g ~sources:[ 0 ] in
  check_float "before refine" 10. r.Dijkstra.dist.(1);
  Dijkstra.refine g r ~new_sources:[ 2 ];
  check_float "refined" 1. r.Dijkstra.dist.(1);
  check_float "downstream updated" 2. r.Dijkstra.dist.(3);
  check_float "old source kept" 0. r.Dijkstra.dist.(0)

let test_dijkstra_refine_noop () =
  (* Refining with an already-closer vertex must change nothing. *)
  let g = diamond () in
  let r = Dijkstra.run g ~src:0 in
  let before = Array.copy r.Dijkstra.dist in
  Dijkstra.refine g r ~new_sources:[ 0 ];
  Alcotest.(check (array (float 0.))) "unchanged" before r.Dijkstra.dist

let test_dijkstra_random_vs_bellman () =
  (* Cross-check Dijkstra against Bellman-Ford on random graphs. *)
  let rng = Rng.create 77 in
  for _ = 1 to 20 do
    let n = 4 + Rng.int rng 8 in
    let edges = ref [] in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if u <> v && Rng.unit_float rng < 0.35 then
          edges := (u, v, Rng.float rng 10.) :: !edges
      done
    done;
    let g = Digraph.of_edges ~n !edges in
    let r = Dijkstra.run g ~src:0 in
    (* Bellman-Ford. *)
    let dist = Array.make n Float.infinity in
    dist.(0) <- 0.;
    for _ = 1 to n do
      List.iter
        (fun (u, v, w) -> if dist.(u) +. w < dist.(v) then dist.(v) <- dist.(u) +. w)
        !edges
    done;
    for v = 0 to n - 1 do
      check_bool "agrees with bellman-ford" true
        (Futil.approx_eq ~abs:1e-9 dist.(v) r.Dijkstra.dist.(v)
        || (dist.(v) = Float.infinity && r.Dijkstra.dist.(v) = Float.infinity))
    done
  done

(* ------------------------------------------------------------------ *)
(* Arborescence *)

let test_arborescence_valid () =
  match Arborescence.of_edges ~n:4 ~root:0 [ (0, 1, 1.); (1, 2, 2.); (0, 3, 3.) ] with
  | Error e -> Alcotest.fail e
  | Ok t ->
      check_float "cost" 6. (Arborescence.cost t);
      check_bool "mem 2" true (Arborescence.mem t 2);
      Alcotest.(check (option int)) "depth 2" (Some 2) (Arborescence.depth t 2);
      Alcotest.(check (list int)) "vertices" [ 0; 1; 2; 3 ] (Arborescence.vertices t);
      check_bool "spans" true (Arborescence.spans t [ 1; 3 ]);
      (match Arborescence.topological_order t with
      | 0 :: rest -> check_int "root first" 3 (List.length rest)
      | _ -> Alcotest.fail "root must come first")

let test_arborescence_two_parents () =
  match Arborescence.of_edges ~n:3 ~root:0 [ (0, 1, 1.); (2, 1, 1.) ] with
  | Error e -> check_bool "two parents" true (e = "vertex 1 has two parents")
  | Ok _ -> Alcotest.fail "expected error"

let test_arborescence_cycle () =
  match Arborescence.of_edges ~n:3 ~root:0 [ (1, 2, 1.); (2, 1, 1.) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected cycle/disconnection error"

let test_arborescence_reparent_root () =
  match Arborescence.of_edges ~n:2 ~root:0 [ (1, 0, 1.) ] with
  | Error e -> check_bool "root" true (e = "edge re-parents the root")
  | Ok _ -> Alcotest.fail "expected error"

(* ------------------------------------------------------------------ *)
(* Dst *)

let test_dst_star () =
  (* Root connects to each terminal directly: tree = all edges. *)
  let g = Digraph.of_edges ~n:4 [ (0, 1, 1.); (0, 2, 2.); (0, 3, 3.) ] in
  let o = Dst.solve g ~root:0 ~terminals:[ 1; 2; 3 ] in
  check_bool "all covered" true (o.Dst.uncovered = []);
  check_float "cost" 6. o.Dst.tree.Dst.cost

let test_dst_shares_path () =
  (* Terminals 2 and 3 behind a shared expensive edge: the tree must
     pay it once. *)
  let g = Digraph.of_edges ~n:4 [ (0, 1, 10.); (1, 2, 1.); (1, 3, 1.) ] in
  let o = Dst.solve g ~root:0 ~terminals:[ 2; 3 ] in
  check_bool "covered" true (o.Dst.uncovered = []);
  check_float "shared trunk" 12. o.Dst.tree.Dst.cost

let test_dst_level2_beats_level1_sometimes () =
  (* Classic trap: direct edges cost 6 each, a shared hub costs
     7 + 1 + 1 + 1 = 10 for three terminals vs 18 direct. *)
  let g =
    Digraph.of_edges ~n:5
      [ (0, 4, 7.); (4, 1, 1.); (4, 2, 1.); (4, 3, 1.); (0, 1, 6.); (0, 2, 6.); (0, 3, 6.) ]
  in
  let o1 = Dst.solve ~level:1 g ~root:0 ~terminals:[ 1; 2; 3 ] in
  let o2 = Dst.solve ~level:2 g ~root:0 ~terminals:[ 1; 2; 3 ] in
  check_bool "both cover" true (o1.Dst.uncovered = [] && o2.Dst.uncovered = []);
  check_float "level 2 optimal" 10. o2.Dst.tree.Dst.cost;
  check_bool "level 2 <= level 1" true (o2.Dst.tree.Dst.cost <= o1.Dst.tree.Dst.cost)

let test_dst_unreachable_terminal () =
  let g = Digraph.of_edges ~n:3 [ (0, 1, 1.) ] in
  let o = Dst.solve g ~root:0 ~terminals:[ 1; 2 ] in
  Alcotest.(check (list int)) "uncovered" [ 2 ] o.Dst.uncovered;
  Alcotest.(check (list int)) "covered" [ 1 ] o.Dst.tree.Dst.covered

let test_dst_root_terminal_free () =
  let g = Digraph.of_edges ~n:2 [ (0, 1, 1.) ] in
  let o = Dst.solve g ~root:0 ~terminals:[ 0; 1 ] in
  check_bool "root not counted uncovered" true (o.Dst.uncovered = []);
  check_float "cost 1" 1. o.Dst.tree.Dst.cost

let test_dst_prune_removes_slack () =
  let g = Digraph.of_edges ~n:4 [ (0, 1, 1.); (1, 2, 1.); (0, 3, 1.) ] in
  (* A tree with a useless edge 0->3 when only terminal 2 matters. *)
  let bloated = { Dst.edges = [ (0, 1, 1.); (1, 2, 1.); (0, 3, 1.) ]; cost = 3.; covered = [ 2 ] } in
  let pruned = Dst.prune g ~root:0 bloated in
  check_float "slack removed" 2. pruned.Dst.cost

let test_dst_tree_cost_dedups () =
  check_float "dedup" 3. (Dst.tree_cost [ (0, 1, 1.); (0, 1, 1.); (1, 2, 2.) ])

let test_dst_validation () =
  let g = diamond () in
  Alcotest.check_raises "level" (Invalid_argument "Dst.solve: level < 1") (fun () ->
      ignore (Dst.solve ~level:0 g ~root:0 ~terminals:[ 1 ]));
  Alcotest.check_raises "terminal range" (Invalid_argument "Dst.solve: terminal out of range")
    (fun () -> ignore (Dst.solve g ~root:0 ~terminals:[ 9 ]))

let test_dst_candidate_restriction () =
  (* Restricting branch points still covers everything (paths may pass
     through non-candidate vertices). *)
  let g =
    Digraph.of_edges ~n:5
      [ (0, 4, 7.); (4, 1, 1.); (4, 2, 1.); (4, 3, 1.); (0, 1, 6.); (0, 2, 6.); (0, 3, 6.) ]
  in
  let o = Dst.solve ~level:2 ~candidates:[ 0 ] g ~root:0 ~terminals:[ 1; 2; 3 ] in
  check_bool "covers all" true (o.Dst.uncovered = []);
  (* The full-candidate solve can only be at least as good. *)
  let full = Dst.solve ~level:2 g ~root:0 ~terminals:[ 1; 2; 3 ] in
  check_bool "restriction never helps" true (full.Dst.tree.Dst.cost <= o.Dst.tree.Dst.cost +. 1e-9)

let test_dst_tie_order () =
  (* Terminals 2 and 3 are both at distance 2 from the root 1, and the
     first greedy round connects one of them straight from the root.
     Equal distances are taken in terminal order, so 2 goes first and
     3 then also comes from the root.  Taking 3 first would reach 2
     through 3 -> 0 -> 2 instead: the same cost, other edges. *)
  let g =
    Digraph.of_edges ~n:4
      [ (0, 2, 1.); (0, 3, 2.); (1, 0, 2.); (1, 2, 2.); (1, 3, 2.); (2, 0, 1.); (2, 1, 1.); (3, 0, 1.) ]
  in
  let o = Dst.solve ~level:2 g ~root:1 ~terminals:[ 2; 3 ] in
  Alcotest.(check (list (triple int int (float 0.))))
    "edges" [ (1, 2, 2.); (1, 3, 2.) ] o.Dst.tree.Dst.edges

(* Random-instance properties: the solution covers every reachable
   terminal, its edges exist in the graph, its cost >= the shortest
   path to the farthest covered terminal (trivial lower bound) and <=
   the sum of individual shortest paths (upper bound of A1). *)
let random_graph seed =
  let rng = Rng.create seed in
  let n = 5 + Rng.int rng 10 in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Rng.unit_float rng < 0.3 then edges := (u, v, 0.5 +. Rng.float rng 9.5) :: !edges
    done
  done;
  (Digraph.of_edges ~n !edges, n, rng)

let prop_dst_sound =
  QCheck.Test.make ~name:"DST covers reachable terminals within A1 bound" ~count:60
    QCheck.small_int (fun seed ->
      let g, n, rng = random_graph seed in
      let terminals =
        List.sort_uniq Int.compare (List.init 4 (fun _ -> 1 + Rng.int rng (n - 1)))
      in
      let o = Dst.solve ~level:2 g ~root:0 ~terminals in
      let r = Dijkstra.run g ~src:0 in
      let reachable = List.filter (fun t -> Float.is_finite r.Dijkstra.dist.(t)) terminals in
      let covered_ok = List.for_all (fun t -> List.mem t o.Dst.tree.Dst.covered) reachable in
      let edges_exist =
        List.for_all
          (fun (u, v, w) ->
            match Digraph.edge_weight g u v with Some w0 -> w0 <= w +. 1e-9 | None -> false)
          o.Dst.tree.Dst.edges
      in
      let a1_bound =
        List.fold_left (fun acc t -> acc +. r.Dijkstra.dist.(t)) 0. reachable
      in
      covered_ok && edges_exist && o.Dst.tree.Dst.cost <= a1_bound +. 1e-6)

let prop_dst_prune_keeps_coverage =
  QCheck.Test.make ~name:"prune keeps coverage, never raises cost" ~count:60 QCheck.small_int
    (fun seed ->
      let g, n, rng = random_graph (seed + 1000) in
      let terminals =
        List.sort_uniq Int.compare (List.init 3 (fun _ -> 1 + Rng.int rng (n - 1)))
      in
      let o = Dst.solve ~level:2 g ~root:0 ~terminals in
      let pruned = Dst.prune g ~root:0 o.Dst.tree in
      pruned.Dst.cost <= o.Dst.tree.Dst.cost +. 1e-9
      &&
      let sub = Digraph.of_edges ~n:(Digraph.n g) pruned.Dst.edges in
      let r = Dijkstra.run sub ~src:0 in
      List.for_all (fun t -> Float.is_finite r.Dijkstra.dist.(t)) o.Dst.tree.Dst.covered)

let prop_dst_pruned_is_arborescence =
  QCheck.Test.make ~name:"pruned trees are arborescences" ~count:60 QCheck.small_int
    (fun seed ->
      let g, n, rng = random_graph (seed + 2000) in
      let terminals =
        List.sort_uniq Int.compare (List.init 3 (fun _ -> 1 + Rng.int rng (n - 1)))
      in
      let o = Dst.solve ~level:2 g ~root:0 ~terminals in
      let pruned = Dst.prune g ~root:0 o.Dst.tree in
      match Arborescence.of_edges ~n:(Digraph.n g) ~root:0 pruned.Dst.edges with
      | Ok t -> Arborescence.spans t pruned.Dst.covered
      | Error _ -> false)

(* Random multigraphs built to tie: small integer weights, zero-weight
   edges, self-loops and a duplicate (parallel) edge for about one edge
   in four, so pop order among equal keys decides predecessors. *)
let random_multigraph seed =
  let rng = Rng.create seed in
  let n = 1 + Rng.int rng 14 in
  let weight () = if Rng.unit_float rng < 0.3 then 0. else float_of_int (Rng.int rng 4) in
  let edges = ref [] in
  for _ = 1 to Rng.int rng (4 * n) do
    let u = Rng.int rng n and v = Rng.int rng n in
    edges := (u, v, weight ()) :: !edges;
    if Rng.unit_float rng < 0.25 then edges := (u, v, weight ()) :: !edges
  done;
  (Digraph.of_edges ~n !edges, n, rng)

let c_settled = Tmedb_obs.Counter.make "dijkstra.settled"

(* [f ()] with telemetry on, and the [dijkstra.settled] it added. *)
let counting_settled f =
  Tmedb_obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Tmedb_obs.set_enabled false) (fun () ->
      let before = Tmedb_obs.Counter.value c_settled in
      let x = f () in
      (x, Tmedb_obs.Counter.value c_settled - before))

let same_result a b = a.Dijkstra.dist = b.Dijkstra.dist && a.Dijkstra.pred = b.Dijkstra.pred

(* A stop set over every vertex can only fire once every vertex is
   settled, when every queued entry is stale: [run_view] and
   [refine_view] then leave dist, pred and [dijkstra.settled] exactly
   as without targets (which is why Dst passes none unrestricted). *)
let prop_dijkstra_all_targets_is_full_drain =
  QCheck.Test.make ~name:"all-vertex targets = no targets" ~count:300
    QCheck.small_int (fun seed ->
      let g, n, rng = random_multigraph seed in
      let vw = Digraph.view g in
      let all = List.init n Fun.id in
      let src = Rng.int rng n in
      let full, settled_full = counting_settled (fun () -> Dijkstra.run_view vw ~src) in
      let stop, settled_stop =
        counting_settled (fun () -> Dijkstra.run_view ~targets:all vw ~src)
      in
      let new_sources = List.filter (fun _ -> Rng.unit_float rng < 0.3) all in
      let copy r = { Dijkstra.dist = Array.copy r.Dijkstra.dist; pred = Array.copy r.Dijkstra.pred } in
      let refined = copy full and refined_stop = copy full in
      let (), refine_settled =
        counting_settled (fun () -> Dijkstra.refine_view vw refined ~new_sources)
      in
      let (), refine_settled_stop =
        counting_settled (fun () ->
            Dijkstra.refine_view ~targets:all vw refined_stop ~new_sources)
      in
      same_result full stop && settled_full = settled_stop
      && same_result refined refined_stop
      && refine_settled = refine_settled_stop)

(* Naming every vertex a candidate runs every Dijkstra with a stop set
   over all vertices; the solve must not notice. *)
let prop_dst_all_candidates_is_unrestricted =
  QCheck.Test.make ~name:"all-vertex candidates = no candidates" ~count:300
    QCheck.small_int (fun seed ->
      let g, n, rng = random_multigraph (seed + 3000) in
      let terminals = List.init 5 (fun _ -> Rng.int rng n) in
      let root = Rng.int rng n in
      let level = 1 + Rng.int rng 2 in
      let a = Dst.solve ~level g ~root ~terminals in
      let b = Dst.solve ~level ~candidates:(List.init n Fun.id) g ~root ~terminals in
      a.Dst.tree.Dst.edges = b.Dst.tree.Dst.edges
      && a.Dst.tree.Dst.covered = b.Dst.tree.Dst.covered
      && a.Dst.uncovered = b.Dst.uncovered
      && Printf.sprintf "%h" a.Dst.tree.Dst.cost = Printf.sprintf "%h" b.Dst.tree.Dst.cost)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "steiner"
    [
      ( "digraph",
        [
          tc "basics" test_digraph_basics;
          tc "parallel edges" test_digraph_parallel_edges;
          tc "reverse" test_digraph_reverse;
          tc "validation" test_digraph_validation;
          tc "fold" test_digraph_fold;
        ] );
      ( "dijkstra",
        [
          tc "distances" test_dijkstra_distances;
          tc "unreachable" test_dijkstra_unreachable;
          tc "path" test_dijkstra_path;
          tc "path edges" test_dijkstra_path_edges;
          tc "zero weights" test_dijkstra_zero_weights;
          tc "multi source" test_dijkstra_multi_source;
          tc "refine" test_dijkstra_refine;
          tc "refine noop" test_dijkstra_refine_noop;
          tc "random vs bellman-ford" test_dijkstra_random_vs_bellman;
          QCheck_alcotest.to_alcotest prop_dijkstra_all_targets_is_full_drain;
        ] );
      ( "arborescence",
        [
          tc "valid" test_arborescence_valid;
          tc "two parents" test_arborescence_two_parents;
          tc "cycle" test_arborescence_cycle;
          tc "reparent root" test_arborescence_reparent_root;
        ] );
      ( "dst",
        [
          tc "star" test_dst_star;
          tc "shares path" test_dst_shares_path;
          tc "level 2 beats level 1" test_dst_level2_beats_level1_sometimes;
          tc "unreachable terminal" test_dst_unreachable_terminal;
          tc "root terminal free" test_dst_root_terminal_free;
          tc "prune removes slack" test_dst_prune_removes_slack;
          tc "tree cost dedups" test_dst_tree_cost_dedups;
          tc "validation" test_dst_validation;
          tc "candidate restriction" test_dst_candidate_restriction;
          QCheck_alcotest.to_alcotest prop_dst_sound;
          QCheck_alcotest.to_alcotest prop_dst_prune_keeps_coverage;
          QCheck_alcotest.to_alcotest prop_dst_pruned_is_arborescence;
          QCheck_alcotest.to_alcotest prop_dst_all_candidates_is_unrestricted;
          tc "tie order" test_dst_tie_order;
        ] );
    ]
