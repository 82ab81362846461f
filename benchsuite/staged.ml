(* The traced pass's replay of the planners through the layers' public
   functions.  Each function follows its planner in lib/core call for
   call (same arguments, same order), so its schedule must equal the
   planner's bit for bit; the harness checks that.  Every call is timed
   from outside and booked under its layer's metric name. *)

open Tmedb
open Tmedb_prelude
open Tmedb_steiner
module L = Measure.Layers

type plan = { schedule : Schedule.t; report : Feasibility.report; unreached : int list }

let c_settled = Tmedb_obs.Counter.make "dijkstra.settled"

(* The planners clip the graph at the deadline before anything else. *)
let restrict (problem : Problem.t) =
  let graph = problem.Problem.graph in
  let span = Tmedb_tveg.Tveg.span graph in
  let sub = Interval.make ~lo:span.Interval.lo ~hi:problem.Problem.deadline in
  {
    problem with
    Problem.graph =
      L.step "tveg.build_s" (fun () -> Tmedb_tveg.Tveg.restrict graph ~span:sub);
  }

(* A planner's shortest-path search over wrapped auxiliary-graph views.
   [f] receives the wrapper to apply to every view it searches.  The
   search's own time and words exclude successor generation, which is
   booked under aux_graph.*; the settled-vertex count is kept for
   dijkstra.ns_per_settled. *)
let search f =
  let gen = { L.secs = 0.; words = 0. } in
  let settled0 = Tmedb_obs.Counter.value c_settled in
  let w0 = Measure.alloc_words () in
  let r, dt = Measure.timed (fun () -> f (L.wrap_view gen)) in
  let words = (Measure.alloc_words () -. w0) /. 1e6 and gen_mw = gen.L.words /. 1e6 in
  L.add "aux_graph.gen_s" gen.L.secs;
  L.add "aux_graph.alloc_mw" gen_mw;
  L.add "steiner.search_s" (dt -. gen.L.secs);
  L.add "steiner.alloc_mw" (words -. gen_mw);
  L.add_time "search.s" dt;
  L.add "search.settled" (float_of_int (Tmedb_obs.Counter.value c_settled - settled0));
  r

let materialized ~nodes ~total =
  L.add "aux_graph.nodes_materialized" (float_of_int nodes);
  L.add "aux_graph.lazy_nodes_total" (float_of_int total)

let node_of = function Aux_graph.Wait { node; _ } | Aux_graph.Level { node; _ } -> node
let feasibility problem schedule =
  L.step "feasibility.check_s" (fun () -> Feasibility.check problem schedule)

(* Eedcb.plan without a shared solve state: eager auxiliary graph. *)
let eedcb ~cap problem =
  let problem = restrict problem in
  let dts = L.step "dts.s" (fun () -> Problem.dts ~cap_per_node:cap problem) in
  let aux =
    L.step ~alloc:"aux_graph.alloc_mw" "aux_graph.build_s" (fun () -> Aux_graph.build problem dts)
  in
  let g = aux.Aux_graph.graph and root = aux.Aux_graph.source_vertex in
  materialized ~nodes:(Digraph.n g) ~total:(Digraph.n g);
  let outcome =
    search (fun wrap ->
        Dst.solve_views ~level:2
          ~fwd:(wrap (Digraph.view g))
          ~rev:(wrap (Digraph.view (Digraph.reverse g)))
          ~root ~terminals:aux.Aux_graph.terminals ())
  in
  let pruned = L.step "dst.prune_s" (fun () -> Dst.prune g ~root outcome.Dst.tree) in
  let schedule =
    L.step "aux_graph.extract_s" (fun () -> Aux_graph.extract_schedule aux pruned)
  in
  {
    schedule;
    report = feasibility problem schedule;
    unreached = List.map (fun t -> node_of aux.Aux_graph.vertex.(t)) outcome.Dst.uncovered;
  }

(* Eedcb.plan under a shared Solve_state (one Pareto point): lazy views
   over the state's DTS view, marginals and id layout. *)
let eedcb_shared st (p : Problem.t) =
  let deadline = p.Problem.deadline in
  let problem = restrict p in
  let dts = L.step "dts.s" (fun () -> Solve_state.dts_at st ~deadline) in
  let layout = L.step "solve_state.layout_s" (fun () -> Solve_state.layout st dts) in
  let aux =
    L.step ~alloc:"aux_graph.alloc_mw" "aux_graph.build_s" (fun () ->
        Aux_graph.Lazy.create_with
          ~marginals:(Solve_state.marginals st ~deadline)
          ~base:layout.Solve_state.base ~level_off:layout.Solve_state.level_off
          ~edge_bound:layout.Solve_state.edge_bound problem dts)
  in
  let root = Aux_graph.Lazy.source_vertex aux in
  let outcome =
    search (fun wrap ->
        Dst.solve_views ~level:2
          ~fwd:(wrap (Aux_graph.Lazy.view aux))
          ~rev:(wrap (Aux_graph.Lazy.rev_view aux))
          ~root ~terminals:(Aux_graph.Lazy.terminals aux) ())
  in
  let pruned =
    L.step "dst.prune_s" (fun () ->
        Dst.prune_within ~nv:(Aux_graph.Lazy.num_vertices aux) ~root outcome.Dst.tree)
  in
  let schedule =
    L.step "aux_graph.extract_s" (fun () -> Aux_graph.Lazy.extract_schedule aux pruned)
  in
  materialized
    ~nodes:(Aux_graph.Lazy.nodes_materialized aux)
    ~total:(Aux_graph.Lazy.num_vertices aux);
  {
    schedule;
    report = feasibility problem schedule;
    unreached =
      List.map (fun t -> node_of (Aux_graph.Lazy.describe aux t)) outcome.Dst.uncovered;
  }

(* Spt.plan on the lazy auxiliary graph: one targeted Dijkstra scan,
   then the union of the predecessor paths to the reached terminals
   (Spt's own assembly, repeated here because it is not exported; it
   runs inside the search because it reads the same view). *)
let spt ~cap problem =
  let problem = restrict problem in
  let dts = L.step "dts.s" (fun () -> Problem.dts ~cap_per_node:cap problem) in
  let aux =
    L.step ~alloc:"aux_graph.alloc_mw" "aux_graph.build_s" (fun () ->
        Aux_graph.Lazy.create problem dts)
  in
  let root = Aux_graph.Lazy.source_vertex aux in
  let terminals = Aux_graph.Lazy.terminals aux in
  let tree, unreached_terms =
    search (fun wrap ->
        let fwd = wrap (Aux_graph.Lazy.view aux) in
        let res = Dijkstra.run_view ~targets:terminals fwd ~src:root in
        let reached, unreached_terms =
          List.partition (fun t -> res.Dijkstra.dist.(t) < Float.infinity) terminals
        in
        let in_tree = Bitset.create (Aux_graph.Lazy.num_vertices aux) in
        Bitset.set in_tree root;
        let edge_tbl = Hashtbl.create 64 in
        List.iter
          (fun term ->
            let v = ref term in
            while not (Bitset.mem in_tree !v) do
              Bitset.set in_tree !v;
              let u = res.Dijkstra.pred.(!v) in
              match Digraph.view_edge_weight fwd u !v with
              | Some w ->
                  Hashtbl.replace edge_tbl (u, !v) w;
                  v := u
              | None -> invalid_arg "Staged.spt: predecessor edge missing from view"
            done)
          reached;
        let edges =
          Hashtbl.fold (fun (u, v) w acc -> (u, v, w) :: acc) edge_tbl []
          |> List.sort (fun (u1, v1, _) (u2, v2, _) ->
                 let c = Int.compare u1 u2 in
                 if c <> 0 then c else Int.compare v1 v2)
        in
        ( { Dst.edges; cost = Dst.tree_cost edges; covered = List.sort Int.compare reached },
          unreached_terms ))
  in
  let schedule = L.step "aux_graph.extract_s" (fun () -> Aux_graph.Lazy.extract_schedule aux tree) in
  materialized
    ~nodes:(Aux_graph.Lazy.nodes_materialized aux)
    ~total:(Aux_graph.Lazy.num_vertices aux);
  {
    schedule;
    report = feasibility problem schedule;
    unreached = List.map (fun t -> node_of (Aux_graph.Lazy.describe aux t)) unreached_terms;
  }

(* GREED and RAND have no public inner stages: timed whole. *)
let black_box ctx plan problem =
  let o = L.step "greedy.plan_s" (fun () -> plan ctx problem) in
  {
    schedule = o.Planner.Outcome.schedule;
    report = o.Planner.Outcome.report;
    unreached = o.Planner.Outcome.unreached;
  }

(* Fr.plan_with: the backbone planner, then the NLP energy allocation
   and a feasibility check on the unclipped instance. *)
let fr backbone problem =
  let stage1 = backbone problem in
  let schedule, _ =
    L.step ~alloc:"fr.alloc_mw" "fr.allocate_s" (fun () -> Fr.allocate problem stage1.schedule)
  in
  { schedule; report = feasibility problem schedule; unreached = stage1.unreached }

(* Planner.run of a registry planner with the one-shot eager context
   Experiment.run_alg builds. *)
let plan ~cap ~ctx name problem =
  let backbone = function
    | "EEDCB" -> eedcb ~cap
    | "GREED" -> black_box ctx Greedy.plan
    | "RAND" -> black_box ctx Random_relay.plan
    | other -> invalid_arg ("Staged.plan: no staged pipeline for " ^ other)
  in
  match String.split_on_char '-' name with
  | [ "FR"; base ] -> fr (backbone base) problem
  | _ -> backbone name problem
