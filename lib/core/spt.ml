open Tmedb_steiner

(* Shortest-path-tree planner: one forward targeted Dijkstra over the
   auxiliary graph, union of the predecessor paths to every terminal.
   Energy-wise this is EEDCB at recursion level 0 — each node is
   reached by its individually cheapest chain, with no Steiner sharing
   beyond what the paths overlap on — but the whole plan costs a
   single scan.  On the lazy auxiliary graph that scan only expands
   the frontier below the last terminal's settling distance, which is
   what makes N in the thousands tractable (`bench nscale`). *)

let c_runs = Tmedb_obs.Counter.make "spt.runs"
let t_run = Tmedb_obs.Timer.make "spt.run"

let plan (ctx : Planner.Ctx.t) problem =
  Tmedb_obs.Counter.incr c_runs;
  let t0 = Tmedb_obs.Timer.start t_run in
  Fun.protect ~finally:(fun () -> Tmedb_obs.Timer.stop t_run t0) @@ fun () ->
  Tmedb_obs.Span.with_ "spt.run" @@ fun () ->
  let deadline = problem.Problem.deadline in
  (* The shared state is keyed by the unrestricted graph value:
     validate against the problem as handed to us, before clipping. *)
  (match ctx.Planner.Ctx.solve_state with
  | Some st ->
      Solve_state.check_compatible st problem ~cap_per_node:ctx.Planner.Ctx.cap_per_node
  | None -> ());
  let problem = Problem.clip problem in
  let dts =
    Tmedb_obs.Span.with_ "spt.dts" (fun () ->
        match ctx.Planner.Ctx.solve_state with
        | Some st -> Solve_state.dts_at st ~deadline
        | None -> Problem.dts ?cap_per_node:ctx.Planner.Ctx.cap_per_node problem)
  in
  (* One targeted scan touches a small share of the universe, so SPT
     always runs on the lazy view; the only choice is where the graph's
     layout and marginals come from. *)
  let aux =
    Tmedb_obs.Span.with_ "spt.aux" (fun () ->
        match ctx.Planner.Ctx.solve_state with
        | Some st ->
            let layout = Solve_state.layout st dts in
            Aux_graph.Lazy.create_with
              ~marginals:(Solve_state.marginals st ~deadline)
              ~base:layout.Solve_state.base ~level_off:layout.Solve_state.level_off
              ~edge_bound:layout.Solve_state.edge_bound problem dts
        | None -> Aux_graph.Lazy.create problem dts)
  in
  let fwd = Aux_graph.Lazy.view aux and root = Aux_graph.Lazy.source_vertex aux in
  let terminals = Aux_graph.Lazy.terminals aux in
  let res =
    Tmedb_obs.Span.with_ "spt.dijkstra" (fun () ->
        Dijkstra.run_view ~targets:terminals fwd ~src:root)
  in
  let reached, unreached_terms =
    List.partition (fun t -> res.Dijkstra.dist.(t) < Float.infinity) terminals
  in
  (* Union of predecessor paths, walking each chain only down to the
     first vertex already in the tree.  Each vertex enters once, as the
     head of one edge, so the keys u * nv + v are distinct, and the
     edges are listed in key order, independent of walk order. *)
  let nv = Aux_graph.Lazy.num_vertices aux in
  let in_tree = Tmedb_prelude.Bitset.create nv in
  Tmedb_prelude.Bitset.set in_tree root;
  let keys = ref [||] and weights = ref [||] and m = ref 0 in
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
        if !m = Array.length !keys then begin
          let cap = max 64 (2 * !m) in
          keys := Array.append !keys (Array.make (cap - !m) 0);
          weights := Array.append !weights (Array.make (cap - !m) 0.)
        end;
        !keys.(!m) <- (u * nv) + !v;
        !weights.(!m) <- w;
        incr m;
        v := u
      done)
    reached;
  let keys = Array.sub !keys 0 !m and weights = !weights in
  let edges =
    Array.fold_right
      (fun e acc -> (keys.(e) / nv, keys.(e) mod nv, weights.(e)) :: acc)
      (Tmedb_prelude.Keysort.order keys) []
  in
  let tree = { Dst.edges; cost = Dst.tree_cost edges; covered = List.sort Int.compare reached } in
  let schedule = Aux_graph.Lazy.extract_schedule aux tree in
  let report =
    Tmedb_obs.Span.with_ "spt.feasibility" (fun () -> Feasibility.check problem schedule)
  in
  let node_of term =
    match Aux_graph.Lazy.describe aux term with
    | Aux_graph.Wait { node; _ } | Aux_graph.Level { node; _ } -> node
  in
  Planner.Outcome.make ~schedule ~report
    ~unreached:(List.map node_of unreached_terms)
    ~artifacts:
      [
        Planner.Outcome.Steiner_tree
          {
            tree;
            aux_vertices = Aux_graph.Lazy.num_vertices aux;
            aux_edges = Aux_graph.Lazy.edge_bound aux;
            dts_points = Tmedb_tveg.Dts.total_points dts;
          };
      ]
    ()

let info =
  {
    Planner.name = "SPT";
    channel = `Static;
    section = "VI-A";
    summary = "single-scan shortest-path tree over the auxiliary graph";
  }

let planner = { Planner.info; plan }
