open Tmedb_steiner

(* Telemetry: the whole pipeline is timed, and each stage gets a trace
   span so a --trace file shows where a run's time goes. *)
let c_runs = Tmedb_obs.Counter.make "eedcb.runs"
let t_run = Tmedb_obs.Timer.make "eedcb.run"

let plan (ctx : Planner.Ctx.t) problem =
  let level = ctx.Planner.Ctx.steiner_level in
  let cap_per_node = ctx.Planner.Ctx.cap_per_node in
  Tmedb_obs.Counter.incr c_runs;
  let t0 = Tmedb_obs.Timer.start t_run in
  Fun.protect ~finally:(fun () -> Tmedb_obs.Timer.stop t_run t0) @@ fun () ->
  Tmedb_obs.Span.with_ "eedcb.run" @@ fun () ->
  let deadline = problem.Problem.deadline in
  (* The shared state is keyed by the unrestricted graph value:
     validate against the problem as handed to us, before clipping. *)
  (match ctx.Planner.Ctx.solve_state with
  | Some st -> Solve_state.check_compatible st problem ~cap_per_node
  | None -> ());
  (* Contacts after the deadline can never matter: clip them away so
     the DTS closure and the DCS queries walk shorter link lists. *)
  let problem =
    let open Tmedb_tveg in
    let span = Tveg.span problem.Problem.graph in
    let sub = Tmedb_prelude.Interval.make ~lo:span.Tmedb_prelude.Interval.lo
        ~hi:problem.Problem.deadline in
    { problem with Problem.graph = Tveg.restrict problem.Problem.graph ~span:sub }
  in
  let stage name detail =
    if Tmedb_report.Provenance.enabled () then
      Tmedb_report.Provenance.emit (Tmedb_report.Provenance.Stage { stage = name; detail })
  in
  let dts =
    Tmedb_obs.Span.with_ "eedcb.dts" (fun () ->
        match ctx.Planner.Ctx.solve_state with
        | Some st -> Solve_state.dts_at st ~deadline
        | None -> Problem.dts ?cap_per_node problem)
  in
  stage "dts" (Printf.sprintf "%d points" (Tmedb_tveg.Dts.total_points dts));
  (* Dst reads every vertex, so the search runs on the forced CSR; the
     only choice is where the lazy graph's layout and marginals come
     from. *)
  let aux =
    match ctx.Planner.Ctx.solve_state with
    | Some st ->
        Tmedb_obs.Span.with_ "eedcb.aux" (fun () ->
            let layout = Solve_state.layout st dts in
            Aux_graph.force
              (Aux_graph.Lazy.create_with
                 ~marginals:(Solve_state.marginals st ~deadline)
                 ~base:layout.Solve_state.base ~level_off:layout.Solve_state.level_off
                 ~edge_bound:layout.Solve_state.edge_bound problem dts))
    | None -> Aux_graph.build problem dts
  in
  let g = aux.Aux_graph.graph and root = aux.Aux_graph.source_vertex in
  stage "aux_graph" (Printf.sprintf "%d vertices, %d edges" (Digraph.n g) (Digraph.m g));
  let outcome = Dst.solve ~level g ~root ~terminals:aux.Aux_graph.terminals in
  stage "dst"
    (Printf.sprintf "cost %.17g, %d uncovered" outcome.Dst.tree.Dst.cost
       (List.length outcome.Dst.uncovered));
  let pruned =
    Tmedb_obs.Span.with_ "eedcb.prune" (fun () -> Dst.prune g ~root outcome.Dst.tree)
  in
  stage "prune" (Printf.sprintf "cost %.17g" pruned.Dst.cost);
  let schedule = Aux_graph.extract_schedule aux pruned in
  let node_of term =
    match aux.Aux_graph.vertex.(term) with
    | Aux_graph.Wait { node; _ } | Aux_graph.Level { node; _ } -> node
  in
  let report =
    Tmedb_obs.Span.with_ "eedcb.feasibility" (fun () -> Feasibility.check problem schedule)
  in
  Planner.Outcome.make ~schedule ~report
    ~unreached:(List.map node_of outcome.Dst.uncovered)
    ~artifacts:
      [
        Planner.Outcome.Steiner_tree
          {
            tree = pruned;
            aux_vertices = Digraph.n g;
            aux_edges = Digraph.m g;
            dts_points = Tmedb_tveg.Dts.total_points dts;
          };
      ]
    ()

let info =
  {
    Planner.name = "EEDCB";
    channel = `Static;
    section = "VI-A";
    summary = "DTS -> auxiliary graph -> directed Steiner tree -> schedule";
  }

let planner = { Planner.info; plan }
