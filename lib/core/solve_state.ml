open Tmedb_tveg

(* Telemetry: one create per grid (it does all the deadline-independent
   work: the horizon closure plus one DCS pass over its points), then
   one cheap view + layout per swept deadline.  In a shared sweep
   [dcs.queries] therefore grows with the universe, not with grid-size
   × universe — the sublinearity `bench pareto` gates. *)
let c_creates = Tmedb_obs.Counter.make "solve_state.creates"
let c_views = Tmedb_obs.Counter.make "solve_state.dts_views"
let c_layouts = Tmedb_obs.Counter.make "solve_state.layouts"
let t_create = Tmedb_obs.Timer.make "solve_state.create"

type layout = { base : int array; level_off : int array; edge_bound : int }

type t = {
  problem : Problem.t;
  cap_per_node : int option;
  dts : Dts.t;  (* the one-shot closure of the horizon-clipped instance *)
  margs : Dcs.marginal list array array;  (* aligned with [dts]'s points *)
  stats : (int * int) array array;  (* (levels, covered) per point *)
  sentinel : (Dcs.marginal list * (int * int)) option array;
      (* marginals at span.lo for nodes reachable by the horizon but not
         from span.lo on, which some smaller deadline leaves sentinel-
         only; [None] elsewhere *)
}

let create ?cap_per_node (problem : Problem.t) =
  Tmedb_obs.Counter.incr c_creates;
  let t0 = Tmedb_obs.Timer.start t_create in
  Fun.protect ~finally:(fun () -> Tmedb_obs.Timer.stop t_create t0) @@ fun () ->
  Tmedb_obs.Span.with_ "solve_state.create" @@ fun () ->
  let g = problem.Problem.graph in
  let phy = problem.Problem.phy in
  let channel = problem.Problem.channel in
  let horizon = problem.Problem.deadline in
  let lo = Problem.span_start problem in
  let tau = Tveg.tau g in
  let dts = Problem.dts ?cap_per_node (Problem.clip problem) in
  (* Full-graph marginals coincide with the deadline-restricted ones
     whenever the transmission finishes strictly before the deadline
     (ρ_τ is strict at interval ends), so one memo serves every
     deadline up to the horizon; blocks finishing at or past a queried
     deadline are answered [] by {!marginals} without a lookup. *)
  let n = Dts.num_nodes dts in
  (* One contact-event sweep per node, stepped to each point.  A node's
     neighbourhood only changes at its contact boundaries, so runs of
     consecutive points (19 per run on the uncapped N = 40 Scale
     closure) see equal marginals.  Each run keeps one physical list:
     the memo stays small for the GC, and each lazy graph converts each
     run into its level table once. *)
  let pricing = Dcs.pricing ~phy ~channel and sc = Dcs.scratch () in
  let margs =
    Array.init n (fun i ->
        let next = Dcs.sweep sc g pricing ~node:i in
        let prev = ref [] in
        Array.map
          (fun p ->
            let m = if p +. tau < horizon then Dcs.marginals sc (next p) else [] in
            if not (List.equal Dcs.equal_marginal m !prev) then prev := m;
            !prev)
          (Dts.node_points dts i))
  in
  let stats = Array.map (Array.map Dcs.level_stats) margs in
  (* A node unreachable by the horizon already holds the sentinel as
     its only point, so its memo entry above serves every view. *)
  let sentinel =
    Array.init n (fun i ->
        let a = Dts.arrival dts i in
        if a > lo && a < horizon then begin
          let m =
            if lo +. tau < horizon then Dcs.marginals_at g ~phy ~channel ~node:i ~time:lo else []
          in
          Some (m, Dcs.level_stats m)
        end
        else None)
  in
  { problem; cap_per_node; dts; margs; stats; sentinel }

let problem t = t.problem
let horizon t = Dts.deadline t.dts
let cap_per_node t = t.cap_per_node

let check_compatible t (problem : Problem.t) ~cap_per_node =
  let p0 = t.problem in
  if not (p0.Problem.graph == problem.Problem.graph) then
    invalid_arg "Solve_state: problem does not share the state's graph";
  if
    not
      (p0.Problem.phy = problem.Problem.phy
      && p0.Problem.channel = problem.Problem.channel
      && p0.Problem.source = problem.Problem.source)
  then invalid_arg "Solve_state: physical layer, channel or source differs";
  if cap_per_node <> t.cap_per_node then
    invalid_arg "Solve_state: cap_per_node differs from the state's";
  if problem.Problem.deadline > horizon t then
    invalid_arg "Solve_state: deadline beyond the prepared horizon"

let dts_at t ~deadline =
  let view = Dts.view t.dts ~deadline in
  Tmedb_obs.Counter.incr c_views;
  view

let stats_at t i time =
  match Dts.index_of_point t.dts i time with
  | Some idx -> t.stats.(i).(idx)
  | None -> ( match t.sentinel.(i) with Some (_, s) -> s | None -> (0, 0))

let marginals t ~deadline =
  let tau = Problem.tau t.problem in
  fun ~node ~time ->
    if time +. tau >= deadline then []
    else begin
      match Dts.index_of_point t.dts node time with
      | Some idx -> t.margs.(node).(idx)
      | None -> ( match t.sentinel.(node) with Some (m, _) -> m | None -> [])
    end

let layout t dts =
  Tmedb_obs.Counter.incr c_layouts;
  let deadline = Dts.deadline dts in
  let tau = Problem.tau t.problem in
  let n = Dts.num_nodes dts in
  let base = Array.make n 0 in
  let total_wait = ref 0 in
  for i = 0 to n - 1 do
    base.(i) <- !total_wait;
    total_wait := !total_wait + Array.length (Dts.node_points dts i)
  done;
  let total_wait = !total_wait in
  let level_off = Array.make (total_wait + 1) 0 in
  let edge_bound = ref 0 in
  for i = 0 to n - 1 do
    let pts = Dts.node_points dts i in
    Array.iteri
      (fun l tm ->
        let bid = base.(i) + l in
        (* A block whose transmission cannot finish strictly before the
           deadline has no levels — the one-shot sizing pass computes the
           restricted-graph marginals there and finds them empty. *)
        let nlev, cov = if tm +. tau >= deadline then (0, 0) else stats_at t i tm in
        level_off.(bid + 1) <- level_off.(bid) + nlev;
        edge_bound := !edge_bound + nlev + cov;
        if l + 1 < Array.length pts then incr edge_bound)
      pts
  done;
  { base; level_off; edge_bound = !edge_bound }
