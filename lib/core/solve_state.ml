open Tmedb_tveg

(* Telemetry: one create per grid (it does all the deadline-independent
   work: the streaming closure plus one DCS pass over the point
   universe), then one cheap view + layout per swept deadline.  In a
   shared sweep [dcs.queries] therefore grows with the universe, not
   with grid-size × universe — the sublinearity `bench pareto` gates. *)
let c_creates = Tmedb_obs.Counter.make "solve_state.creates"
let c_views = Tmedb_obs.Counter.make "solve_state.dts_views"
let c_layouts = Tmedb_obs.Counter.make "solve_state.layouts"
let t_create = Tmedb_obs.Timer.make "solve_state.create"

type layout = { base : int array; level_off : int array; edge_bound : int }

type t = {
  problem : Problem.t;
  horizon : float;
  cap_per_node : int option;
  stream : Dts.Stream.stream;
  pts : float array array;  (* per-node stream points at the horizon *)
  margs : Dcs.marginal list array array;  (* aligned with [pts] *)
  stats : (int * int) array array;  (* (levels, covered) per point *)
  sentinel : (Dcs.marginal list * (int * int)) option array;
      (* marginals at span.lo for nodes that can be unreachable at some
         deadline (earliest arrival past span.lo); [None] elsewhere *)
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
  let span = Tveg.span g in
  let lo = span.Tmedb_prelude.Interval.lo in
  let tau = Tveg.tau g in
  let n = Tveg.n g in
  let stream = Dts.Stream.create ?cap_per_node ~source:problem.Problem.source g in
  Dts.Stream.advance stream ~horizon;
  let pts = Array.init n (Dts.Stream.generated stream) in
  (* Full-graph marginals coincide with the deadline-restricted ones
     whenever the transmission finishes strictly before the deadline
     (ρ_τ is strict at interval ends), so one memo serves every
     deadline up to the horizon; blocks finishing at or past a queried
     deadline are answered [] by {!marginals} without a lookup. *)
  let margs =
    Array.init n (fun i ->
        Array.map
          (fun p ->
            if p +. tau < horizon then Dcs.marginals_at g ~phy ~channel ~node:i ~time:p
            else [])
          pts.(i))
  in
  let stats = Array.map (Array.map Dcs.level_stats) margs in
  let sentinel =
    Array.init n (fun i ->
        if Dts.Stream.min_time stream i > lo then begin
          let m =
            if lo +. tau < horizon then Dcs.marginals_at g ~phy ~channel ~node:i ~time:lo
            else []
          in
          Some (m, Dcs.level_stats m)
        end
        else None)
  in
  { problem; horizon; cap_per_node; stream; pts; margs; stats; sentinel }

let problem t = t.problem
let horizon t = t.horizon
let cap_per_node t = t.cap_per_node
let stream_truncated t = Dts.Stream.truncated t.stream

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
  if problem.Problem.deadline > t.horizon then
    invalid_arg "Solve_state: deadline beyond the prepared horizon"

let dts_at t ~deadline =
  if deadline > t.horizon then
    invalid_arg "Solve_state.dts_at: deadline beyond the prepared horizon";
  Tmedb_obs.Counter.incr c_views;
  Dts.Stream.dts_at t.stream ~deadline

(* Exact index of [time] in node [i]'s stream points, if present. *)
let point_index t i time =
  let pts = t.pts.(i) in
  let rec search lo hi =
    if lo > hi then None
    else begin
      let mid = (lo + hi) / 2 in
      if Float.equal pts.(mid) time then Some mid
      else if pts.(mid) < time then search (mid + 1) hi
      else search lo (mid - 1)
    end
  in
  search 0 (Array.length pts - 1)

let stats_at t i time =
  match point_index t i time with
  | Some idx -> t.stats.(i).(idx)
  | None -> ( match t.sentinel.(i) with Some (_, s) -> s | None -> (0, 0))

let marginals t ~deadline =
  let tau = Problem.tau t.problem in
  fun ~node ~time ->
    if time +. tau >= deadline then []
    else begin
      match point_index t node time with
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
