open Tmedb_prelude

(* Time–energy Pareto sweep: plan one instance at every deadline of a
   grid, sharing a single {!Solve_state} so the deadline-independent
   work (streaming τ-closure, DCS marginals, aux-graph layout
   arithmetic) is paid once for the whole grid instead of once per
   point.  Points fan out over the pool; each seeds its own RNG stream
   ({!Experiment.point_rng}), so results are bit-identical at any
   worker count. *)

let c_sweeps = Tmedb_obs.Counter.make "pareto.sweeps"
let c_points = Tmedb_obs.Counter.make "pareto.points"
let t_sweep = Tmedb_obs.Timer.make "pareto.sweep"

module Grid = struct
  let check_value d =
    if Float.is_nan d then Error "deadline is NaN"
    else if not (Float.is_finite d) then Error (Printf.sprintf "deadline %g is not finite" d)
    else if d <= 0. then Error (Printf.sprintf "deadline %g is not positive" d)
    else Ok ()

  let of_list ds =
    if ds = [] then Error "empty deadline grid"
    else begin
      let rec go prev = function
        | [] -> Ok ds
        | d :: rest -> (
            match check_value d with
            | Error _ as e -> e
            | Ok () -> (
                match prev with
                | Some p when d <= p ->
                    Error
                      (Printf.sprintf
                         "deadline grid must be strictly ascending (%g is followed by %g)" p d)
                | Some _ | None -> go (Some d) rest))
      in
      go None ds
    end

  (* Bound on the grid size, purely to turn a typo'd step into a clear
     error instead of an out-of-memory sweep. *)
  let max_points = 100_000

  let of_range ~lo ~hi ~step =
    match check_value lo with
    | Error _ as e -> e
    | Ok () ->
        if Float.is_nan step || not (Float.is_finite step) || step <= 0. then
          Error (Printf.sprintf "grid step %g is not a positive finite number" step)
        else if Float.is_nan hi || not (Float.is_finite hi) then
          Error (Printf.sprintf "deadline %g is not finite" hi)
        else if hi < lo then
          Error (Printf.sprintf "descending grid: hi %g is below lo %g" hi lo)
        else if (hi -. lo) /. step >= float_of_int max_points then
          Error (Printf.sprintf "grid %g:%g:%g has more than %d points" lo hi step max_points)
        else begin
          (* Points are lo + k·step computed fresh per k — no running
             accumulation, so the grid is a pure function of the spec.
             hi itself is included exactly when it lies on the grid. *)
          let rec go k acc =
            let d = lo +. (step *. float_of_int k) in
            if d > hi then List.rev acc else go (k + 1) (d :: acc)
          in
          Ok (go 0 [])
        end

  let float_field what s =
    match float_of_string_opt (String.trim s) with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "%s %S is not a number" what s)

  let ( let* ) r f = Result.bind r f

  let parse_range s =
    match String.split_on_char ':' s with
    | [ lo; hi; step ] ->
        let* lo = float_field "grid bound" lo in
        let* hi = float_field "grid bound" hi in
        let* step = float_field "grid step" step in
        of_range ~lo ~hi ~step
    | _ -> Error (Printf.sprintf "grid %S is not of the form LO:HI:STEP" s)

  let parse_list s =
    let fields = String.split_on_char ',' s in
    let* ds =
      List.fold_left
        (fun acc f ->
          let* acc = acc in
          let* d = float_field "deadline" f in
          Ok (d :: acc))
        (Ok []) fields
    in
    of_list (List.rev ds)
end

type point = {
  deadline : float;
  energy : float;
  transmissions : int;
  feasible : bool;
  unreached : int;
  dominated : bool;
}

type t = { points : point list; front : float list }

(* [a] dominates [b] when a full-coverage plan is no later and no more
   expensive, strictly better on at least one axis.  Points that leave
   nodes unreached never dominate and are always dominated: the
   sweep's objective is the full broadcast, and an incomplete plan is
   not a tradeoff point on the time-energy front. *)
let dominates a b =
  a.unreached = 0
  && a.deadline <= b.deadline
  && a.energy <= b.energy
  && (a.deadline < b.deadline || a.energy < b.energy)

let mark_dominated points =
  List.map
    (fun p ->
      let dominated = p.unreached > 0 || List.exists (fun q -> dominates q p) points in
      { p with dominated })
    points

let front_of points = List.filter_map (fun p -> if p.dominated then None else Some p.deadline) points

let sweep ?pool ?(steiner_level = 2) ?cap_per_node ?(seed = 42) ?(share = true) ~planner
    ~deadlines (problem : Problem.t) =
  Tmedb_obs.Counter.incr c_sweeps;
  let t0 = Tmedb_obs.Timer.start t_sweep in
  Fun.protect ~finally:(fun () -> Tmedb_obs.Timer.stop t_sweep t0) @@ fun () ->
  Tmedb_obs.Span.with_ "pareto.sweep" @@ fun () ->
  let deadlines =
    match Grid.of_list deadlines with
    | Ok ds -> Array.of_list ds
    | Error e -> invalid_arg ("Pareto.sweep: " ^ e)
  in
  let horizon = deadlines.(Array.length deadlines - 1) in
  let span = Tmedb_tveg.Tveg.span problem.Problem.graph in
  if horizon > span.Interval.hi then
    invalid_arg
      (Printf.sprintf "Pareto.sweep: deadline %g is beyond the graph span end %g" horizon
         span.Interval.hi);
  if deadlines.(0) <= span.Interval.lo then
    invalid_arg
      (Printf.sprintf "Pareto.sweep: deadline %g is not past the graph span start %g"
         deadlines.(0) span.Interval.lo);
  let base = { problem with Problem.deadline = horizon } in
  let solve_state = if share then Some (Solve_state.create ?cap_per_node base) else None in
  let points =
    Pool.map pool
      (fun k ->
        let deadline = deadlines.(k) in
        Tmedb_obs.Counter.incr c_points;
        let rng = Experiment.point_rng ~seed ~k planner in
        let ctx = Planner.Ctx.make ~rng ~steiner_level ?cap_per_node ?solve_state () in
        let p = { base with Problem.deadline } in
        let o = Planner.run ~ctx planner p in
        let schedule = o.Planner.Outcome.schedule in
        {
          deadline;
          energy = Metrics.normalized_energy p schedule;
          transmissions = Schedule.num_transmissions schedule;
          feasible = o.Planner.Outcome.report.Feasibility.feasible;
          unreached = List.length o.Planner.Outcome.unreached;
          dominated = false;
        })
      (Array.init (Array.length deadlines) Fun.id)
  in
  let points = mark_dominated (Array.to_list points) in
  { points; front = front_of points }
