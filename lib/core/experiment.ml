open Tmedb_prelude
open Tmedb_channel
open Tmedb_trace
open Tmedb_tveg

type algorithm = Planner.t

let all_algorithms = Registry.paper
let algorithm_name = Planner.name
let algorithm_of_string = Registry.find
let is_fading = Planner.is_fading

type config = {
  seed : int;
  n : int;
  horizon : float;
  deadline : float;
  sources : int;
  mc_trials : int;
  steiner_level : int;
  dts_cap : int;
}

let default_config =
  {
    seed = 42;
    n = 20;
    horizon = 17000.;
    deadline = 2000.;
    sources = 3;
    mc_trials = 300;
    steiner_level = 2;
    dts_cap = 1500;
  }

let make_trace ?density_profile config ~n =
  let params = { (Synth.with_n Synth.default_params n) with
                 Synth.horizon = config.horizon;
                 density_profile } in
  Synth.generate (Rng.create (config.seed + (7919 * n))) params

let make_problem config ~trace ~channel ~source ~deadline =
  ignore config;
  let graph = Tveg.of_trace ~tau:0. trace in
  Problem.make ~graph ~phy:Phy.default ~channel ~source ~deadline ()

let choose_sources config ~trace ~deadline =
  let rng = Rng.create (config.seed lxor 0x5eed) in
  let n = Trace.n trace in
  let graph = Tveg.of_trace ~tau:0. trace in
  let reachable src =
    Array.for_all (fun a -> a <= deadline) (Tveg.earliest_arrival graph ~src ~t0:0.)
  in
  let rec draw k acc tries =
    if k = 0 then List.rev acc
    else begin
      let src = Rng.int rng n in
      if List.mem src acc then draw k acc tries
      else if reachable src || tries > 50 then draw (k - 1) (src :: acc) 0
      else draw k acc (tries + 1)
    end
  in
  draw (Stdlib.min config.sources n) [] 0

type run_result = {
  algorithm : algorithm;
  energy : float;
  feasible : bool;
  analytic_delivery : float;
  schedule : Schedule.t;
  unreached : int list;
}

let run_alg ?warm config ~trace ~source ~deadline ~rng algorithm =
  let channel = Planner.design_channel algorithm in
  let problem = make_problem config ~trace ~channel ~source ~deadline in
  let ctx =
    Planner.Ctx.make ~rng ~steiner_level:config.steiner_level ~cap_per_node:config.dts_cap ?warm ()
  in
  let outcome = Planner.run ~ctx algorithm problem in
  let schedule = outcome.Planner.Outcome.schedule in
  let report = outcome.Planner.Outcome.report in
  {
    algorithm;
    energy = Metrics.normalized_energy problem schedule;
    feasible = report.Feasibility.feasible;
    analytic_delivery = Feasibility.delivery_ratio report;
    schedule;
    unreached = outcome.Planner.Outcome.unreached;
  }

(* Per-(point, algorithm) RNG split: every pool task seeds its own
   stream from (seed, point index, algorithm) alone, so sweep results
   are bit-identical at any worker count.  The figure chains, Fig. 6's
   fan-out and the Pareto sweep all share this recipe. *)
let point_rng ~seed ~k algorithm =
  Rng.create (seed + (1009 * k) + Hashtbl.hash (algorithm_name algorithm))

type series = { label : string; points : (float * float) list }

(* One warm chain: the [npoints] x-axis points of one (series, source)
   pair, walked in ascending order inside a single pool task so the FR
   allocation of each point warm-starts from the previous one.  The
   stream is re-created per point from (config.seed, k, algorithm)
   alone — the exact layout the per-point tasks used — so chain
   results are bit-identical at any worker count, and identical to the
   old per-point fan-out for planners that ignore the warm store. *)
let run_chain config ~npoints ~point ~k algorithm =
  let warm = Planner.Warm.create () in
  let out = Array.make npoints 0. in
  for i = 0 to npoints - 1 do
    let trace, source, deadline = point i in
    let rng = point_rng ~seed:config.seed ~k algorithm in
    out.(i) <- (run_alg ~warm config ~trace ~source ~deadline ~rng algorithm).energy
  done;
  out

let fig4 ?(config = default_config) ?pool ~variant ~deadlines ~ns () =
  let algorithm = List.hd (Registry.with_channel variant) in
  let ns = Array.of_list ns in
  let deadlines = Array.of_list deadlines in
  let nd = Array.length deadlines in
  let traces = Pool.map pool (fun n -> make_trace config ~n) ns in
  let sources =
    Array.map
      (fun trace ->
        Array.map
          (fun deadline -> Array.of_list (choose_sources config ~trace ~deadline))
          deadlines)
      traces
  in
  let nk ni = if nd = 0 then 0 else Array.length sources.(ni).(0) in
  (* One task per (network size, source index): a deadline chain
     sharing one warm store. *)
  let chains =
    Array.concat
      (List.init (Array.length ns) (fun ni -> Array.init (nk ni) (fun k -> (ni, k))))
  in
  let energies =
    Pool.map pool
      (fun (ni, k) ->
        run_chain config ~npoints:nd
          ~point:(fun di -> (traces.(ni), sources.(ni).(di).(k), deadlines.(di)))
          ~k algorithm)
      chains
  in
  let offsets = Array.make (Array.length ns) 0 in
  for ni = 1 to Array.length ns - 1 do
    offsets.(ni) <- offsets.(ni - 1) + nk (ni - 1)
  done;
  List.init (Array.length ns) (fun ni ->
      {
        label = Printf.sprintf "%s N=%d" (algorithm_name algorithm) ns.(ni);
        points =
          List.init nd (fun di ->
              ( deadlines.(di),
                Stats.mean (Array.init (nk ni) (fun k -> energies.(offsets.(ni) + k).(di)))
              ));
      })

let fig5 ?(config = default_config) ?pool ~variant ~deadlines () =
  let algorithms = Registry.with_channel variant in
  let trace = make_trace config ~n:config.n in
  let algs = Array.of_list algorithms in
  let deadlines = Array.of_list deadlines in
  let nd = Array.length deadlines in
  let sources =
    Array.map (fun deadline -> Array.of_list (choose_sources config ~trace ~deadline)) deadlines
  in
  let nk = if nd = 0 then 0 else Array.length sources.(0) in
  (* One task per (algorithm, source index): a deadline chain sharing
     one warm store. *)
  let chains = Array.init (Array.length algs * nk) (fun i -> (i / nk, i mod nk)) in
  let energies =
    Pool.map pool
      (fun (ai, k) ->
        run_chain config ~npoints:nd
          ~point:(fun di -> (trace, sources.(di).(k), deadlines.(di)))
          ~k algs.(ai))
      chains
  in
  List.init (Array.length algs) (fun ai ->
      {
        label = algorithm_name algs.(ai);
        points =
          List.init nd (fun di ->
              ( deadlines.(di),
                Stats.mean (Array.init nk (fun k -> energies.((ai * nk) + k).(di))) ));
      })

let fig6 ?(config = default_config) ?pool ~ns () =
  let ns = Array.of_list ns in
  let deadline = config.deadline in
  let traces = Pool.map pool (fun n -> make_trace config ~n) ns in
  let sources =
    Array.map (fun trace -> Array.of_list (choose_sources config ~trace ~deadline)) traces
  in
  let algs = Array.of_list all_algorithms in
  let na = Array.length algs in
  (* One task per (size, algorithm, source): plan the schedule, then
     Monte-Carlo its delivery in the fading environment regardless of
     the design channel (Fig. 6). *)
  let tasks =
    Array.concat
      (List.concat
         (List.init (Array.length ns) (fun ni ->
              List.init na (fun ai ->
                  Array.mapi (fun k source -> (ni, ai, k, source)) sources.(ni)))))
  in
  let outcomes =
    Pool.map pool
      (fun (ni, ai, k, source) ->
        let algorithm = algs.(ai) in
        let trace = traces.(ni) in
        let rng = point_rng ~seed:config.seed ~k algorithm in
        let result = run_alg config ~trace ~source ~deadline ~rng algorithm in
        let problem = make_problem config ~trace ~channel:`Rayleigh ~source ~deadline in
        let sim =
          Simulate.run ~trials:config.mc_trials ?pool ~rng ~eval_channel:`Rayleigh problem
            result.schedule
        in
        (ni, ai, result.energy, sim.Simulate.delivery_ratio))
      tasks
  in
  (* Aggregate in task order: deterministic at any worker count. *)
  let energy_acc = Array.make_matrix (Array.length ns) na [] in
  let delivery_acc = Array.make_matrix (Array.length ns) na [] in
  Array.iter
    (fun (ni, ai, e, d) ->
      energy_acc.(ni).(ai) <- e :: energy_acc.(ni).(ai);
      delivery_acc.(ni).(ai) <- d :: delivery_acc.(ni).(ai))
    outcomes;
  let series acc =
    List.init na (fun ai ->
        {
          label = algorithm_name algs.(ai);
          points =
            List.sort compare
              (List.init (Array.length ns) (fun ni ->
                   (float_of_int ns.(ni), Stats.mean (Array.of_list acc.(ni).(ai)))));
        })
  in
  (series energy_acc, series delivery_acc)

let fig7 ?(config = default_config) ?pool ~variant () =
  let algorithms = Registry.with_channel variant in
  (* Ramp bounds scale with the horizon so reduced-scale configs keep
     the Fig. 7 shape: density low early, rising to full by ~half. *)
  let ramp_lo = 0.29 *. config.horizon and ramp_hi = 0.47 *. config.horizon in
  let profile = Synth.ramp_profile ~t0:ramp_lo ~t1:ramp_hi ~low:0.25 in
  let trace = make_trace ~density_profile:profile config ~n:config.n in
  let window_starts =
    (* The paper samples every 500 s over [5000, 15000] with a 17000 s
       horizon; keep that on the default config and shrink otherwise.
       Every window must fit a full broadcast: t0 + deadline <= horizon. *)
    let first = ramp_lo in
    let last = config.horizon -. config.deadline in
    let rec build t acc =
      if t > last +. 1e-9 then List.rev acc else build (t +. 500.) (t :: acc)
    in
    build first []
  in
  let graph = Tveg.of_trace ~tau:0. trace in
  let degree =
    {
      label = "avg degree";
      points =
        List.map
          (fun t0 ->
            (t0, Tveg.average_degree_over graph ~window:(Interval.make ~lo:t0 ~hi:(t0 +. 500.))))
          window_starts;
    }
  in
  let algs = Array.of_list algorithms in
  let windows = Array.of_list window_starts in
  let nw = Array.length windows in
  (* Per-window restricted trace, deadline and sources, precomputed so
     the chains below fan out over pure data.  [Trace.restrict] keeps
     the node count, so every window draws the same number of
     sources. *)
  let subs =
    Array.map
      (fun t0 ->
        let hi = Float.min config.horizon (t0 +. config.deadline) in
        (Trace.restrict trace ~span:(Interval.make ~lo:t0 ~hi), hi))
      windows
  in
  let sources =
    Array.map (fun (sub, hi) -> Array.of_list (choose_sources config ~trace:sub ~deadline:hi)) subs
  in
  let nk = if nw = 0 then 0 else Array.length sources.(0) in
  (* One task per (algorithm, source index): a window chain sharing
     one warm store. *)
  let chains = Array.init (Array.length algs * nk) (fun i -> (i / nk, i mod nk)) in
  let energies =
    Pool.map pool
      (fun (ai, k) ->
        run_chain config ~npoints:nw
          ~point:(fun wi ->
            let sub, hi = subs.(wi) in
            (sub, sources.(wi).(k), hi))
          ~k algs.(ai))
      chains
  in
  let energy_series =
    List.init (Array.length algs) (fun ai ->
        {
          label = algorithm_name algs.(ai);
          points =
            List.init nw (fun wi ->
                ( windows.(wi),
                  Stats.mean (Array.init nk (fun k -> energies.((ai * nk) + k).(wi))) ));
        })
  in
  (energy_series, degree)

let print_series ~title ~xlabel series =
  Printf.printf "\n== %s ==\n" title;
  match series with
  | [] -> Printf.printf "(no series)\n"
  | first :: _ ->
      let xs = List.map fst first.points in
      Printf.printf "%-12s" xlabel;
      List.iter (fun s -> Printf.printf " %16s" s.label) series;
      print_newline ();
      List.iteri
        (fun row x ->
          Printf.printf "%-12g" x;
          List.iter
            (fun s ->
              match List.nth_opt s.points row with
              | Some (_, y) -> Printf.printf " %16.6g" y
              | None -> Printf.printf " %16s" "-")
            series;
          print_newline ())
        xs;
      flush stdout
