(* Benchmark harness: regenerates every table/figure of the paper's
   evaluation (Section VII), the design-choice ablations and the
   deterministic kernel baseline.

   Usage:
     dune exec bench/main.exe            -- everything (figures, ablations, baseline)
     dune exec bench/main.exe quick      -- reduced-scale figures and ablations
     dune exec bench/main.exe fig4a      -- a single figure (fig4a..fig7b)
     dune exec bench/main.exe ablation   -- design-choice ablations
     dune exec bench/main.exe baseline   -- parallel baseline only (writes the next BENCH_N.json)
     dune exec bench/main.exe regress    -- baseline, then diffed against the previous one
     dune exec bench/main.exe obs        -- telemetry overhead check (disabled-path cost)
     dune exec bench/main.exe nscale     -- lazy SPT frontier scaling (add --quick for CI)
     dune exec bench/main.exe pareto     -- shared-state deadline sweep vs independent solves (add --quick for CI)

   Every mode accepts `--jobs K` (default: TMEDB_JOBS or the core
   count): the figure sweeps and Monte-Carlo loops fan out over K
   domains.  Results are bit-identical at any K — per-task RNG
   splitting — which every timed mode verifies explicitly.

   `--metrics FILE` / `--trace FILE` / `--profile DIR` enable the
   telemetry registry (lib/obs) and write the counters/timers
   snapshot, the Chrome trace_event span file, resp. the folded
   profile artifacts (docs/PROFILING.md), on exit — every mode accepts
   them.  The baseline mode always runs with telemetry on and embeds
   each kernel's counter deltas in BENCH_N.json.

   Every wall time this harness reports comes from [measure]: repeated
   samples on both sides of the pool, summarised as a median and
   quartiles; the wall gates compare minima.

   Figures (paper <-> here):
     fig4a/fig4b  energy vs delay constraint, (FR-)EEDCB, N in {10,20,30}
     fig5a/fig5b  energy vs delay constraint, three (FR-)algorithms
     fig6a/fig6b  energy and Monte-Carlo delivery vs network size, all six
     fig7a/fig7b  per-window energy and average degree over [5000 s, 15000 s]

   Absolute numbers depend on the synthetic Haggle-like trace (the real
   iMote trace is not redistributable); the shapes and orderings are
   the reproduction target.  See EXPERIMENTS.md. *)

open Tmedb
module Json = Tmedb_prelude.Json
module Stats = Tmedb_prelude.Stats

(* The parsed command line, handed to every mode. *)
type cli = {
  jobs : int;
  pool : Tmedb_prelude.Pool.t option;  (** [None] means sequential. *)
  metrics : string option;
  trace : string option;
  profile : string option;
  threshold : float;  (** regress: the relative gate on deterministic keys. *)
  speedup_floor : float option;
      (** regress: the minimum fig5/fig6 sweep speedup.  check.sh passes
          a hard floor only on multi-core runners; a 1-CPU box cannot
          speed anything up. *)
}

let bench_config =
  { Experiment.default_config with Experiment.sources = 2; mc_trials = 300 }

(* Every algorithm the harness names is resolved through the planner
   registry, like the CLI does. *)
let alg name =
  match Registry.find name with
  | Ok p -> p
  | Error e ->
      prerr_endline e;
      exit 2

let quick_config =
  {
    Experiment.default_config with
    Experiment.n = 10;
    horizon = 8000.;
    sources = 1;
    mc_trials = 100;
    dts_cap = 800;
  }

let deadlines_of config =
  (* The paper sweeps 2000..6000 in 500 s steps. *)
  if config.Experiment.n <= 10 then [ 1000.; 2000.; 3000. ]
  else List.init 9 (fun k -> 2000. +. (500. *. float_of_int k))

let sizes_of config = if config.Experiment.n <= 10 then [ 6; 10 ] else [ 10; 20; 30 ]
let fig6_sizes config = if config.Experiment.n <= 10 then [ 6; 10 ] else [ 10; 20; 30; 40 ]

let section title = Printf.printf "\n################ %s ################\n%!" title

(* ------------------------------------------------------------------ *)
(* The measurement harness.  A kernel maps a pool to a result;
   [measure] runs it [rounds] times on each side — 1 domain and the
   --jobs pool — alternating which side goes first, so neither side
   always pays the warm-up.  Every run's fingerprint must equal the
   first run's bit for bit, or the mode exits 1.  Counter deltas are
   taken around the first pooled run alone, so they read as one run's
   counters whatever the sample count. *)

let rounds = 3

type 'a measured = {
  result : 'a;  (** The counted run's result. *)
  deltas : (string * int) list;  (** Counters the counted run moved. *)
  seq : float array;  (** Wall seconds of each 1-domain run. *)
  par : float array;  (** Wall seconds of each pooled run. *)
}

(* [f ()] with the registry counters it moved, by name. *)
let counted f =
  let before = (Tmedb_obs.snapshot ()).Tmedb_obs.counters in
  let r = f () in
  let moved (name, v) =
    let d = v - Option.value (List.assoc_opt name before) ~default:0 in
    if d <> 0 then Some (name, d) else None
  in
  (r, List.filter_map moved (Tmedb_obs.snapshot ()).Tmedb_obs.counters)

let measure cli ~name ~fingerprint kernel =
  let first = ref None and counted_run = ref None and seq = ref [] and par = ref [] in
  let run pool =
    let t0 = Unix.gettimeofday () in
    let r = kernel pool in
    let secs = Unix.gettimeofday () -. t0 in
    let fp = fingerprint r in
    (match !first with
    | None -> first := Some fp
    | Some fp0 when List.equal Float.equal fp0 fp -> ()
    | Some _ ->
        Printf.eprintf "%s: a run's result differs from the first run's\n" name;
        exit 1);
    (r, secs)
  in
  let single () = seq := snd (run None) :: !seq in
  let pooled () =
    match !counted_run with
    | Some _ -> par := snd (run cli.pool) :: !par
    | None ->
        let (r, secs), deltas = counted (fun () -> run cli.pool) in
        counted_run := Some (r, deltas);
        par := secs :: !par
  in
  for k = 1 to rounds do
    if k mod 2 = 1 then (single (); pooled ()) else (pooled (); single ())
  done;
  let result, deltas = Option.get !counted_run in
  { result; deltas; seq = Array.of_list !seq; par = Array.of_list !par }

(* Both sides' samples, for kernels that ignore the pool. *)
let all m = Array.append m.seq m.par
let fastest xs = Array.fold_left Float.min Float.infinity xs
let quartiles xs = (Stats.percentile xs 25., Stats.median xs, Stats.percentile xs 75.)

let spread xs =
  let q1, med, q3 = quartiles xs in
  Printf.sprintf "%.4g [%.4g, %.4g]" med q1 q3

let count name deltas = Option.value (List.assoc_opt name deltas) ~default:0

(* A planned outcome's fingerprint: its energy and unreached count. *)
let outcome_fingerprint p (o : Planner.Outcome.t) =
  [
    Metrics.normalized_energy p o.Planner.Outcome.schedule;
    float_of_int (List.length o.Planner.Outcome.unreached);
  ]

(* ------------------------------------------------------------------ *)
(* Figures *)

let fig4 cli config variant =
  let series =
    Experiment.fig4 ~config ?pool:cli.pool ~variant ~deadlines:(deadlines_of config)
      ~ns:(sizes_of config) ()
  in
  let label =
    match variant with
    | `Static -> "Fig 4(a): EEDCB energy vs delay constraint (static channel)"
    | `Fading -> "Fig 4(b): FR-EEDCB energy vs delay constraint (Rayleigh)"
  in
  Experiment.print_series ~title:label ~xlabel:"T (s)" series

let fig5 cli config variant =
  let series =
    Experiment.fig5 ~config ?pool:cli.pool ~variant ~deadlines:(deadlines_of config) ()
  in
  let label =
    match variant with
    | `Static -> "Fig 5(a): energy vs delay constraint, static algorithms"
    | `Fading -> "Fig 5(b): energy vs delay constraint, fading-resistant algorithms"
  in
  Experiment.print_series ~title:label ~xlabel:"T (s)" series

let fig6 cli config part =
  let energy, delivery = Experiment.fig6 ~config ?pool:cli.pool ~ns:(fig6_sizes config) () in
  match part with
  | `Energy ->
      Experiment.print_series
        ~title:"Fig 6(a): scheduled energy vs network size (fading environment)" ~xlabel:"N"
        energy
  | `Delivery ->
      Experiment.print_series
        ~title:"Fig 6(b): Monte-Carlo delivery ratio vs network size (Rayleigh)" ~xlabel:"N"
        delivery

let fig7 cli config variant =
  let energy, degree = Experiment.fig7 ~config ?pool:cli.pool ~variant () in
  let label =
    match variant with
    | `Static -> "Fig 7(a): per-window energy, static algorithms (density-ramp trace)"
    | `Fading -> "Fig 7(b): per-window energy, fading-resistant algorithms"
  in
  Experiment.print_series ~title:label ~xlabel:"window start (s)" energy;
  Experiment.print_series ~title:"Fig 7: average node degree per 500 s window"
    ~xlabel:"window start (s)" [ degree ]

(* ------------------------------------------------------------------ *)
(* Ablations (design choices called out in DESIGN.md) *)

let ablation_steiner_level config =
  section "Ablation: recursive-greedy level (paper's epsilon = 1/i)";
  let trace = Experiment.make_trace config ~n:config.Experiment.n in
  let deadline = config.Experiment.deadline in
  let sources = Experiment.choose_sources config ~trace ~deadline in
  Printf.printf "%-8s %16s %16s\n" "source" "level-1 energy" "level-2 energy";
  List.iter
    (fun source ->
      let energy level =
        let config = { config with Experiment.steiner_level = level } in
        (Experiment.run_alg config ~trace ~source ~deadline ~rng:(Tmedb_prelude.Rng.create 3)
           (alg "EEDCB")).Experiment.energy
      in
      Printf.printf "%-8d %16.1f %16.1f\n%!" source (energy 1) (energy 2))
    sources

let ablation_nlp config =
  section "Ablation: NLP energy allocation vs uniform single-hop w0";
  (* A pruned EEDCB backbone has little coverage redundancy for the
     NLP to exploit; GREED's few large transmissions overlap heavily,
     which is where the allocation shines. *)
  let trace = Experiment.make_trace config ~n:config.Experiment.n in
  let deadline = config.Experiment.deadline in
  let sources = Experiment.choose_sources config ~trace ~deadline in
  Printf.printf "%-8s %-8s %16s %16s %9s\n" "backbone" "source" "uniform w0" "NLP alloc" "saved";
  List.iter
    (fun (name, backbone) ->
      List.iter
        (fun source ->
          let problem =
            Experiment.make_problem config ~trace ~channel:`Rayleigh ~source ~deadline
          in
          let ctx =
            Planner.Ctx.make ~steiner_level:config.Experiment.steiner_level
              ~cap_per_node:config.Experiment.dts_cap ()
          in
          let r = Fr.plan_with backbone ctx problem in
          let skeleton =
            match Planner.Outcome.backbone r with Some s -> s | None -> assert false
          in
          let uniform = Metrics.normalized_energy problem skeleton in
          let nlp = Metrics.normalized_energy problem r.Planner.Outcome.schedule in
          Printf.printf "%-8s %-8d %16.1f %16.1f %8.1f%%\n%!" name source uniform nlp
            (100. *. (1. -. (nlp /. Float.max uniform 1e-9))))
        sources)
    [ ("eedcb", `Eedcb); ("greedy", `Greedy) ]

let ablation_dts_cap config =
  section "Ablation: DTS per-node point cap (schedule-space fidelity knob)";
  let trace = Experiment.make_trace config ~n:config.Experiment.n in
  let deadline = config.Experiment.deadline in
  let source = List.hd (Experiment.choose_sources config ~trace ~deadline) in
  Printf.printf "%-8s %16s %10s\n" "cap" "EEDCB energy" "feasible";
  List.iter
    (fun cap ->
      let config = { config with Experiment.dts_cap = cap } in
      let r =
        Experiment.run_alg config ~trace ~source ~deadline ~rng:(Tmedb_prelude.Rng.create 3)
          (alg "EEDCB")
      in
      Printf.printf "%-8d %16.1f %10b\n%!" cap r.Experiment.energy r.Experiment.feasible)
    [ 100; 400; 1500 ]

let ablation_tau config =
  section "Ablation: traversal latency tau (DTS size and propagation)";
  let trace = Experiment.make_trace config ~n:(Stdlib.min 10 config.Experiment.n) in
  Printf.printf "%-8s %14s\n" "tau (s)" "DTS points";
  List.iter
    (fun tau ->
      let graph = Tmedb_tveg.Tveg.of_trace ~tau trace in
      let dts =
        Tmedb_tveg.Dts.compute ~cap_per_node:config.Experiment.dts_cap ~source:0 graph
          ~deadline:config.Experiment.deadline
      in
      Printf.printf "%-8g %14d\n%!" tau (Tmedb_tveg.Dts.total_points dts))
    [ 0.; 0.5; 2. ]

let ablations config =
  ablation_steiner_level config;
  ablation_nlp config;
  ablation_dts_cap config;
  ablation_tau config

(* ------------------------------------------------------------------ *)
(* N-scaling: SPT's scan on the lazy auxiliary graph against EEDCB on
   the forced O(N^2 L) graph, on the clustered Scale scenarios
   (docs/SCALING.md).  The cheap-backbone / expensive-meeting structure
   means a shortest-path scan settles every terminal far below the cost
   of the deep DCS levels, so the lazy frontier is a small fraction of
   the vertex universe — which this mode measures and asserts.  The
   lazy SPT schedule itself is pinned by test_core ("lazy SPT pinned
   (Scale N=100)"). *)

let nscale_cap = 64

let nscale_problem n =
  let params = Tmedb_tveg.Scale.default_params in
  let graph = Tmedb_tveg.Scale.scenario ~params ~n () in
  Problem.make ~graph ~phy:Tmedb_channel.Phy.default ~channel:`Static ~source:0
    ~deadline:(Tmedb_tveg.Scale.deadline ~params ()) ()

(* The planners ignore the pool, so both sides of each measurement are
   the same solve and the rows summarise all of its samples. *)
let nscale cli ~quick =
  (* The materialisation counters below come from the global registry,
     so this mode forces telemetry on. *)
  Tmedb_obs.set_enabled true;
  section
    (Printf.sprintf "N-scaling: lazy SPT frontier vs the forced graph%s"
       (if quick then " (quick)" else ""));
  let solve label planner n =
    let p = nscale_problem n in
    let ctx = Planner.Ctx.make ~cap_per_node:nscale_cap () in
    let m =
      measure cli ~name:label ~fingerprint:(outcome_fingerprint p) (fun _pool ->
          Planner.run ~ctx planner p)
    in
    Printf.printf "%-24s %6d %24s s %14.1f %10d unreached\n%!" label n (spread (all m))
      (Metrics.normalized_energy p m.result.Planner.Outcome.schedule)
      (List.length m.result.Planner.Outcome.unreached);
    m
  in
  (* 1. The wall for the wall-clock comparison: EEDCB on the forced
     graph at N=100 (skipped in quick mode). *)
  let wall = if quick then None else Some (solve "EEDCB forced (the wall)" (alg "EEDCB") 100) in
  (* 2. Lazy SPT up the N curve, frontier cut measured per point; the
     10x gate and the unreached check apply to the last (largest) N. *)
  let curve = if quick then [ 300 ] else [ 250; 500; 1000 ] in
  let last =
    List.fold_left
      (fun _ n ->
        let m = solve "SPT lazy" (alg "SPT") n in
        let materialized = count "aux_graph.nodes_materialized" m.deltas in
        let universe = count "aux_graph.lazy_nodes_total" m.deltas in
        let ratio = float_of_int universe /. float_of_int (Stdlib.max materialized 1) in
        Printf.printf "  N=%-5d universe %9d  materialized %8d  %.1fx cut\n%!" n universe
          materialized ratio;
        Some (n, m, ratio))
      None curve
  in
  let n_big, big, ratio = match last with Some x -> x | None -> assert false in
  if big.result.Planner.Outcome.unreached <> [] then begin
    Printf.eprintf "nscale: N=%d broadcast left nodes unreached\n" n_big;
    exit 1
  end;
  if ratio < 10. then begin
    Printf.eprintf "nscale: materialization cut %.1fx is below the 10x gate\n" ratio;
    exit 1
  end;
  Option.iter
    (fun wall ->
      let big_secs = fastest (all big) and wall_secs = fastest (all wall) in
      Printf.printf "lazy SPT N=%d %.2f s vs EEDCB N=100 %.2f s (minima)\n%!" n_big big_secs
        wall_secs;
      if big_secs >= wall_secs then begin
        Printf.eprintf "nscale: lazy SPT N=%d (%.2f s) is not faster than EEDCB at N=100 (%.2f s)\n"
          n_big big_secs wall_secs;
        exit 1
      end)
    wall

(* ------------------------------------------------------------------ *)
(* Pareto sweep: a deadline grid over one shared Solve_state against
   the same grid as independent one-shot solves.  Three gates: the
   point lists must agree bit for bit, the shared run's DTS/DCS
   counters must stay sublinear in the grid size (the reuse the state
   exists for), and — full mode only — the 10-point grid must cost
   less than 3x a single solve at the horizon. *)

(* [npoints] deadlines in steps of 4.37 % of the horizon, ending at
   it.  Uncapped, any grid is served exactly: each view of the horizon
   closure equals the one-shot closure of its clipped instance, ties
   of an arrival at exactly a grid deadline included (Solve_state
   doc). *)
let pareto_grid ~npoints horizon =
  let step = horizon *. 0.0437 in
  List.init npoints (fun k -> horizon -. (float_of_int (npoints - 1 - k) *. step))

(* A sweep's fingerprint: every field of every point. *)
let pareto_fingerprint (r : Pareto.t) =
  let flag b = if b then 1. else 0. in
  List.concat_map
    (fun (pt : Pareto.point) ->
      [
        pt.Pareto.deadline;
        pt.Pareto.energy;
        float_of_int pt.Pareto.transmissions;
        flag pt.Pareto.feasible;
        float_of_int pt.Pareto.unreached;
        flag pt.Pareto.dominated;
      ])
    r.Pareto.points

let pareto_bench cli ~quick =
  Tmedb_obs.set_enabled true;
  section
    (Printf.sprintf "Pareto sweep: shared solve state vs independent solves%s"
       (if quick then " (quick)" else ""));
  (* Uncapped on purpose: the per-node point cap truncates in
     breadth-first order over the whole closure, so a capped horizon
     closure can keep different points below a smaller deadline than
     that deadline's own capped closure (test_core pins the
     difference), and capped shared and capped independent runs can
     legitimately disagree.  Without the cap every view is the
     one-shot point set; the sizes stay modest because the uncapped
     universe grows fast on the clustered scenarios. *)
  let n = if quick then 28 else 40 in
  let p = nscale_problem n in
  let npoints = 10 in
  let grid = pareto_grid ~npoints p.Problem.deadline in
  let planner = alg "SPT" in
  let sweep ~share pool = Pareto.sweep ?pool ~share ~planner ~deadlines:grid p in
  let shared =
    measure cli ~name:"pareto shared grid" ~fingerprint:pareto_fingerprint (sweep ~share:true)
  in
  (* Run once, untimed: it feeds the equality and counter gates only. *)
  let indep, indep_deltas = counted (fun () -> sweep ~share:false cli.pool) in
  let single =
    measure cli ~name:"pareto single solve" ~fingerprint:(outcome_fingerprint p) (fun _pool ->
        Planner.run planner p)
  in
  Printf.printf "%-34s %s s\n" "shared solve state, 1 domain" (spread shared.seq);
  Printf.printf "%-34s %s s\n" (Printf.sprintf "shared solve state, %d domains" cli.jobs)
    (spread shared.par);
  Printf.printf "%-34s %s s\n%!" "single solve" (spread (all single));
  if not (List.equal Float.equal (pareto_fingerprint shared.result) (pareto_fingerprint indep))
  then begin
    Printf.eprintf "pareto: shared-state sweep diverged from independent solves\n";
    exit 1
  end;
  Printf.printf "shared == independent on all %d points: true\n%!" npoints;
  (* Dominance sanity: along the front, energy must strictly drop as
     the deadline grows — otherwise the later point would have been
     dominated by the earlier one. *)
  let front_points =
    List.filter (fun (pt : Pareto.point) -> not pt.Pareto.dominated) shared.result.Pareto.points
  in
  let rec staircase = function
    | a :: (b :: _ as rest) ->
        if b.Pareto.energy >= a.Pareto.energy || a.Pareto.unreached <> 0 then false
        else staircase rest
    | [ a ] -> a.Pareto.unreached = 0
    | [] -> true
  in
  if not (staircase front_points) then begin
    Printf.eprintf "pareto: front is not a strictly descending full-coverage staircase\n";
    exit 1
  end;
  Printf.printf "front staircase (%d of %d points): ok\n%!" (List.length front_points) npoints;
  (* Counter sublinearity: the shared run pays the DTS closure and the
     DCS pass once for the whole grid; the independent runs pay them
     per point. *)
  let gate label name =
    let shared_d = count name shared.deltas and indep_d = count name indep_deltas in
    Printf.printf "  %-28s shared %9d  independent %9d\n%!" label shared_d indep_d;
    if 3 * shared_d > indep_d then begin
      Printf.eprintf "pareto: shared %s (%d) is not sublinear vs independent (%d)\n" label
        shared_d indep_d;
      exit 1
    end
  in
  gate "dcs.queries" "dcs.queries";
  gate "dts closure points" "dts.points";
  if count "solve_state.creates" shared.deltas <> 1 then begin
    Printf.eprintf "pareto: shared sweep created %d solve states, expected 1\n"
      (count "solve_state.creates" shared.deltas);
    exit 1
  end;
  (* Wall gate, full mode only (quick CI boxes are too noisy): the
     whole grid on the pool must cost less than 3 single solves,
     comparing the fastest sample of each, so one slow stretch of a
     shared host cannot decide the ratio on its own. *)
  let single_secs = fastest (all single) and shared_secs = fastest shared.par in
  Printf.printf "single solve %.2f s; %d-point shared grid %.2f s (%.2fx; minima)\n%!"
    single_secs npoints shared_secs
    (shared_secs /. Float.max single_secs 1e-9);
  if (not quick) && shared_secs >= 3. *. single_secs then begin
    Printf.eprintf "pareto: shared grid (%.2f s) is not under 3x a single solve (%.2f s)\n"
      shared_secs single_secs;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Parallel baseline: measure each figure-sweep kernel with 1 domain
   and with the configured pool and write the next BENCH_N.json, so
   the counter pin and the timings accumulate into a trajectory. *)

let baseline_config =
  {
    Experiment.default_config with
    Experiment.n = 10;
    horizon = 6000.;
    deadline = 1500.;
    sources = 2;
    mc_trials = 60;
    dts_cap = 600;
  }

(* Each kernel maps a pool to a result fingerprint: the full list of
   figure values, which [measure] compares exactly across runs. *)
let baseline_kernels : (string * (Tmedb_prelude.Pool.t option -> float list)) list =
  let fingerprint series =
    List.concat_map (fun s -> List.concat_map (fun (x, y) -> [ x; y ]) s.Experiment.points) series
  in
  [
    ( "fig4-sweep",
      fun pool ->
        fingerprint
          (Experiment.fig4 ~config:baseline_config ?pool ~variant:`Static
             ~deadlines:[ 1000.; 1500. ] ~ns:[ 8; 10 ] ()) );
    ( "fig5-sweep",
      fun pool ->
        fingerprint
          (Experiment.fig5 ~config:baseline_config ?pool ~variant:`Fading
             ~deadlines:[ 1000.; 1500. ] ()) );
    ( "fig6-sweep",
      fun pool ->
        let energy, delivery = Experiment.fig6 ~config:baseline_config ?pool ~ns:[ 8; 10 ] () in
        fingerprint energy @ fingerprint delivery );
    ( "mc-simulate",
      fun pool ->
        let trace = Experiment.make_trace baseline_config ~n:10 in
        let problem =
          Experiment.make_problem baseline_config ~trace ~channel:`Rayleigh ~source:0
            ~deadline:1500.
        in
        let greedy_ctx = Planner.Ctx.make ~cap_per_node:600 () in
        let schedule = (Greedy.plan greedy_ctx problem).Planner.Outcome.schedule in
        let sim =
          Simulate.run ~trials:3000 ?pool ~rng:(Tmedb_prelude.Rng.create 2)
            ~eval_channel:`Rayleigh problem schedule
        in
        [ sim.Simulate.delivery_ratio; sim.Simulate.mean_energy_spent ] );
    ( "nscale",
      (* Pool-independent on purpose: the lazy planner is a single
         scan, and the counter deltas the baseline machinery records
         (aux_graph.lazy_nodes_total vs aux_graph.nodes_materialized)
         are the kernel's real payload. *)
      fun _pool ->
        let p = nscale_problem 1000 in
        let ctx = Planner.Ctx.make ~cap_per_node:nscale_cap () in
        outcome_fingerprint p (Planner.run ~ctx (alg "SPT") p) );
    ( "pareto",
      (* The grid fans out over the pool; the per-point RNG splits make
         the fingerprint pool-independent, which [measure] checks.  The
         counter deltas it records (solve_state.*, dts.points,
         dcs.queries, pareto.points) are the shared state's real
         payload. *)
      fun pool ->
        (* n = 32 and no point cap: see pareto_bench — uncapped, every
           view of the horizon closure is the one-shot closure. *)
        let p = nscale_problem 32 in
        pareto_fingerprint
          (Pareto.sweep ?pool ~planner:(alg "SPT")
             ~deadlines:(pareto_grid ~npoints:10 p.Problem.deadline)
             p) );
  ]

(* Baseline files form a sequence BENCH_1.json, BENCH_2.json, …: each
   baseline run appends the next file in the sequence instead of
   overwriting the previous one, so the perf trajectory accumulates
   (EXPERIMENTS.md documents the convention). *)
let next_bench_path () =
  let last =
    Array.fold_left
      (fun ((n, _) as best) f ->
        match Scanf.sscanf f "BENCH_%d.json%!" Fun.id with
        | k when k > n -> (k, Some f)
        | _ | (exception Scanf.Scan_failure _) | (exception Failure _)
        | (exception End_of_file) ->
            best)
      (0, None) (Sys.readdir ".")
  in
  (Printf.sprintf "BENCH_%d.json" (fst last + 1), snd last)

let load_json p =
  let ic = open_in p in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.parse contents with
  | Ok doc -> doc
  | Error e ->
      Printf.eprintf "%s does not parse: %s\n" p e;
      exit 1

(* Writes the next baseline and returns its path, the previous one's
   and each kernel's median speedup. *)
let baseline cli =
  let path, prev = next_bench_path () in
  (* Always record per-kernel counter deltas in the baseline file,
     whether or not `--metrics` was given. *)
  Tmedb_obs.set_enabled true;
  let nproc = Domain.recommended_domain_count () in
  section
    (Printf.sprintf "Parallel baseline: 1 domain vs %d, %d samples each, nproc %d (%s)" cli.jobs
       rounds nproc path);
  Printf.printf "%-12s %-30s %-30s %8s\n" "kernel" "1 domain (s) [q1, q3]"
    (Printf.sprintf "%d domains (s) [q1, q3]" cli.jobs)
    "speedup";
  let rows =
    List.map
      (fun (name, kernel) ->
        let m = measure cli ~name ~fingerprint:Fun.id kernel in
        let q1, s1, q3 = quartiles m.seq and jq1, sj, jq3 = quartiles m.par in
        let speedup = s1 /. Float.max sj 1e-9 in
        Printf.printf "%-12s %-30s %-30s %7.2fx\n%!" name (spread m.seq) (spread m.par) speedup;
        ( (name, speedup),
          Json.Obj
            [
              ("name", Json.Str name);
              ("seconds_1", Json.Num s1);
              ("seconds_1_q1", Json.Num q1);
              ("seconds_1_q3", Json.Num q3);
              ("seconds_jobs", Json.Num sj);
              ("seconds_jobs_q1", Json.Num jq1);
              ("seconds_jobs_q3", Json.Num jq3);
              ("speedup", Json.Num speedup);
              ("samples", Json.Num (float_of_int rounds));
              ( "metrics",
                Json.Obj (List.map (fun (k, d) -> (k, Json.Num (float_of_int d))) m.deltas) );
            ] ))
      baseline_kernels
  in
  let doc =
    Json.Obj
      [
        ("jobs", Json.Num (float_of_int cli.jobs));
        ("nproc", Json.Num (float_of_int nproc));
        ("kernels", Json.List (List.map snd rows));
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  (* Validate the baseline round-trips before anything regresses
     against it. *)
  (match Option.bind (Json.member "kernels" (load_json path)) Json.to_list with
  | Some (_ :: _ as ks) when List.for_all (fun k -> Json.member "metrics" k <> None) ks ->
      Printf.printf "%s ok (%d kernels, with metrics)\n%!" path (List.length ks)
  | Some _ | None ->
      Printf.eprintf "%s has no kernels, or a kernel row lacks the metrics field\n" path;
      exit 1);
  (path, prev, List.map fst rows)

(* ------------------------------------------------------------------ *)
(* Regression gate: append the next baseline and diff it against the
   previous one.  Deterministic keys (the per-kernel counter deltas
   and structural fields) gate at `--threshold`; wall-clock keys
   (seconds/speedup) are inherently noisy and gate only at a loose
   fixed 0.5.  Exit 1 when either gate trips — callers that want
   advisory behaviour (scripts/regress.sh) downgrade the exit code. *)

let regress cli =
  let path, prev, speedups = baseline cli in
  (* `--speedup-floor`: gate the fresh baseline's figure-sweep speedups
     (the kernels whose fan-out the pool is supposed to help); no
     previous baseline needed. *)
  Option.iter
    (fun floor ->
      let low =
        List.filter
          (fun (name, s) ->
            Printf.printf "speedup floor: %-12s %.2fx (floor %.2fx)\n" name s floor;
            s < floor)
          (List.filter (fun (name, _) -> List.mem name [ "fig5-sweep"; "fig6-sweep" ]) speedups)
      in
      if low <> [] then begin
        List.iter
          (fun (name, s) ->
            Printf.eprintf "speedup floor: %s at %.2fx is below the %.2fx floor\n" name s floor)
          low;
        exit 1
      end)
    cli.speedup_floor;
  match prev with
  | None ->
      Printf.printf "\nregress: %s is the first baseline, nothing to compare against\n" path
  | Some prev ->
      section (Printf.sprintf "Regression: %s vs %s (threshold %g)" prev path cli.threshold);
      let deltas = Tmedb_report.Diff.diff (load_json prev) (load_json path) in
      let contains hay needle =
        let lh = String.length hay and ln = String.length needle in
        let rec at i = i + ln <= lh && (String.sub hay i ln = needle || at (i + 1)) in
        ln > 0 && at 0
      in
      let timing d =
        contains d.Tmedb_report.Diff.key "seconds" || contains d.Tmedb_report.Diff.key "speedup"
      in
      (* Scheduler diagnostics (pool.steals, pool.chunk_size buckets,
         pool.batches/tasks) depend on observed task timing, and nproc
         is the host's, so they are reported but never gate. *)
      let informational d =
        d.Tmedb_report.Diff.key = "nproc" || contains d.Tmedb_report.Diff.key "pool."
      in
      (* A key present only in the new baseline is a kernel or counter
         the suite *learned* — report it, don't gate on it.  A key that
         *disappeared* still gates: losing a counter silently is how
         coverage rots. *)
      let added (d : Tmedb_report.Diff.delta) =
        d.Tmedb_report.Diff.a = None && d.Tmedb_report.Diff.b <> None
      in
      let added_deltas, rest = List.partition added deltas in
      let timing_deltas, rest = List.partition timing rest in
      let info_deltas, stable_deltas = List.partition informational rest in
      List.iter
        (fun (d : Tmedb_report.Diff.delta) ->
          Printf.printf "i informational: %s changed\n" d.Tmedb_report.Diff.key)
        (List.filter Tmedb_report.Diff.changed info_deltas);
      List.iter
        (fun (d : Tmedb_report.Diff.delta) ->
          Printf.printf "+ learned: %s (new in this baseline)\n" d.Tmedb_report.Diff.key)
        added_deltas;
      print_string (Tmedb_report.Diff.render ~threshold:cli.threshold stable_deltas);
      let tripped = Tmedb_report.Diff.exceeding ~threshold:cli.threshold stable_deltas in
      let timing_tripped = Tmedb_report.Diff.exceeding ~threshold:0.5 timing_deltas in
      List.iter
        (fun (d : Tmedb_report.Diff.delta) ->
          Printf.printf "! timing: %s moved more than 50%%\n" d.Tmedb_report.Diff.key)
        timing_tripped;
      if tripped <> [] || timing_tripped <> [] then begin
        Printf.eprintf "regress: %d deterministic and %d timing key(s) exceed the gate\n"
          (List.length tripped) (List.length timing_tripped);
        exit 1
      end
      else Printf.printf "regress ok: no key exceeds the gate\n"

(* ------------------------------------------------------------------ *)
(* Telemetry overhead: the disabled registry must cost about a flag
   check on the hot path, and turning it on must not change results. *)

let obs_overhead cli =
  section "Telemetry overhead (lib/obs)";
  let c = Tmedb_obs.Counter.make "bench.obs.counter" in
  let t = Tmedb_obs.Timer.make "bench.obs.timer" in
  let counter_iters = 20_000_000 and timer_iters = 2_000_000 in
  let counter_loop () =
    for _ = 1 to counter_iters do
      Tmedb_obs.Counter.incr c
    done
  in
  let timer_loop () =
    for _ = 1 to timer_iters do
      let h = Tmedb_obs.Timer.start t in
      Tmedb_obs.Timer.stop t h
    done
  in
  (* ns/op of every sample of [loop]; the loops ignore the pool. *)
  let ns_per name loop iters =
    let m = measure cli ~name ~fingerprint:(fun () -> []) (fun _pool -> loop ()) in
    Array.map (fun s -> s /. float_of_int iters *. 1e9) (all m)
  in
  let was = Tmedb_obs.enabled () in
  Tmedb_obs.set_enabled false;
  let off_counter = ns_per "obs counter" counter_loop counter_iters in
  let off_timer = ns_per "obs timer" timer_loop timer_iters in
  Tmedb_obs.set_enabled true;
  let on_counter = ns_per "obs counter" counter_loop counter_iters in
  let on_timer = ns_per "obs timer" timer_loop timer_iters in
  Printf.printf "%-24s %-30s %s\n" "primitive" "disabled ns/op [q1, q3]"
    "enabled ns/op [q1, q3]";
  Printf.printf "%-24s %-30s %s\n" "Counter.incr" (spread off_counter) (spread on_counter);
  Printf.printf "%-24s %-30s %s\n%!" "Timer.start/stop" (spread off_timer) (spread on_timer);
  (* Instrumentation observes, never steers: a kernel must produce
     bit-identical results with telemetry off and on. *)
  let kernel = List.assoc "mc-simulate" baseline_kernels in
  Tmedb_obs.set_enabled false;
  let off_result = kernel cli.pool in
  Tmedb_obs.set_enabled true;
  let on_result = kernel cli.pool in
  let same = List.for_all2 Float.equal off_result on_result in
  Printf.printf "mc-simulate bit-identical with telemetry off/on: %b\n%!" same;
  if not same then begin
    Printf.eprintf "telemetry changed kernel results\n";
    exit 1
  end;
  (* Flight recorder, armed with full telemetry off: counters/timers
     take the recording branch behind the same shared flag check, and
     span events go only into the bounded per-domain rings — never the
     unbounded stream — so a multi-minute run can stay armed. *)
  Tmedb_obs.set_enabled false;
  let stream_before = List.length (Tmedb_obs.events ()) in
  Tmedb_obs.Flight.arm ();
  let armed_counter = ns_per "obs armed counter" counter_loop counter_iters in
  let armed_timer = ns_per "obs armed timer" timer_loop timer_iters in
  let span_iters = 200_000 in
  let span_loop () =
    for _ = 1 to span_iters do
      Tmedb_obs.Span.with_ "bench.obs.span" (fun () -> ())
    done
  in
  let armed_span = ns_per "obs armed span" span_loop span_iters in
  let armed_result = kernel cli.pool in
  Tmedb_obs.Flight.disarm ();
  let stream_after = List.length (Tmedb_obs.events ()) in
  let ring = List.length (Tmedb_obs.Flight.recent ()) in
  Tmedb_obs.set_enabled was;
  Printf.printf "%-24s %s\n" "primitive (armed)" "armed ns/op [q1, q3]";
  Printf.printf "%-24s %s\n" "Counter.incr" (spread armed_counter);
  Printf.printf "%-24s %s\n" "Timer.start/stop" (spread armed_timer);
  Printf.printf "%-24s %-30s ring %d events (cap %d/domain)\n%!" "Span.with_"
    (spread armed_span) ring
    (Tmedb_obs.Flight.capacity ());
  if stream_after <> stream_before then begin
    Printf.eprintf "armed-only recording grew the unbounded span stream (%d -> %d)\n"
      stream_before stream_after;
    exit 1
  end;
  if ring > Tmedb_obs.Flight.capacity () * (cli.jobs + 1) then begin
    Printf.eprintf "flight ring exceeded its bound (%d events)\n" ring;
    exit 1
  end;
  if not (List.for_all2 Float.equal off_result armed_result) then begin
    Printf.eprintf "arming the flight recorder changed kernel results\n";
    exit 1
  end;
  (* The disabled path is a single Atomic.get + branch; tens of ns
     would mean a lock or allocation crept in.  The bound is generous
     to stay robust on loaded machines; the armed bounds allow the
     recording branch (clock reads, ring stores) but nothing worse.
     Each budget applies to the fastest sample. *)
  let off_counter = fastest off_counter and off_timer = fastest off_timer in
  if off_counter > 50. || off_timer > 100. then begin
    Printf.eprintf "disabled-path overhead too high (%.1f / %.1f ns/op)\n" off_counter
      off_timer;
    exit 1
  end;
  let armed_counter = fastest armed_counter
  and armed_timer = fastest armed_timer
  and armed_span = fastest armed_span in
  if armed_counter > 200. || armed_timer > 500. || armed_span > 5000. then begin
    Printf.eprintf "armed-path overhead too high (%.1f / %.1f / %.1f ns/op)\n" armed_counter
      armed_timer armed_span;
    exit 1
  end

(* ------------------------------------------------------------------ *)

let all_figures cli config =
  fig4 cli config `Static;
  fig4 cli config `Fading;
  fig5 cli config `Static;
  fig5 cli config `Fading;
  fig6 cli config `Energy;
  fig6 cli config `Delivery;
  fig7 cli config `Static;
  fig7 cli config `Fading

let usage () =
  prerr_endline
    "usage: main.exe [--jobs K] [--metrics FILE] [--trace FILE] [--profile DIR] \
     [--threshold REL] [--speedup-floor F] \
     [quick|fig4a|fig4b|fig5a|fig5b|fig6a|fig6b|fig7a|fig7b|ablation|baseline|regress|obs|nscale \
     [--quick]|pareto [--quick]]";
  exit 2

(* Strip `--jobs K` / `-j K`, the telemetry sinks and the regress
   gates anywhere in argv; the rest selects the mode. *)
let parse_args () =
  let rec go cli mode = function
    | ("--jobs" | "-j") :: k :: rest -> (
        match int_of_string_opt k with
        | Some k when k >= 1 -> go { cli with jobs = k } mode rest
        | Some _ | None -> usage ())
    | "--metrics" :: path :: rest -> go { cli with metrics = Some path } mode rest
    | "--trace" :: path :: rest -> go { cli with trace = Some path } mode rest
    | "--profile" :: dir :: rest -> go { cli with profile = Some dir } mode rest
    | "--threshold" :: t :: rest -> (
        match float_of_string_opt t with
        | Some t when t >= 0. -> go { cli with threshold = t } mode rest
        | Some _ | None -> usage ())
    | "--speedup-floor" :: f :: rest -> (
        match float_of_string_opt f with
        | Some f when f > 0. -> go { cli with speedup_floor = Some f } mode rest
        | Some _ | None -> usage ())
    | arg :: rest -> go cli (arg :: mode) rest
    | [] -> (cli, List.rev mode)
  in
  let cli, mode =
    go
      {
        jobs = Tmedb_prelude.Pool.default_num_domains ();
        pool = None;
        metrics = None;
        trace = None;
        profile = None;
        threshold = 0.05;
        speedup_floor = None;
      }
      []
      (List.tl (Array.to_list Sys.argv))
  in
  if cli.metrics <> None || cli.trace <> None || cli.profile <> None then
    Tmedb_obs.set_enabled true;
  let pool =
    if cli.jobs > 1 then Some (Tmedb_prelude.Pool.create ~num_domains:cli.jobs ()) else None
  in
  ({ cli with pool }, mode)

(* Flush the telemetry sinks requested on the command line; the
   metrics file must round-trip through the in-repo parser with its
   mandatory keys (check.sh smokes this). *)
let write_telemetry cli =
  Option.iter
    (fun path ->
      Tmedb_prelude.Obs_json.write_metrics ~path;
      let doc = load_json path in
      if Json.member "counters" doc = None || Json.member "timers" doc = None then begin
        Printf.eprintf "%s: missing counters/timers keys\n" path;
        exit 1
      end;
      Printf.eprintf "metrics written to %s\n%!" path)
    cli.metrics;
  Option.iter
    (fun path ->
      Tmedb_prelude.Obs_json.write_trace ~path;
      Printf.eprintf "trace written to %s\n%!" path)
    cli.trace;
  Option.iter
    (fun dir ->
      ignore (Tmedb_prelude.Profile.write_artifacts ~dir ());
      Printf.eprintf "profile artifacts written to %s/\n%!" dir)
    cli.profile

let () =
  let cli, mode = parse_args () in
  Printf.printf "[jobs: %d]\n%!" cli.jobs;
  (match mode with
  | [] ->
      all_figures cli bench_config;
      ablations bench_config;
      ignore (baseline cli)
  | [ "quick" ] ->
      all_figures cli quick_config;
      ablations quick_config
  | [ "fig4a" ] -> fig4 cli bench_config `Static
  | [ "fig4b" ] -> fig4 cli bench_config `Fading
  | [ "fig5a" ] -> fig5 cli bench_config `Static
  | [ "fig5b" ] -> fig5 cli bench_config `Fading
  | [ "fig6a" ] -> fig6 cli bench_config `Energy
  | [ "fig6b" ] -> fig6 cli bench_config `Delivery
  | [ "fig7a" ] -> fig7 cli bench_config `Static
  | [ "fig7b" ] -> fig7 cli bench_config `Fading
  | [ "ablation" ] -> ablations bench_config
  | [ "baseline" ] -> ignore (baseline cli)
  | [ "regress" ] -> regress cli
  | [ "obs" ] -> obs_overhead cli
  | [ "nscale" ] -> nscale cli ~quick:false
  | [ "nscale"; "--quick" ] | [ "--quick"; "nscale" ] -> nscale cli ~quick:true
  | [ "pareto" ] -> pareto_bench cli ~quick:false
  | [ "pareto"; "--quick" ] | [ "--quick"; "pareto" ] -> pareto_bench cli ~quick:true
  | _ -> usage ());
  write_telemetry cli;
  Option.iter Tmedb_prelude.Pool.shutdown cli.pool
