(* Benchmark harness: regenerates every table/figure of the paper's
   evaluation (Section VII), the design-choice ablations and the
   deterministic kernel baseline.

   Usage:
     dune exec bench/main.exe            -- everything (figures, ablations, baseline)
     dune exec bench/main.exe quick      -- reduced-scale smoke run (writes BENCH_1.json)
     dune exec bench/main.exe fig4a      -- a single figure (fig4a..fig7b)
     dune exec bench/main.exe ablation   -- design-choice ablations
     dune exec bench/main.exe baseline   -- parallel baseline only (writes BENCH_1.json)
     dune exec bench/main.exe obs        -- telemetry overhead check (disabled-path cost)
     dune exec bench/main.exe nscale     -- lazy SPT frontier scaling (add --quick for CI)
     dune exec bench/main.exe pareto     -- shared-state deadline sweep vs independent solves (add --quick for CI)
     dune exec bench/main.exe trend      -- metric trajectory across all BENCH_*.json (add --json)

   Every mode accepts `--jobs K` (default: TMEDB_JOBS or the core
   count): the figure sweeps and Monte-Carlo loops fan out over K
   domains.  Results are bit-identical at any K — per-task RNG
   splitting — which the baseline mode verifies explicitly.

   `--metrics FILE` / `--trace FILE` / `--profile DIR` enable the
   telemetry registry (lib/obs) and write the counters/timers
   snapshot, the Chrome trace_event span file, resp. the folded
   profile artifacts (docs/PROFILING.md), on exit — every mode accepts
   them.  The baseline mode always runs with telemetry on and embeds
   each kernel's counter deltas in BENCH_1.json.

   Figures (paper <-> here):
     fig4a/fig4b  energy vs delay constraint, (FR-)EEDCB, N in {10,20,30}
     fig5a/fig5b  energy vs delay constraint, three (FR-)algorithms
     fig6a/fig6b  energy and Monte-Carlo delivery vs network size, all six
     fig7a/fig7b  per-window energy and average degree over [5000 s, 15000 s]

   Absolute numbers depend on the synthetic Haggle-like trace (the real
   iMote trace is not redistributable); the shapes and orderings are
   the reproduction target.  See EXPERIMENTS.md. *)

open Tmedb

(* The worker pool shared by every mode; None means sequential. *)
let pool : Tmedb_prelude.Pool.t option ref = ref None
let jobs = ref 1

(* Telemetry sinks, set by `--metrics` / `--trace` / `--profile`; any
   one turns the lib/obs registry on for the whole run. *)
let metrics_path : string option ref = ref None
let trace_path : string option ref = ref None
let profile_dir : string option ref = ref None

(* `--speedup-floor F`: minimum fig5/fig6 sweep speedup the regress
   mode accepts.  check.sh passes a hard floor only on multi-core
   runners; a 1-CPU box cannot speed anything up. *)
let speedup_floor : float option ref = ref None

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

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Printf.printf "[%s completed in %.1f s]\n%!" name (Unix.gettimeofday () -. t0);
  r

(* ------------------------------------------------------------------ *)
(* Figures *)

let fig4 config variant =
  let name = match variant with `Static -> "fig4a" | `Fading -> "fig4b" in
  timed name (fun () ->
      let series =
        Experiment.fig4 ~config ?pool:!pool ~variant ~deadlines:(deadlines_of config)
          ~ns:(sizes_of config) ()
      in
      let label =
        match variant with
        | `Static -> "Fig 4(a): EEDCB energy vs delay constraint (static channel)"
        | `Fading -> "Fig 4(b): FR-EEDCB energy vs delay constraint (Rayleigh)"
      in
      Experiment.print_series ~title:label ~xlabel:"T (s)" series)

let fig5 config variant =
  let name = match variant with `Static -> "fig5a" | `Fading -> "fig5b" in
  timed name (fun () ->
      let series =
        Experiment.fig5 ~config ?pool:!pool ~variant ~deadlines:(deadlines_of config) ()
      in
      let label =
        match variant with
        | `Static -> "Fig 5(a): energy vs delay constraint, static algorithms"
        | `Fading -> "Fig 5(b): energy vs delay constraint, fading-resistant algorithms"
      in
      Experiment.print_series ~title:label ~xlabel:"T (s)" series)

let fig6 config part =
  let name = match part with `Energy -> "fig6a" | `Delivery -> "fig6b" in
  timed name (fun () ->
      let energy, delivery = Experiment.fig6 ~config ?pool:!pool ~ns:(fig6_sizes config) () in
      match part with
      | `Energy ->
          Experiment.print_series
            ~title:"Fig 6(a): scheduled energy vs network size (fading environment)"
            ~xlabel:"N" energy
      | `Delivery ->
          Experiment.print_series
            ~title:"Fig 6(b): Monte-Carlo delivery ratio vs network size (Rayleigh)"
            ~xlabel:"N" delivery)

let fig7 config variant =
  let name = match variant with `Static -> "fig7a" | `Fading -> "fig7b" in
  timed name (fun () ->
      let energy, degree = Experiment.fig7 ~config ?pool:!pool ~variant () in
      let label =
        match variant with
        | `Static -> "Fig 7(a): per-window energy, static algorithms (density-ramp trace)"
        | `Fading -> "Fig 7(b): per-window energy, fading-resistant algorithms"
      in
      Experiment.print_series ~title:label ~xlabel:"window start (s)" energy;
      Experiment.print_series ~title:"Fig 7: average node degree per 500 s window"
        ~xlabel:"window start (s)" [ degree ])

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
  Printf.printf "%-8s %16s %10s %10s\n" "cap" "EEDCB energy" "feasible" "time (s)";
  List.iter
    (fun cap ->
      let config = { config with Experiment.dts_cap = cap } in
      let t0 = Unix.gettimeofday () in
      let r =
        Experiment.run_alg config ~trace ~source ~deadline ~rng:(Tmedb_prelude.Rng.create 3)
          (alg "EEDCB")
      in
      Printf.printf "%-8d %16.1f %10b %10.2f\n%!" cap r.Experiment.energy r.Experiment.feasible
        (Unix.gettimeofday () -. t0))
    [ 100; 400; 1500 ]

let ablation_tau config =
  section "Ablation: traversal latency tau (DTS size and propagation)";
  let trace = Experiment.make_trace config ~n:(Stdlib.min 10 config.Experiment.n) in
  Printf.printf "%-8s %14s %12s\n" "tau (s)" "DTS points" "time (s)";
  List.iter
    (fun tau ->
      let graph = Tmedb_tveg.Tveg.of_trace ~tau trace in
      let t0 = Unix.gettimeofday () in
      let dts =
        Tmedb_tveg.Dts.compute ~cap_per_node:config.Experiment.dts_cap ~source:0 graph
          ~deadline:config.Experiment.deadline
      in
      Printf.printf "%-8g %14d %12.2f\n%!" tau (Tmedb_tveg.Dts.total_points dts)
        (Unix.gettimeofday () -. t0))
    [ 0.; 0.5; 2. ]

let ablations config =
  timed "ablations" (fun () ->
      ablation_steiner_level config;
      ablation_nlp config;
      ablation_dts_cap config;
      ablation_tau config)

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

let nscale_outcome planner n =
  let p = nscale_problem n in
  let ctx = Planner.Ctx.make ~cap_per_node:nscale_cap () in
  let t0 = Unix.gettimeofday () in
  let o = Planner.run ~ctx planner p in
  (o, Unix.gettimeofday () -. t0, p)

let nscale_counter name snap =
  match List.assoc_opt name snap.Tmedb_obs.counters with Some v -> v | None -> 0

let nscale ~quick () =
  (* The materialisation counters below come from the global registry,
     so this mode forces telemetry on. *)
  Tmedb_obs.set_enabled true;
  section
    (Printf.sprintf "N-scaling: lazy SPT frontier vs the forced graph%s"
       (if quick then " (quick)" else ""));
  let row label n secs (o : Planner.Outcome.t) p =
    Printf.printf "%-24s %6d %9.2f s %14.1f %10d unreached\n%!" label n secs
      (Metrics.normalized_energy p o.Planner.Outcome.schedule)
      (List.length o.Planner.Outcome.unreached)
  in
  (* 1. The wall for the wall-clock comparison: EEDCB on the forced
     graph at N=100 (skipped in quick mode). *)
  let wall_secs =
    if quick then None
    else begin
      let o, secs, p = nscale_outcome (alg "EEDCB") 100 in
      row "EEDCB forced (the wall)" 100 secs o p;
      Some secs
    end
  in
  (* 2. Lazy SPT up the N curve, frontier cut measured per point; the
     10x gate and the unreached check apply to the last (largest) N. *)
  let curve = if quick then [ 300 ] else [ 250; 500; 1000 ] in
  let last =
    List.fold_left
      (fun _ n ->
        let before = Tmedb_obs.snapshot () in
        let o, secs, p = nscale_outcome (alg "SPT") n in
        let after = Tmedb_obs.snapshot () in
        row "SPT lazy" n secs o p;
        let materialized =
          nscale_counter "aux_graph.nodes_materialized" after
          - nscale_counter "aux_graph.nodes_materialized" before
        in
        let universe =
          nscale_counter "aux_graph.lazy_nodes_total" after
          - nscale_counter "aux_graph.lazy_nodes_total" before
        in
        let ratio = float_of_int universe /. float_of_int (Stdlib.max materialized 1) in
        Printf.printf "  N=%-5d universe %9d  materialized %8d  %.1fx cut\n%!" n universe
          materialized ratio;
        Some (n, o, secs, ratio))
      None curve
  in
  let n_big, big_o, big_secs, ratio =
    match last with Some x -> x | None -> assert false
  in
  if big_o.Planner.Outcome.unreached <> [] then begin
    Printf.eprintf "nscale: N=%d broadcast left nodes unreached\n" n_big;
    exit 1
  end;
  if ratio < 10. then begin
    Printf.eprintf "nscale: materialization cut %.1fx is below the 10x gate\n" ratio;
    exit 1
  end;
  Option.iter
    (fun wall ->
      Printf.printf "lazy SPT N=%d %.2f s vs EEDCB N=100 %.2f s\n%!" n_big big_secs wall;
      if big_secs >= wall then begin
        Printf.eprintf "nscale: lazy SPT N=%d (%.2f s) is not faster than EEDCB at N=100 (%.2f s)\n"
          n_big big_secs wall;
        exit 1
      end)
    wall_secs

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

let pareto_point_equal (a : Pareto.point) (b : Pareto.point) =
  Float.equal a.Pareto.deadline b.Pareto.deadline
  && Float.equal a.Pareto.energy b.Pareto.energy
  && a.Pareto.transmissions = b.Pareto.transmissions
  && Bool.equal a.Pareto.feasible b.Pareto.feasible
  && a.Pareto.unreached = b.Pareto.unreached
  && Bool.equal a.Pareto.dominated b.Pareto.dominated

let pareto_bench ~quick () =
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
  let horizon = p.Problem.deadline in
  let npoints = 10 in
  let grid = pareto_grid ~npoints horizon in
  let planner = alg "SPT" in
  let run ~share =
    let before = Tmedb_obs.snapshot () in
    let t0 = Unix.gettimeofday () in
    let r = Pareto.sweep ?pool:!pool ~share ~planner ~deadlines:grid p in
    let secs = Unix.gettimeofday () -. t0 in
    (r, secs, before, Tmedb_obs.snapshot ())
  in
  let shared, first_shared_secs, sb, sa = run ~share:true in
  let indep, indep_secs, ib, ia = run ~share:false in
  Printf.printf "%-34s %9.2f s\n" "shared solve state (10 points)" first_shared_secs;
  Printf.printf "%-34s %9.2f s\n%!" "independent solves" indep_secs;
  if
    not
      (List.length shared.Pareto.points = List.length indep.Pareto.points
      && List.for_all2 pareto_point_equal shared.Pareto.points indep.Pareto.points)
  then begin
    Printf.eprintf "pareto: shared-state sweep diverged from independent solves\n";
    exit 1
  end;
  Printf.printf "shared == independent on all %d points: true\n%!" npoints;
  (* Dominance sanity: along the front, energy must strictly drop as
     the deadline grows — otherwise the later point would have been
     dominated by the earlier one. *)
  let front_points =
    List.filter (fun (pt : Pareto.point) -> not pt.Pareto.dominated) shared.Pareto.points
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
  let delta name before after = nscale_counter name after - nscale_counter name before in
  let gate label shared_d indep_d =
    Printf.printf "  %-28s shared %9d  independent %9d\n%!" label shared_d indep_d;
    if 3 * shared_d > indep_d then begin
      Printf.eprintf "pareto: shared %s (%d) is not sublinear vs independent (%d)\n" label
        shared_d indep_d;
      exit 1
    end
  in
  gate "dcs.queries" (delta "dcs.queries" sb sa) (delta "dcs.queries" ib ia);
  gate "dts closure points" (delta "dts.points" sb sa) (delta "dts.points" ib ia);
  if delta "solve_state.creates" sb sa <> 1 then begin
    Printf.eprintf "pareto: shared sweep created %d solve states, expected 1\n"
      (delta "solve_state.creates" sb sa);
    exit 1
  end;
  (* Wall gate, full mode only (quick CI boxes are too noisy): the
     whole grid under the shared state must cost less than 3 single
     solves.  Each side is the minimum of three executions taken in
     turn (the first grid is the sweep above), so one slow stretch of
     a shared host cannot decide the ratio on its own. *)
  let single_secs = ref Float.infinity and shared_secs = ref first_shared_secs in
  for round = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    ignore (Planner.run planner p);
    single_secs := Float.min !single_secs (Unix.gettimeofday () -. t0);
    if round < 3 then begin
      let _, secs, _, _ = run ~share:true in
      shared_secs := Float.min !shared_secs secs
    end
  done;
  let single_secs = !single_secs and shared_secs = !shared_secs in
  Printf.printf "single solve %.2f s; %d-point shared grid %.2f s (%.2fx; minimum of 3 each)\n%!"
    single_secs npoints shared_secs
    (shared_secs /. Float.max single_secs 1e-9);
  if (not quick) && shared_secs >= 3. *. single_secs then begin
    Printf.eprintf "pareto: shared grid (%.2f s) is not under 3x a single solve (%.2f s)\n"
      shared_secs single_secs;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Parallel baseline: time each figure-sweep kernel with 1 domain and
   with the configured pool, check the results are bit-identical, and
   write BENCH_1.json so later sessions have a perf trajectory. *)

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
   figure values, compared exactly between the 1-domain and N-domain
   runs. *)
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
        let o = Planner.run ~ctx (alg "SPT") p in
        [
          Metrics.normalized_energy p o.Planner.Outcome.schedule;
          float_of_int (List.length o.Planner.Outcome.unreached);
        ] );
    ( "pareto",
      (* The grid fans out over the pool; the per-point RNG splits make
         the fingerprint pool-independent, which the baseline machinery
         checks.  The counter deltas it records (solve_state.*,
         dts.points, dcs.queries, pareto.points) are the shared
         state's real payload. *)
      fun pool ->
        (* n = 32 and no point cap: see pareto_bench — uncapped, every
           view of the horizon closure is the one-shot closure. *)
        let p = nscale_problem 32 in
        let r =
          Pareto.sweep ?pool ~planner:(alg "SPT")
            ~deadlines:(pareto_grid ~npoints:10 p.Problem.deadline)
            p
        in
        List.concat_map
          (fun (pt : Pareto.point) ->
            [
              pt.Pareto.deadline;
              pt.Pareto.energy;
              float_of_int pt.Pareto.unreached;
              (if pt.Pareto.dominated then 1. else 0.);
            ])
          r.Pareto.points );
  ]

(* Baseline files form a sequence BENCH_1.json, BENCH_2.json, …: each
   baseline run appends the next file in the sequence instead of
   overwriting the previous one, so the perf trajectory accumulates
   (EXPERIMENTS.md documents the convention).  The directory listing
   is sorted — Sys.readdir order is unspecified. *)
let bench_files () =
  Sys.readdir "." |> Array.to_list
  |> List.filter_map (fun f ->
         match Scanf.sscanf f "BENCH_%d.json%!" (fun n -> n) with
         | n when n >= 1 -> Some (n, f)
         | _ | (exception Scanf.Scan_failure _) | (exception Failure _)
         | (exception End_of_file) ->
             None)
  |> List.sort compare

let next_bench_path () =
  match List.rev (bench_files ()) with
  | (n, prev) :: _ -> (Printf.sprintf "BENCH_%d.json" (n + 1), Some prev)
  | [] -> ("BENCH_1.json", None)

(* Counter deltas between two registry snapshots, as a JSON object of
   the counters the kernel actually moved. *)
let counter_deltas before after =
  let base name =
    match List.assoc_opt name before.Tmedb_obs.counters with Some v -> v | None -> 0
  in
  List.filter_map
    (fun (name, v) ->
      let d = v - base name in
      if d <> 0 then Some (name, Tmedb_prelude.Json.Num (float_of_int d)) else None)
    after.Tmedb_obs.counters

let baseline () =
  let open Tmedb_prelude in
  let path, prev = next_bench_path () in
  (* Always record per-kernel counter deltas in the baseline file,
     whether or not `--metrics` was given. *)
  Tmedb_obs.set_enabled true;
  section (Printf.sprintf "Parallel baseline: 1 domain vs %d (%s)" !jobs path);
  let timed_run f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let deterministic = ref true in
  Printf.printf "%-16s %12s %12s %9s %13s\n" "kernel" "1 domain (s)"
    (Printf.sprintf "%d dom. (s)" !jobs)
    "speedup" "deterministic";
  let rows =
    List.map
      (fun (name, kernel) ->
        let seq_result, seq_s = timed_run (fun () -> kernel None) in
        (* Counter deltas are taken around the pooled run (the
           configuration a regression would ship with); counters are
           jobs-invariant so the sequential run would report the same
           numbers. *)
        let before = Tmedb_obs.snapshot () in
        let par_result, par_s = timed_run (fun () -> kernel !pool) in
        let after = Tmedb_obs.snapshot () in
        let same = List.for_all2 Float.equal seq_result par_result in
        if not same then deterministic := false;
        let speedup = seq_s /. Float.max par_s 1e-9 in
        Printf.printf "%-16s %12.3f %12.3f %8.2fx %13b\n%!" name seq_s par_s speedup same;
        Json.Obj
          [
            ("name", Json.Str name);
            ("seconds_1", Json.Num seq_s);
            ("seconds_jobs", Json.Num par_s);
            ("speedup", Json.Num speedup);
            ("metrics", Json.Obj (counter_deltas before after));
          ])
      baseline_kernels
  in
  let doc =
    Json.Obj
      [
        ("jobs", Json.Num (float_of_int !jobs));
        ("deterministic", Json.Bool !deterministic);
        ("kernels", Json.List rows);
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  (* Validate the baseline round-trips before anything regresses
     against it. *)
  let ic = open_in path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  (match Json.parse contents with
  | Ok parsed -> (
      match Option.bind (Json.member "kernels" parsed) Json.to_list with
      | Some (_ :: _ as ks) when List.for_all (fun k -> Json.member "metrics" k <> None) ks
        ->
          Printf.printf "%s ok (%d kernels, with metrics)\n%!" path (List.length ks)
      | Some (_ :: _) ->
          Printf.eprintf "%s kernel rows lack the metrics field\n" path;
          exit 1
      | Some [] | None ->
          Printf.eprintf "%s parsed but has no kernels\n" path;
          exit 1)
  | Error e ->
      Printf.eprintf "%s does not parse: %s\n" path e;
      exit 1);
  if not !deterministic then begin
    Printf.eprintf "parallel results differ from the sequential run\n";
    exit 1
  end;
  (path, prev)

(* ------------------------------------------------------------------ *)
(* Regression gate: append the next baseline and diff it against the
   previous one.  Deterministic keys (the per-kernel counter deltas
   and structural fields) gate at `--threshold`; wall-clock keys
   (seconds/speedup) are inherently noisy and gate only at a loose
   fixed 0.5.  Exit 1 when either gate trips — callers that want
   advisory behaviour (scripts/regress.sh) downgrade the exit code. *)

let regress_threshold = ref 0.05

let load_json p =
  let ic = open_in p in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Tmedb_prelude.Json.parse contents with
  | Ok doc -> doc
  | Error e ->
      Printf.eprintf "%s does not parse: %s\n" p e;
      exit 1

(* `--speedup-floor`: gate the freshly emitted baseline's figure-sweep
   speedups (the kernels whose fan-out the pool is supposed to help).
   Applied to the new file alone — no previous baseline needed. *)
let check_speedup_floor path =
  match !speedup_floor with
  | None -> ()
  | Some floor ->
      let open Tmedb_prelude in
      let kernels =
        match Option.bind (Json.member "kernels" (load_json path)) Json.to_list with
        | Some ks -> ks
        | None ->
            Printf.eprintf "%s has no kernels\n" path;
            exit 1
      in
      let speedup_of name =
        List.find_map
          (fun k ->
            match
              (Json.member "name" k, Option.bind (Json.member "speedup" k) Json.to_float)
            with
            | Some (Json.Str n), Some s when n = name -> Some s
            | _ -> None)
          kernels
      in
      let failed =
        List.filter_map
          (fun name ->
            match speedup_of name with
            | Some s ->
                Printf.printf "speedup floor: %-12s %.2fx (floor %.2fx)\n" name s floor;
                if s < floor then Some (name, s) else None
            | None ->
                Printf.eprintf "%s: kernel %s missing from baseline\n" path name;
                exit 1)
          [ "fig5-sweep"; "fig6-sweep" ]
      in
      if failed <> [] then begin
        List.iter
          (fun (name, s) ->
            Printf.eprintf "speedup floor: %s at %.2fx is below the %.2fx floor\n" name s floor)
          failed;
        exit 1
      end

let regress () =
  let path, prev = baseline () in
  check_speedup_floor path;
  match prev with
  | None ->
      Printf.printf "\nregress: %s is the first baseline, nothing to compare against\n" path
  | Some prev ->
      section (Printf.sprintf "Regression: %s vs %s (threshold %g)" prev path !regress_threshold);
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
         pool.batches/tasks) depend on observed task timing, so they
         are reported but never gate. *)
      let pool_diag d = contains d.Tmedb_report.Diff.key "pool." in
      (* A key present only in the new baseline is a kernel or counter
         the suite *learned* — report it, don't gate on it.  A key that
         *disappeared* still gates: losing a counter silently is how
         coverage rots. *)
      let added (d : Tmedb_report.Diff.delta) =
        d.Tmedb_report.Diff.a = None && d.Tmedb_report.Diff.b <> None
      in
      let added_deltas, rest = List.partition added deltas in
      let timing_deltas, rest = List.partition timing rest in
      let pool_deltas, stable_deltas = List.partition pool_diag rest in
      List.iter
        (fun (d : Tmedb_report.Diff.delta) ->
          Printf.printf "i scheduler: %s changed (informational)\n" d.Tmedb_report.Diff.key)
        pool_deltas;
      List.iter
        (fun (d : Tmedb_report.Diff.delta) ->
          Printf.printf "+ learned: %s (new in this baseline)\n" d.Tmedb_report.Diff.key)
        added_deltas;
      print_string (Tmedb_report.Diff.render ~threshold:!regress_threshold stable_deltas);
      let tripped = Tmedb_report.Diff.exceeding ~threshold:!regress_threshold stable_deltas in
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
(* `trend` mode: informational summary of key metrics across *all*
   committed BENCH_1..N.json — regress diffs consecutive pairs and
   gates; trend renders the whole trajectory (markdown by default,
   `--json` for machines) and always exits 0. *)

let trend ~json () =
  let open Tmedb_prelude in
  let files = bench_files () in
  if files = [] then begin
    Printf.eprintf "trend: no BENCH_*.json baselines in the working directory\n";
    exit 1
  end;
  let get_str k j =
    match Json.member k j with Some (Json.Str s) -> Some s | _ -> None
  in
  let get_num k j = Option.bind (Json.member k j) Json.to_float in
  let get_bool k j =
    match Json.member k j with Some (Json.Bool b) -> Some b | _ -> None
  in
  (* One row per baseline: (seq, label, jobs, deterministic,
     [kernel -> (seconds_jobs, speedup, counter deltas)]). *)
  let rows =
    List.map
      (fun (n, path) ->
        let doc = load_json path in
        let kernels =
          match Option.bind (Json.member "kernels" doc) Json.to_list with
          | Some ks -> ks
          | None -> []
        in
        let stats =
          List.filter_map
            (fun k ->
              match get_str "name" k with
              | Some name ->
                  let metrics =
                    match Json.member "metrics" k with
                    | Some (Json.Obj kvs) ->
                        List.filter_map
                          (fun (m, v) -> Option.map (fun f -> (m, f)) (Json.to_float v))
                          kvs
                    | Some _ | None -> []
                  in
                  Some (name, (get_num "seconds_jobs" k, get_num "speedup" k, metrics))
              | None -> None)
            kernels
        in
        (n, Printf.sprintf "BENCH_%d" n, get_num "jobs" doc, get_bool "deterministic" doc, stats))
      files
  in
  let kernel_names =
    List.sort_uniq compare
      (List.concat_map (fun (_, _, _, _, stats) -> List.map fst stats) rows)
  in
  let stat_of name (_, _, _, _, stats) = List.assoc_opt name stats in
  if json then begin
    let kernel_json (name, (secs, speedup, metrics)) =
      let num = function Some v -> Json.Num v | None -> Json.Null in
      ( name,
        Json.Obj
          [
            ("seconds_jobs", num secs);
            ("speedup", num speedup);
            ("metrics", Json.Obj (List.map (fun (m, v) -> (m, Json.Num v)) metrics));
          ] )
    in
    let doc =
      Json.Obj
        [
          ("schema", Json.Str "tmedb.trend/1");
          ( "baselines",
            Json.List
              (List.map
                 (fun (n, label, jobs, det, stats) ->
                   Json.Obj
                     [
                       ("bench", Json.Num (float_of_int n));
                       ("file", Json.Str (label ^ ".json"));
                       ("jobs", match jobs with Some j -> Json.Num j | None -> Json.Null);
                       ( "deterministic",
                         match det with Some b -> Json.Bool b | None -> Json.Null );
                       ("kernels", Json.Obj (List.map kernel_json stats));
                     ])
                 rows) );
        ]
    in
    print_endline (Json.to_string ~indent:2 doc)
  end
  else begin
    Printf.printf "# Bench trend (%d baselines)\n\n" (List.length rows);
    Printf.printf "| baseline | jobs | deterministic |\n|---|---|---|\n";
    List.iter
      (fun (_, label, jobs, det, _) ->
        Printf.printf "| %s | %s | %s |\n" label
          (match jobs with Some j -> Printf.sprintf "%g" j | None -> "?")
          (match det with Some b -> string_of_bool b | None -> "?"))
      rows;
    let table title cell =
      Printf.printf "\n## %s\n\n| kernel |" title;
      List.iter (fun (_, label, _, _, _) -> Printf.printf " %s |" label) rows;
      Printf.printf "\n|---|";
      List.iter (fun _ -> print_string "---|") rows;
      print_newline ();
      List.iter
        (fun name ->
          Printf.printf "| %s |" name;
          List.iter (fun row -> Printf.printf " %s |" (cell (stat_of name row))) rows;
          print_newline ())
        kernel_names
    in
    table "Wall seconds (jobs-domain run)" (function
      | Some (Some s, _, _) -> Printf.sprintf "%.3f" s
      | Some (None, _, _) | None -> "-");
    table "Speedup vs 1 domain" (function
      | Some (_, Some s, _) -> Printf.sprintf "%.2fx" s
      | Some (_, None, _) | None -> "-");
    (* Deterministic counter deltas that moved between the first and
       last baseline carrying the kernel — the PR-over-PR story the
       wall-clock tables cannot tell. *)
    Printf.printf "\n## Counter movement (first vs last baseline)\n\n";
    Printf.printf "| kernel | counter | first | last |\n|---|---|---|---|\n";
    let moved = ref 0 in
    List.iter
      (fun name ->
        let carrying =
          List.filter_map
            (fun row ->
              match stat_of name row with
              | Some (_, _, metrics) -> Some metrics
              | None -> None)
            rows
        in
        match carrying with
        | first :: (_ :: _ as later) ->
            let last = List.nth later (List.length later - 1) in
            let names =
              List.sort_uniq compare (List.map fst first @ List.map fst last)
            in
            List.iter
              (fun m ->
                let a = Option.value (List.assoc_opt m first) ~default:0. in
                let b = Option.value (List.assoc_opt m last) ~default:0. in
                if a <> b then begin
                  incr moved;
                  Printf.printf "| %s | %s | %g | %g |\n" name m a b
                end)
              names
        | [ _ ] | [] -> ())
      kernel_names;
    if !moved = 0 then Printf.printf "| - | (no counter moved) | - | - |\n"
  end

(* ------------------------------------------------------------------ *)
(* Telemetry overhead: the disabled registry must cost about a flag
   check on the hot path, and turning it on must not change results. *)

let obs_overhead () =
  section "Telemetry overhead (lib/obs)";
  let c = Tmedb_obs.Counter.make "bench.obs.counter" in
  let t = Tmedb_obs.Timer.make "bench.obs.timer" in
  let counter_iters = 20_000_000 and timer_iters = 2_000_000 in
  let secs f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
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
  let ns_per s iters = s /. float_of_int iters *. 1e9 in
  let was = Tmedb_obs.enabled () in
  Tmedb_obs.set_enabled false;
  ignore (secs counter_loop);
  (* warmed up *)
  let off_counter = ns_per (secs counter_loop) counter_iters in
  let off_timer = ns_per (secs timer_loop) timer_iters in
  Tmedb_obs.set_enabled true;
  let on_counter = ns_per (secs counter_loop) counter_iters in
  let on_timer = ns_per (secs timer_loop) timer_iters in
  Printf.printf "%-24s %14s %14s\n" "primitive" "disabled ns/op" "enabled ns/op";
  Printf.printf "%-24s %14.2f %14.2f\n" "Counter.incr" off_counter on_counter;
  Printf.printf "%-24s %14.2f %14.2f\n%!" "Timer.start/stop" off_timer on_timer;
  (* Instrumentation observes, never steers: a kernel must produce
     bit-identical results with telemetry off and on. *)
  let kernel = List.assoc "mc-simulate" baseline_kernels in
  Tmedb_obs.set_enabled false;
  let off_result = kernel !pool in
  Tmedb_obs.set_enabled true;
  let on_result = kernel !pool in
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
  let armed_counter = ns_per (secs counter_loop) counter_iters in
  let armed_timer = ns_per (secs timer_loop) timer_iters in
  let span_iters = 200_000 in
  let span_loop () =
    for _ = 1 to span_iters do
      Tmedb_obs.Span.with_ "bench.obs.span" (fun () -> ())
    done
  in
  let armed_span = ns_per (secs span_loop) span_iters in
  let armed_result = kernel !pool in
  Tmedb_obs.Flight.disarm ();
  let stream_after = List.length (Tmedb_obs.events ()) in
  let ring = List.length (Tmedb_obs.Flight.recent ()) in
  Tmedb_obs.set_enabled was;
  Printf.printf "%-24s %14s\n" "primitive (armed)" "armed ns/op";
  Printf.printf "%-24s %14.2f\n" "Counter.incr" armed_counter;
  Printf.printf "%-24s %14.2f\n" "Timer.start/stop" armed_timer;
  Printf.printf "%-24s %14.2f   ring %d events (cap %d/domain)\n%!" "Span.with_" armed_span
    ring
    (Tmedb_obs.Flight.capacity ());
  if stream_after <> stream_before then begin
    Printf.eprintf "armed-only recording grew the unbounded span stream (%d -> %d)\n"
      stream_before stream_after;
    exit 1
  end;
  if ring > Tmedb_obs.Flight.capacity () * (!jobs + 1) then begin
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
     recording branch (clock reads, ring stores) but nothing worse. *)
  if off_counter > 50. || off_timer > 100. then begin
    Printf.eprintf "disabled-path overhead too high (%.1f / %.1f ns/op)\n" off_counter
      off_timer;
    exit 1
  end;
  if armed_counter > 200. || armed_timer > 500. || armed_span > 5000. then begin
    Printf.eprintf "armed-path overhead too high (%.1f / %.1f / %.1f ns/op)\n" armed_counter
      armed_timer armed_span;
    exit 1
  end

(* ------------------------------------------------------------------ *)

(* `lint` mode: time a full-repo static-analysis pass, phase by phase.
   Phase 1 parses every source (R1-R6); phase 2 loads the .cmt typed
   trees, builds the call graph and solves the effect fixpoint (R7-R9)
   — the engine itself reads no clock (R3 covers lib/lint too), so the
   split timing lives here.  Doubles as a perf smoke (what a check.sh
   lint gate costs) and as a gate (any unsuppressed finding or error
   exits non-zero).  Phase 2 is skipped with a note when no .cmt trees
   exist (e.g. a bytecode-only sandbox without a prior @check build). *)
let lint_smoke () =
  let roots = [ "lib"; "bin"; "bench"; "test" ] in
  let allowlist =
    if Sys.file_exists "lint.allowlist" then
      match Lint.load_allowlist "lint.allowlist" with
      | Ok entries -> entries
      | Error msg ->
          Printf.eprintf "%s\n" msg;
          exit 1
    else []
  in
  (match Lint.stale_entries ~exists:Sys.file_exists allowlist with
  | [] -> ()
  | stale ->
      List.iter
        (fun (e : Lint.allow_entry) ->
          Printf.eprintf "stale allowlist entry: %s %s\n" e.Lint.pattern
            e.Lint.allowed_rule)
        stale;
      exit 1);
  let t0 = Unix.gettimeofday () in
  match Lint.collect_files roots with
  | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1
  | Ok files ->
      let phase1, errors =
        List.fold_left
          (fun (fs, es) file ->
            match Lint.analyze_file ~allowlist file with
            | Ok f -> (fs @ f, es)
            | Error msg -> (fs, es @ [ msg ]))
          ([], []) files
      in
      let t1 = Unix.gettimeofday () in
      let phase2, typed_line, typed_errors =
        match Lint_engine.analyze_typed ~allowlist ~paths:roots () with
        | Ok (findings, stats) ->
            let t2 = Unix.gettimeofday () in
            ( findings,
              Printf.sprintf
                "lint: phase2 (typed) %d units, %d defs, %d pool sites in %.3f s"
                stats.Lint_engine.cmts stats.Lint_engine.defs
                stats.Lint_engine.pool_sites (t2 -. t1),
              [] )
        | Error msg -> ([], "lint: phase2 skipped: " ^ msg, [])
      in
      let dt1 = t1 -. t0 in
      List.iter (fun msg -> Printf.eprintf "%s\n" msg) (errors @ typed_errors);
      let findings = phase1 @ phase2 in
      Lint.report_text Format.std_formatter findings;
      Printf.printf "lint: phase1 (parsetree) %d files in %.3f s (%.1f files/s)\n"
        (List.length files) dt1
        (float_of_int (List.length files) /. Float.max dt1 1e-9);
      print_endline typed_line;
      Printf.printf "lint: %d findings, %d errors total\n%!" (List.length findings)
        (List.length errors);
      if findings <> [] || errors <> [] then exit 1

let all_figures config =
  fig4 config `Static;
  fig4 config `Fading;
  fig5 config `Static;
  fig5 config `Fading;
  fig6 config `Energy;
  fig6 config `Delivery;
  fig7 config `Static;
  fig7 config `Fading

let usage () =
  prerr_endline
    "usage: main.exe [--jobs K] [--metrics FILE] [--trace FILE] [--profile DIR] \
     [--threshold REL] [--speedup-floor F] \
     [quick|fig4a|fig4b|fig5a|fig5b|fig6a|fig6b|fig7a|fig7b|ablation|baseline|regress|obs|lint|nscale \
     [--quick]|pareto [--quick]|trend [--json]]";
  exit 2

(* Strip `--jobs K` / `-j K` and the telemetry sinks anywhere in argv;
   the rest selects the mode. *)
let parse_args () =
  let rest = ref [] in
  let i = ref 1 in
  let argc = Array.length Sys.argv in
  let jobs_requested = ref None in
  let file_arg () =
    if !i + 1 >= argc then usage ();
    incr i;
    Sys.argv.(!i)
  in
  while !i < argc do
    (match Sys.argv.(!i) with
    | "--jobs" | "-j" -> (
        match int_of_string_opt (file_arg ()) with
        | Some k when k >= 1 -> jobs_requested := Some k
        | Some _ | None -> usage ())
    | "--metrics" -> metrics_path := Some (file_arg ())
    | "--trace" -> trace_path := Some (file_arg ())
    | "--profile" -> profile_dir := Some (file_arg ())
    | "--threshold" -> (
        match float_of_string_opt (file_arg ()) with
        | Some t when t >= 0. -> regress_threshold := t
        | Some _ | None -> usage ())
    | "--speedup-floor" -> (
        match float_of_string_opt (file_arg ()) with
        | Some f when f > 0. -> speedup_floor := Some f
        | Some _ | None -> usage ())
    | arg -> rest := arg :: !rest);
    incr i
  done;
  if !metrics_path <> None || !trace_path <> None || !profile_dir <> None then
    Tmedb_obs.set_enabled true;
  let k =
    match !jobs_requested with
    | Some k -> k
    | None -> Tmedb_prelude.Pool.default_num_domains ()
  in
  jobs := k;
  if k > 1 then pool := Some (Tmedb_prelude.Pool.create ~num_domains:k ());
  List.rev !rest

(* Flush the telemetry sinks requested on the command line; the
   metrics file must round-trip through the in-repo parser with its
   mandatory keys (check.sh smokes this). *)
let write_telemetry () =
  let read_all path =
    let ic = open_in path in
    let contents = really_input_string ic (in_channel_length ic) in
    close_in ic;
    contents
  in
  Option.iter
    (fun path ->
      Tmedb_prelude.Obs_json.write_metrics ~path;
      (match Tmedb_prelude.Json.parse (read_all path) with
      | Ok doc
        when Tmedb_prelude.Json.member "counters" doc <> None
             && Tmedb_prelude.Json.member "timers" doc <> None ->
          Printf.eprintf "metrics written to %s\n%!" path
      | Ok _ ->
          Printf.eprintf "%s: missing counters/timers keys\n" path;
          exit 1
      | Error e ->
          Printf.eprintf "%s does not parse: %s\n" path e;
          exit 1))
    !metrics_path;
  Option.iter
    (fun path ->
      Tmedb_prelude.Obs_json.write_trace ~path;
      Printf.eprintf "trace written to %s\n%!" path)
    !trace_path;
  Option.iter
    (fun dir ->
      ignore (Tmedb_prelude.Profile.write_artifacts ~dir ());
      Printf.eprintf "profile artifacts written to %s/\n%!" dir)
    !profile_dir

let () =
  let t0 = Unix.gettimeofday () in
  let mode = parse_args () in
  Printf.printf "[jobs: %d]\n%!" !jobs;
  (match mode with
  | [] ->
      all_figures bench_config;
      ablations bench_config;
      ignore (baseline ())
  | [ "quick" ] ->
      all_figures quick_config;
      ablations quick_config;
      ignore (baseline ())
  | [ "fig4a" ] -> fig4 bench_config `Static
  | [ "fig4b" ] -> fig4 bench_config `Fading
  | [ "fig5a" ] -> fig5 bench_config `Static
  | [ "fig5b" ] -> fig5 bench_config `Fading
  | [ "fig6a" ] -> fig6 bench_config `Energy
  | [ "fig6b" ] -> fig6 bench_config `Delivery
  | [ "fig7a" ] -> fig7 bench_config `Static
  | [ "fig7b" ] -> fig7 bench_config `Fading
  | [ "ablation" ] -> ablations bench_config
  | [ "baseline" ] -> ignore (baseline ())
  | [ "regress" ] -> regress ()
  | [ "obs" ] -> obs_overhead ()
  | [ "trend" ] -> trend ~json:false ()
  | [ "trend"; "--json" ] | [ "--json"; "trend" ] -> trend ~json:true ()
  | [ "nscale" ] -> nscale ~quick:false ()
  | [ "nscale"; "--quick" ] | [ "--quick"; "nscale" ] -> nscale ~quick:true ()
  | [ "pareto" ] -> pareto_bench ~quick:false ()
  | [ "pareto"; "--quick" ] | [ "--quick"; "pareto" ] -> pareto_bench ~quick:true ()
  | [ "lint" ] -> lint_smoke ()
  | _ -> usage ());
  write_telemetry ();
  Option.iter Tmedb_prelude.Pool.shutdown !pool;
  Printf.printf "\n[bench total: %.1f s]\n" (Unix.gettimeofday () -. t0)
