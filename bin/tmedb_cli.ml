(* tmedb command-line interface.

   Subcommands:
     gen       generate a synthetic contact trace (Haggle-like or mobility) to CSV
     stats     print statistics of a trace CSV
     run        run one algorithm on a trace and print the schedule + feasibility
     compare    run the paper's algorithms on a trace and print the comparison table
     simulate   Monte-Carlo replay of an algorithm's schedule in a fading channel
     algorithms list every registered planner (name, channel, paper section)

   Algorithm names, figure lists and this CLI's flags all derive from
   Tmedb.Registry: registering a planner there makes it selectable
   here with no CLI change.

   Examples:
     tmedb_cli gen --kind haggle --nodes 20 --horizon 17000 --seed 42 -o trace.csv
     tmedb_cli run --algorithm EEDCB --deadline 2000 trace.csv
     tmedb_cli compare --deadline 2000 --trials 500 trace.csv *)

open Cmdliner
open Tmedb_prelude
open Tmedb

(* ------------------------------------------------------------------ *)
(* Shared arguments *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let deadline_arg =
  Arg.(
    value
    & opt float 2000.
    & info [ "deadline"; "T" ] ~docv:"SECONDS" ~doc:"Broadcast delay constraint T.")

let source_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "source" ] ~docv:"NODE" ~doc:"Source node (default: a random reachable node).")

let trace_file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE.CSV" ~doc:"Contact trace CSV.")

let level_arg =
  Arg.(
    value
    & opt int 2
    & info [ "level" ] ~docv:"L" ~doc:"Recursive-greedy level for (FR-)EEDCB (1 or 2).")

let jobs_arg =
  Arg.(
    value
    & opt int 0
    & info [ "jobs"; "j" ] ~docv:"K"
        ~doc:
          "Worker domains for the Monte-Carlo fan-out (default: $(b,TMEDB_JOBS) or the \
           machine's core count).  Results are independent of K: each trial gets its own \
           split of the RNG stream.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Enable the telemetry registry and write a counters/timers snapshot \
           (tmedb.metrics/1 JSON) to $(docv) on exit.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Enable the telemetry registry and write the span trace to $(docv) as Chrome \
           trace_event JSON (open in chrome://tracing or Perfetto).")

let ledger_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger" ] ~docv:"FILE"
        ~doc:
          "Enable telemetry and provenance recording and write a tmedb.run/1 run ledger \
           (config, input digest, metrics, schedule, provenance log) to $(docv).  The file \
           is byte-deterministic: identical runs produce identical ledgers at any \
           $(b,--jobs).")

let ledger_timestamp_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger-timestamp" ] ~docv:"TS"
        ~doc:
          "Timestamp string embedded in the ledger and profile artifacts ($(b,now) = current \
           UTC time).  Default: none, which emits $(b,null) and keeps both \
           byte-deterministic.")

let profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"DIR"
        ~doc:
          "Enable telemetry and write profile artifacts to $(docv) on exit: profile.json \
           (tmedb.profile/1, byte-deterministic at any $(b,--jobs)), profile_detail.json, \
           flamegraph.pl-compatible profile.folded / profile_wall.folded, and a \
           self-contained flamegraph.html with the per-worker timeline.  Crash dumps land in \
           $(docv)/crash.json.")

let watchdog_arg =
  Arg.(
    value
    & opt float 0.
    & info [ "watchdog" ] ~docv:"SECONDS"
        ~doc:
          "Arm a deadline watchdog: if the command runs longer than $(docv), dump a \
           tmedb.crash/1 flight-recorder black box (the run itself continues).  0 disables.")

(* Telemetry is off unless one of the flags asks for an output file;
   results are bit-identical either way.  The flight recorder is
   always armed here (bounded rings, one-flag-check cost), so every
   run leaves a black box on uncaught exception, SIGUSR1 or a
   watchdog trip. *)
let with_telemetry ?timestamp ?(watchdog = 0.) metrics trace profile f =
  if metrics <> None || trace <> None || profile <> None then Tmedb_obs.set_enabled true;
  let crash_path =
    match profile with
    | Some dir ->
        Profile.mkdir_p dir;
        Filename.concat dir "crash.json"
    | None -> "tmedb.crash.json"
  in
  let dump = Crash_guard.install ?timestamp ~path:crash_path () in
  let finish () =
    Option.iter
      (fun path ->
        Obs_json.write_metrics ~path;
        Printf.eprintf "metrics written to %s\n%!" path)
      metrics;
    Option.iter
      (fun path ->
        Obs_json.write_trace ~path;
        Printf.eprintf "trace written to %s\n%!" path)
      trace;
    Option.iter
      (fun dir ->
        ignore (Profile.write_artifacts ?timestamp ~dir ());
        Printf.eprintf "profile artifacts written to %s\n%!" dir)
      profile
  in
  Fun.protect ~finally:finish (fun () ->
      Crash_guard.guard dump (fun () ->
          if watchdog > 0. then begin
            let r, tripped =
              Tmedb_report.Watchdog.with_deadline ~seconds:watchdog
                ~on_trip:(fun () -> dump ~reason:"watchdog deadline")
                f
            in
            if tripped then
              Printf.eprintf "watchdog tripped after %g s; black box at %s\n%!" watchdog
                crash_path;
            r
          end
          else f ()))

(* 0 means "not given": fall back to the TMEDB_JOBS/core-count
   heuristic.  [check_run_flags] has rejected negative values. *)
let make_pool jobs =
  let k = if jobs >= 1 then jobs else Pool.default_num_domains () in
  if k <= 1 then None else Some (Pool.create ~num_domains:k ())

let with_jobs jobs f =
  let pool = make_pool jobs in
  Fun.protect ~finally:(fun () -> Option.iter Pool.shutdown pool) (fun () -> f pool)

let load_trace path =
  match Tmedb_trace.Trace.load ~path with
  | Ok t -> t
  | Error e ->
      Printf.eprintf "error loading %s: %s\n" path e;
      exit 2

(* The boundary check of the planning subcommands, run on their
   arguments before any of them reaches a kernel: every deadline finite
   and inside the trace span (lo, hi], the source a node of the trace,
   the Steiner level 1 or 2 (Dst's levels 3 and up are exponential and
   kept for the tests only), the Monte-Carlo trial count [k] of
   [~trials:(k, least)] at least [least].  Bad input exits 2 with a
   readable message instead of an uncaught exception. *)
let arg_error cmd fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "tmedb_cli %s: %s\n" cmd msg;
      exit 2)
    fmt

let check_args cmd trace ?level ?trials ~source deadlines =
  let fail fmt = arg_error cmd fmt in
  let span = Tmedb_trace.Trace.span trace in
  List.iter
    (fun d ->
      if Float.is_nan d || d <= span.Interval.lo || d > span.Interval.hi then
        fail "deadline %g is outside the trace span (%g, %g]" d span.Interval.lo
          span.Interval.hi)
    deadlines;
  let n = Tmedb_trace.Trace.n trace in
  Option.iter
    (fun s -> if s < 0 || s >= n then fail "source %d is not a node of the trace [0, %d)" s n)
    source;
  Option.iter
    (fun l ->
      if l < 1 then fail "level %d is below 1" l;
      if l > 2 then fail "level %d is above 2" l)
    level;
  Option.iter (fun (k, least) -> if k < least then fail "trials %d is below %d" k least) trials

(* The boundary check of the pool and watchdog flags, run before
   [with_telemetry] arms anything: [--jobs] at least 0 (0 = auto) and
   [--watchdog] 0 (off) or a positive finite number of seconds. *)
let check_run_flags cmd ~jobs ~watchdog =
  let fail fmt = arg_error cmd fmt in
  if jobs < 0 then fail "--jobs %d is below 0 (0 = auto)" jobs;
  if not (Float.equal watchdog 0. || (watchdog > 0. && Float.is_finite watchdog)) then
    fail "--watchdog %g is not 0 (off) or a positive finite number of seconds" watchdog

let pick_source trace deadline seed = function
  | Some s -> s
  | None -> (
      let config = { Experiment.default_config with Experiment.seed; sources = 1 } in
      match Experiment.choose_sources config ~trace ~deadline with
      | s :: _ -> s
      | [] -> 0)

(* ------------------------------------------------------------------ *)
(* gen *)

let gen_cmd =
  let kind_arg =
    Arg.(
      value
      & opt (enum [ ("haggle", `Haggle); ("mobility", `Mobility) ]) `Haggle
      & info [ "kind" ] ~docv:"KIND" ~doc:"Generator: $(b,haggle) or $(b,mobility).")
  in
  let nodes_arg =
    Arg.(value & opt int 20 & info [ "nodes"; "n" ] ~docv:"N" ~doc:"Number of nodes.")
  in
  let horizon_arg =
    Arg.(value & opt float 17000. & info [ "horizon" ] ~docv:"SECONDS" ~doc:"Trace length.")
  in
  let out_arg =
    Arg.(
      required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output CSV.")
  in
  let run kind nodes horizon seed out =
    (* The generators' own boundary, checked here so that bad input
       exits 2 with a message rather than an uncaught exception. *)
    if nodes < 2 then arg_error "gen" "nodes %d is below 2" nodes;
    if not (horizon > 0. && Float.is_finite horizon) then
      arg_error "gen" "horizon %g is not positive and finite" horizon;
    let rng = Rng.create seed in
    let trace =
      try
        match kind with
        | `Haggle ->
            Tmedb_trace.Synth.generate rng
              { (Tmedb_trace.Synth.with_n Tmedb_trace.Synth.default_params nodes) with
                Tmedb_trace.Synth.horizon }
        | `Mobility ->
            Tmedb_trace.Mobility.generate rng
              { Tmedb_trace.Mobility.default_params with Tmedb_trace.Mobility.n = nodes; horizon }
      with Invalid_argument msg -> arg_error "gen" "%s" msg
    in
    Tmedb_trace.Trace.save trace ~path:out;
    Format.printf "wrote %a to %s@." Tmedb_trace.Trace.pp trace out
  in
  let term = Term.(const run $ kind_arg $ nodes_arg $ horizon_arg $ seed_arg $ out_arg) in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a synthetic contact trace.") term

(* ------------------------------------------------------------------ *)
(* stats *)

let stats_cmd =
  let run path =
    let trace = load_trace path in
    Format.printf "%a@.%a@." Tmedb_trace.Trace.pp trace Tmedb_trace.Trace.pp_stats
      (Tmedb_trace.Trace.stats trace)
  in
  let term = Term.(const run $ trace_file_arg) in
  Cmd.v (Cmd.info "stats" ~doc:"Print contact-trace statistics.") term

(* ------------------------------------------------------------------ *)
(* run *)

let algorithm_arg =
  let parse s = match Registry.find s with Ok a -> Ok a | Error e -> Error (`Msg e) in
  let print ppf a = Format.pp_print_string ppf (Planner.name a) in
  Arg.(
    value
    & opt (conv (parse, print)) (List.hd Registry.all)
    & info [ "algorithm"; "a" ] ~docv:"ALG"
        ~doc:(Printf.sprintf "One of %s." (String.concat ", " Registry.names)))

let run_cmd =
  let verbose_arg =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the full schedule.")
  in
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "save-schedule" ] ~docv:"FILE" ~doc:"Write the schedule as CSV.")
  in
  let run_trials_arg =
    Arg.(
      value
      & opt int 0
      & info [ "trials" ] ~docv:"K"
          ~doc:
            "Also Monte-Carlo replay the schedule in a Rayleigh environment with $(docv) \
             trials (0 = skip); the delivery ratio lands in the ledger summary.")
  in
  let run algorithm deadline source seed level verbose save metrics trace_file ledger ledger_ts
      profile watchdog trials jobs path =
    check_run_flags "run" ~jobs ~watchdog;
    if ledger <> None then begin
      Tmedb_obs.set_enabled true;
      Tmedb_report.Provenance.set_enabled true
    end;
    let timestamp =
      match ledger_ts with
      | Some "now" -> Some (Tmedb_report.Clock.now_iso8601 ())
      | Some s -> Some s
      | None -> None
    in
    with_telemetry ?timestamp ~watchdog metrics trace_file profile @@ fun () ->
    let trace = load_trace path in
    check_args "run" trace ~level ~trials:(trials, 0) ~source [ deadline ];
    let source = pick_source trace deadline seed source in
    let config = { Experiment.default_config with Experiment.seed; steiner_level = level } in
    let result =
      Experiment.run_alg config ~trace ~source ~deadline ~rng:(Rng.create seed) algorithm
    in
    Format.printf "algorithm: %s  source: %d  deadline: %g s@."
      (Experiment.algorithm_name algorithm) source deadline;
    Format.printf "transmissions: %d  normalized energy: %.1f m^alpha  feasible: %b@."
      (Schedule.num_transmissions result.Experiment.schedule)
      result.Experiment.energy result.Experiment.feasible;
    let channel = Planner.design_channel algorithm in
    let problem = Experiment.make_problem config ~trace ~channel ~source ~deadline in
    let lb =
      Tmedb_channel.Phy.normalized_energy problem.Problem.phy (Metrics.energy_lower_bound problem)
    in
    if Float.is_finite lb && lb > 0. then
      Format.printf "certified lower bound: %.1f m^alpha (gap %.2fx)@." lb
        (result.Experiment.energy /. lb);
    if result.Experiment.unreached <> [] then
      Format.printf "unreached nodes: %a@."
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Format.pp_print_int)
        result.Experiment.unreached;
    let sim =
      if trials <= 0 then None
      else begin
        let eval = Experiment.make_problem config ~trace ~channel:`Rayleigh ~source ~deadline in
        let s =
          with_jobs jobs (fun pool ->
              Simulate.run ~trials ?pool ~rng:(Rng.create (seed + 1)) ~eval_channel:`Rayleigh
                eval result.Experiment.schedule)
        in
        Format.printf "delivery (Rayleigh, %d trials): %.2f%%@." trials
          (100. *. s.Simulate.delivery_ratio);
        Some s
      end
    in
    (match save with
    | Some file ->
        Schedule.save result.Experiment.schedule ~path:file;
        Format.printf "schedule written to %s@." file
    | None -> ());
    (match ledger with
    | Some file ->
        let input_digest =
          Tmedb_report.Ledger.digest_string
            (In_channel.with_open_bin path In_channel.input_all)
        in
        let num f = Json.Num f in
        let config_fields =
          [
            ("algorithm", Json.Str (Experiment.algorithm_name algorithm));
            ("deadline", num deadline);
            ("source", num (float_of_int source));
            ("seed", num (float_of_int seed));
            ("steiner_level", num (float_of_int level));
            ("trials", num (float_of_int trials));
            ("trace", Json.Str (Filename.basename path));
          ]
        in
        let summary =
          [
            ("energy", num result.Experiment.energy);
            ( "transmissions",
              num (float_of_int (Schedule.num_transmissions result.Experiment.schedule)) );
            ("feasible", Json.Bool result.Experiment.feasible);
            ("unreached", num (float_of_int (List.length result.Experiment.unreached)));
          ]
          @
          match sim with
          | Some s ->
              [
                ("delivery_ratio", num s.Simulate.delivery_ratio);
                ("full_delivery_rate", num s.Simulate.full_delivery_rate);
                ("mean_energy_spent", num s.Simulate.mean_energy_spent);
              ]
          | None -> []
        in
        let schedule =
          List.map
            (fun (tx : Schedule.transmission) ->
              { Tmedb_report.Ledger.relay = tx.Schedule.relay; time = tx.Schedule.time;
                cost = tx.Schedule.cost })
            (Schedule.transmissions result.Experiment.schedule)
        in
        let ledger_doc =
          Tmedb_report.Ledger.make ?timestamp ~config:config_fields ~input_digest ~summary
            ~snapshot:(Tmedb_obs.snapshot ())
            ~provenance:(Tmedb_report.Provenance.events ())
            ~schedule ()
        in
        Tmedb_report.Ledger.write ledger_doc ~path:file;
        Format.printf "ledger written to %s@." file
    | None -> ());
    if verbose then Format.printf "%a@." Schedule.pp result.Experiment.schedule
  in
  let term =
    Term.(
      const run $ algorithm_arg $ deadline_arg $ source_arg $ seed_arg $ level_arg $ verbose_arg
      $ save_arg $ metrics_arg $ trace_arg $ ledger_arg $ ledger_timestamp_arg $ profile_arg
      $ watchdog_arg $ run_trials_arg $ jobs_arg $ trace_file_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one broadcast algorithm on a trace.") term

(* ------------------------------------------------------------------ *)
(* compare *)

let trials_arg =
  Arg.(value & opt int 500 & info [ "trials" ] ~docv:"K" ~doc:"Monte-Carlo trials.")

let compare_cmd =
  let all_flag =
    Arg.(
      value
      & flag
      & info [ "all" ]
          ~doc:
            "Also compare beyond-paper planners from the registry (e.g. the static BIP \
             baseline), not just the paper's six.")
  in
  let run deadline source seed level trials jobs all metrics trace_file profile watchdog path =
    check_run_flags "compare" ~jobs ~watchdog;
    with_telemetry ~watchdog metrics trace_file profile @@ fun () ->
    let trace = load_trace path in
    check_args "compare" trace ~level ~trials:(trials, 1) ~source [ deadline ];
    let source = pick_source trace deadline seed source in
    let config = { Experiment.default_config with Experiment.seed; steiner_level = level } in
    let algorithms = if all then Registry.all else Registry.paper in
    Format.printf "source: %d  deadline: %g s  trials: %d@.@." source deadline trials;
    Format.printf "%-10s %14s %6s %10s %9s@." "algorithm" "energy" "txs" "delivery" "feasible";
    with_jobs jobs (fun pool ->
        List.iter
          (fun algorithm ->
            let rng = Rng.create seed in
            let result = Experiment.run_alg config ~trace ~source ~deadline ~rng algorithm in
            let eval =
              Experiment.make_problem config ~trace ~channel:`Rayleigh ~source ~deadline
            in
            let sim =
              Simulate.run ~trials ?pool ~rng ~eval_channel:`Rayleigh eval
                result.Experiment.schedule
            in
            Format.printf "%-10s %14.1f %6d %9.1f%% %9b@."
              (Experiment.algorithm_name algorithm)
              result.Experiment.energy
              (Schedule.num_transmissions result.Experiment.schedule)
              (100. *. sim.Simulate.delivery_ratio)
              result.Experiment.feasible)
          algorithms)
  in
  let term =
    Term.(
      const run $ deadline_arg $ source_arg $ seed_arg $ level_arg $ trials_arg $ jobs_arg
      $ all_flag $ metrics_arg $ trace_arg $ profile_arg $ watchdog_arg $ trace_file_arg)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Run the paper's six algorithms — every registered planner with $(b,--all) — and \
          compare energy/delivery (Fig. 6 style).")
    term

(* ------------------------------------------------------------------ *)
(* algorithms *)

let algorithms_cmd =
  let names_flag =
    Arg.(
      value
      & flag
      & info [ "names" ] ~doc:"Print only the canonical planner names, one per line.")
  in
  let run names_only =
    if names_only then List.iter print_endline Registry.names
    else begin
      Format.printf "%-10s %-8s %-24s %s@." "name" "channel" "paper section" "summary";
      List.iter
        (fun p ->
          let i = p.Planner.info in
          Format.printf "%-10s %-8s %-24s %s@." i.Planner.name
            (match i.Planner.channel with `Static -> "static" | `Fading -> "fading")
            i.Planner.section i.Planner.summary)
        Registry.all
    end
  in
  let term = Term.(const run $ names_flag) in
  Cmd.v
    (Cmd.info "algorithms"
       ~doc:"List every registered planner: name, design channel, paper section, summary.")
    term

(* ------------------------------------------------------------------ *)
(* simulate *)

let simulate_cmd =
  let schedule_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "schedule" ] ~docv:"FILE"
          ~doc:"Replay a saved schedule CSV instead of computing one.")
  in
  let run algorithm deadline source seed trials jobs schedule_file metrics trace_file profile
      watchdog path =
    check_run_flags "simulate" ~jobs ~watchdog;
    with_telemetry ~watchdog metrics trace_file profile @@ fun () ->
    let trace = load_trace path in
    check_args "simulate" trace ~trials:(trials, 1) ~source [ deadline ];
    let source = pick_source trace deadline seed source in
    let config = { Experiment.default_config with Experiment.seed } in
    let schedule =
      match schedule_file with
      | Some file -> (
          match Schedule.load ~path:file with
          | Ok s -> s
          | Error e ->
              Printf.eprintf "error loading schedule %s: %s\n" file e;
              exit 1)
      | None ->
          (Experiment.run_alg config ~trace ~source ~deadline ~rng:(Rng.create seed) algorithm)
            .Experiment.schedule
    in
    let eval = Experiment.make_problem config ~trace ~channel:`Rayleigh ~source ~deadline in
    let sim =
      with_jobs jobs (fun pool ->
          Simulate.run ~trials ?pool ~rng:(Rng.create (seed + 1)) ~eval_channel:`Rayleigh eval
            schedule)
    in
    Format.printf
      "%s in Rayleigh environment (%d trials):@.  delivery %.2f%% (sd %.2f)  full delivery \
       %.1f%%  mean spent energy %.3e W@."
      (Experiment.algorithm_name algorithm)
      trials
      (100. *. sim.Simulate.delivery_ratio)
      (100. *. sim.Simulate.delivery_stddev)
      (100. *. sim.Simulate.full_delivery_rate)
      sim.Simulate.mean_energy_spent;
    match sim.Simulate.mean_completion_time with
    | Some t -> Format.printf "  mean completion time %.1f s@." t
    | None -> Format.printf "  broadcast never fully completed in any trial@."
  in
  let term =
    Term.(
      const run $ algorithm_arg $ deadline_arg $ source_arg $ seed_arg $ trials_arg $ jobs_arg
      $ schedule_arg $ metrics_arg $ trace_arg $ profile_arg $ watchdog_arg $ trace_file_arg)
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Monte-Carlo replay of a schedule in a fading channel.") term

(* ------------------------------------------------------------------ *)
(* pareto *)

let pareto_cmd =
  let deadlines_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "deadlines" ] ~docv:"LO:HI:STEP"
          ~doc:
            "Deadline grid from $(b,LO) to $(b,HI) in steps of $(b,STEP) seconds ($(b,HI) \
             included when it lies on the grid).  Exactly one of $(b,--deadlines) and \
             $(b,--deadline-list) is required.")
  in
  let deadline_list_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "deadline-list" ] ~docv:"T1,T2,..."
          ~doc:"Explicit comma-separated deadline grid, strictly ascending.")
  in
  let pareto_ledger_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:
            "Enable telemetry and write a tmedb.pareto/1 sweep ledger (config, input digest, \
             per-point energy/coverage with dominance marking, Pareto front, metrics) to \
             $(docv).  The file is byte-deterministic: identical sweeps produce identical \
             ledgers at any $(b,--jobs).")
  in
  let run algorithm deadlines deadline_list source seed level jobs metrics trace_file ledger
      ledger_ts profile watchdog path =
    check_run_flags "pareto" ~jobs ~watchdog;
    let grid =
      match (deadlines, deadline_list) with
      | Some r, None -> Pareto.Grid.parse_range r
      | None, Some l -> Pareto.Grid.parse_list l
      | Some _, Some _ -> Error "pass exactly one of --deadlines and --deadline-list"
      | None, None ->
          Error "one of --deadlines LO:HI:STEP or --deadline-list T1,T2,... is required"
    in
    let grid =
      match grid with
      | Ok g -> g
      | Error e ->
          Printf.eprintf "tmedb_cli pareto: %s\n" e;
          exit 2
    in
    if ledger <> None then Tmedb_obs.set_enabled true;
    let timestamp =
      match ledger_ts with
      | Some "now" -> Some (Tmedb_report.Clock.now_iso8601 ())
      | Some s -> Some s
      | None -> None
    in
    with_telemetry ?timestamp ~watchdog metrics trace_file profile @@ fun () ->
    let trace = load_trace path in
    check_args "pareto" trace ~level ~source grid;
    let hi = List.fold_left Float.max Float.neg_infinity grid in
    let source = pick_source trace hi seed source in
    let config = { Experiment.default_config with Experiment.seed; steiner_level = level } in
    let channel = Planner.design_channel algorithm in
    let problem = Experiment.make_problem config ~trace ~channel ~source ~deadline:hi in
    let result =
      with_jobs jobs (fun pool ->
          Pareto.sweep ?pool ~steiner_level:level ~cap_per_node:config.Experiment.dts_cap ~seed
            ~planner:algorithm ~deadlines:grid problem)
    in
    Format.printf "algorithm: %s  source: %d  grid: %d deadlines@."
      (Experiment.algorithm_name algorithm) source (List.length grid);
    Format.printf "%10s %14s %5s %10s %9s  %s@." "deadline" "energy" "txs" "unreached"
      "feasible" "status";
    List.iter
      (fun (p : Pareto.point) ->
        Format.printf "%10g %14.1f %5d %10d %9b  %s@." p.Pareto.deadline p.Pareto.energy
          p.Pareto.transmissions p.Pareto.unreached p.Pareto.feasible
          (if p.Pareto.dominated then "dominated" else "front"))
      result.Pareto.points;
    Format.printf "front:%a@."
      (fun ppf -> List.iter (fun d -> Format.fprintf ppf " %g" d))
      result.Pareto.front;
    match ledger with
    | Some file ->
        let input_digest =
          Tmedb_report.Ledger.digest_string
            (In_channel.with_open_bin path In_channel.input_all)
        in
        let num f = Json.Num f in
        let grid_spec =
          match (deadlines, deadline_list) with
          | Some s, _ | _, Some s -> s
          | None, None -> ""
        in
        let config_fields =
          [
            ("algorithm", Json.Str (Experiment.algorithm_name algorithm));
            ("grid", Json.Str grid_spec);
            ("grid_points", num (float_of_int (List.length grid)));
            ("source", num (float_of_int source));
            ("seed", num (float_of_int seed));
            ("steiner_level", num (float_of_int level));
            ("trace", Json.Str (Filename.basename path));
          ]
        in
        let points =
          List.map
            (fun (p : Pareto.point) ->
              {
                Tmedb_report.Ledger.Pareto.deadline = p.Pareto.deadline;
                energy = p.Pareto.energy;
                transmissions = p.Pareto.transmissions;
                feasible = p.Pareto.feasible;
                unreached = p.Pareto.unreached;
                dominated = p.Pareto.dominated;
              })
            result.Pareto.points
        in
        let doc =
          Tmedb_report.Ledger.Pareto.make ?timestamp ~config:config_fields ~input_digest
            ~points ~front:result.Pareto.front
            ~snapshot:(Tmedb_obs.snapshot ())
            ()
        in
        Tmedb_report.Ledger.Pareto.write doc ~path:file;
        Format.printf "ledger written to %s@." file
    | None -> ()
  in
  let term =
    Term.(
      const run $ algorithm_arg $ deadlines_arg $ deadline_list_arg $ source_arg $ seed_arg
      $ level_arg $ jobs_arg $ metrics_arg $ trace_arg $ pareto_ledger_arg
      $ ledger_timestamp_arg $ profile_arg $ watchdog_arg $ trace_file_arg)
  in
  Cmd.v
    (Cmd.info "pareto"
       ~doc:
         "Sweep a deadline grid with one algorithm, sharing the deadline-independent solve \
          state across points, and report the time-energy Pareto front.")
    term

(* ------------------------------------------------------------------ *)
(* report *)

let load_ledger path =
  match Tmedb_report.Ledger.load ~path with
  | Ok l -> l
  | Error e ->
      Printf.eprintf "error loading ledger %s: %s\n" path e;
      exit 1

let load_json path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e ->
      Printf.eprintf "error reading %s: %s\n" path e;
      exit 1
  | text -> (
      match Json.parse text with
      | Ok doc -> doc
      | Error e ->
          Printf.eprintf "error parsing %s: %s\n" path e;
          exit 1)

let ledger_file_arg =
  Arg.(
    required & pos 0 (some file) None & info [] ~docv:"LEDGER.JSON" ~doc:"A tmedb.run/1 ledger.")

(* ------------------------------------------------------------------ *)
(* profile *)

let fmt_ns ns =
  if ns >= 1e9 then Printf.sprintf "%.2fs" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2fms" (ns /. 1e6)
  else Printf.sprintf "%.0fus" (ns /. 1e3)

let profile_cmd =
  let dir_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Profile artifact directory written by $(b,--profile).")
  in
  let top_arg =
    Arg.(value & opt int 15 & info [ "top" ] ~docv:"N" ~doc:"Rows in the self-time table.")
  in
  let run top dir =
    let detail = load_json (Filename.concat dir "profile_detail.json") in
    let num key doc = match Json.member key doc with Some (Json.Num x) -> x | _ -> 0. in
    (match Json.member "timeline" detail with
    | Some tl ->
        Format.printf
          "makespan %.3f s  busy %.3f s  utilization %.0f%%  critical path ~%.3f s@.@."
          (num "end_s" tl -. num "begin_s" tl)
          (num "busy_s" tl)
          (100. *. num "utilization" tl)
          (num "critical_path_s" tl)
    | None -> ());
    let nodes = match Json.member "nodes" detail with Some (Json.Obj kvs) -> kvs | _ -> [] in
    let rows =
      List.map
        (fun (path, v) ->
          (path, num "count" v, num "wall_self_ns" v, num "wall_ns" v, num "minor_self_words" v))
        nodes
      |> List.sort (fun (_, _, a, _, _) (_, _, b, _, _) -> Float.compare b a)
    in
    Format.printf "%-56s %8s %10s %10s %12s@." "node (self-time order)" "count" "self" "total"
      "minor self";
    List.iteri
      (fun i (path, count, self, total, minor) ->
        if i < top then
          Format.printf "%-56s %8.0f %10s %10s %12.3e@." path count (fmt_ns self) (fmt_ns total)
            minor)
      rows
  in
  let term = Term.(const run $ top_arg $ dir_arg) in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Summarize a $(b,--profile) artifact directory: timeline/utilization header and the \
          hottest nodes by self wall time (from profile_detail.json).")
    term

let scalar = function
  | Json.Str s -> s
  | v -> Json.to_string ~indent:0 v

let report_show_cmd =
  let run path =
    let l = load_ledger path in
    Format.printf "schema: %s@." Tmedb_report.Ledger.schema;
    Format.printf "timestamp: %s@."
      (match l.Tmedb_report.Ledger.timestamp with Some t -> t | None -> "-");
    Format.printf "input digest: %s@." l.Tmedb_report.Ledger.input_digest;
    List.iter
      (fun (k, v) -> Format.printf "config.%s: %s@." k (scalar v))
      l.Tmedb_report.Ledger.config;
    List.iter
      (fun (k, v) -> Format.printf "summary.%s: %s@." k (scalar v))
      l.Tmedb_report.Ledger.summary;
    Format.printf "schedule entries: %d@." (List.length l.Tmedb_report.Ledger.schedule);
    Format.printf "provenance events: %d@." (List.length l.Tmedb_report.Ledger.provenance)
  in
  let term = Term.(const run $ ledger_file_arg) in
  Cmd.v (Cmd.info "show" ~doc:"Print a ledger's header, config and summary.") term

let threshold_arg =
  Arg.(
    value
    & opt float 0.05
    & info [ "threshold" ] ~docv:"REL"
        ~doc:"Relative-change gate, e.g. $(b,0.05) = 5%.  One-sided keys always trip it.")

let json_flag = Arg.(value & flag & info [ "json" ] ~doc:"Emit the machine-readable report.")

let report_diff_cmd =
  let a_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"A.JSON" ~doc:"Baseline document.")
  in
  let b_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"B.JSON" ~doc:"Candidate document.")
  in
  let run threshold json a b =
    let deltas = Tmedb_report.Diff.diff (load_json a) (load_json b) in
    if json then
      print_endline (Json.to_string ~indent:2 (Tmedb_report.Diff.to_json ~threshold deltas))
    else print_string (Tmedb_report.Diff.render ~threshold deltas);
    if Tmedb_report.Diff.exceeding ~threshold deltas <> [] then exit 1
  in
  let term = Term.(const run $ threshold_arg $ json_flag $ a_arg $ b_arg) in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare the numeric leaves of two JSON documents (ledgers, metrics snapshots or \
          bench baselines); exit 1 when any relative change exceeds the threshold.")
    term

let report_explain_cmd =
  let node_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "node" ] ~docv:"I" ~doc:"Node whose transmissions to explain.")
  in
  let profile_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile" ] ~docv:"DIR"
          ~doc:
            "Also link the ledger to profile nodes: print the planner.run subtree (span \
             counts, plus self time when profile_detail.json is present) from a matching \
             $(b,--profile) artifact directory.")
  in
  let run node profile_dir path =
    let l = load_ledger path in
    let txs =
      List.filter (fun (e : Tmedb_report.Ledger.entry) -> e.Tmedb_report.Ledger.relay = node)
        l.Tmedb_report.Ledger.schedule
    in
    if txs = [] then Format.printf "node %d does not transmit in this schedule@." node
    else begin
      let events = l.Tmedb_report.Ledger.provenance in
      let unexplained = ref 0 in
      List.iter
        (fun (tx : Tmedb_report.Ledger.entry) ->
          Format.printf "node %d transmits at t=%g with cost %g:@." node
            tx.Tmedb_report.Ledger.time tx.Tmedb_report.Ledger.cost;
          let entry_events =
            List.filter
              (function
                | Tmedb_report.Provenance.Schedule_entry s ->
                    s.node = node && Float.equal s.time tx.Tmedb_report.Ledger.time
                | _ -> false)
              events
          in
          let alloc_events =
            List.filter
              (function
                | Tmedb_report.Provenance.Allocation a ->
                    a.relay = node && Float.equal a.time tx.Tmedb_report.Ledger.time
                | _ -> false)
              events
          in
          List.iter
            (function
              | Tmedb_report.Provenance.Schedule_entry s ->
                  Format.printf
                    "  backbone: DTS point %d, DCS level %d, cost %g, covers [%a]%s@."
                    s.point_idx s.level_idx s.cost
                    (Format.pp_print_list
                       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
                       Format.pp_print_int)
                    s.covered
                    (match s.tree_edge with
                    | Some (u, v) -> Printf.sprintf " — selected by tree edge %d->%d" u v
                    | None -> "")
              | _ -> ())
            entry_events;
          List.iter
            (function
              | Tmedb_report.Provenance.Allocation a ->
                  Format.printf "  FR allocation: backbone cost %g -> allocated %g@."
                    a.backbone_cost a.allocated_cost
              | _ -> ())
            alloc_events;
          if entry_events = [] && alloc_events = [] then begin
            incr unexplained;
            Format.printf "  (no provenance event recorded)@."
          end)
        txs;
      (* Ledger -> profile link: the schedule above was produced by the
         planner named in the ledger config, so its profile subtree is
         rooted at [planner.run:<algorithm>]. *)
      (match profile_dir with
      | Some dir ->
          let algorithm =
            match List.assoc_opt "algorithm" l.Tmedb_report.Ledger.config with
            | Some (Json.Str s) -> Some s
            | Some _ | None -> None
          in
          let root =
            match algorithm with Some a -> "planner.run:" ^ a | None -> "planner.run"
          in
          let prof = load_json (Filename.concat dir "profile.json") in
          let detail_nodes =
            let p = Filename.concat dir "profile_detail.json" in
            if Sys.file_exists p then
              match Json.member "nodes" (load_json p) with Some (Json.Obj kvs) -> kvs | _ -> []
            else []
          in
          let nodes =
            match Json.member "nodes" prof with Some (Json.Obj kvs) -> kvs | _ -> []
          in
          let contains hay needle =
            let hn = String.length hay and nn = String.length needle in
            let rec scan i = i + nn <= hn && (String.equal (String.sub hay i nn) needle || scan (i + 1)) in
            nn = 0 || scan 0
          in
          let matching = List.filter (fun (k, _) -> contains k root) nodes in
          if matching = [] then
            Format.printf "@.no profile nodes under %s in %s@." root dir
          else begin
            Format.printf "@.profile nodes under %s:@." root;
            List.iter
              (fun (k, v) ->
                let count =
                  match Json.member "count" v with Some (Json.Num c) -> c | _ -> 0.
                in
                let self =
                  match List.assoc_opt k detail_nodes with
                  | Some d -> (
                      match Json.member "wall_self_ns" d with
                      | Some (Json.Num ns) -> Printf.sprintf "  self %s" (fmt_ns ns)
                      | _ -> "")
                  | None -> ""
                in
                Format.printf "  %s  %.0fx%s@." k count self)
              matching
          end
      | None -> ());
      if !unexplained > 0 then begin
        Printf.eprintf "%d transmission(s) of node %d lack provenance\n" !unexplained node;
        exit 1
      end
    end
  in
  let term = Term.(const run $ node_arg $ profile_dir_arg $ ledger_file_arg) in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Answer \"why did node I transmit at t with cost w\" from a ledger's provenance log \
          (DTS point, DCS level, covered neighbours, selecting Steiner-tree edge).")
    term

let report_cmd =
  Cmd.group
    (Cmd.info "report" ~doc:"Inspect, compare and explain tmedb.run/1 run ledgers.")
    [ report_show_cmd; report_diff_cmd; report_explain_cmd ]

let () =
  let doc = "Energy-efficient delay-constrained broadcast in time-varying energy-demand graphs" in
  let info = Cmd.info "tmedb_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            gen_cmd;
            stats_cmd;
            run_cmd;
            compare_cmd;
            simulate_cmd;
            pareto_cmd;
            algorithms_cmd;
            profile_cmd;
            report_cmd;
          ]))
