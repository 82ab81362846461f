(* The four workloads.  Each derives its inputs from the seed alone,
   hands the program only generated files (CLI workloads) or generated
   values (in-process workloads), and exposes:

   - [setup]: the program's own set-up over every instance, which the
     harness times several times (setup_s);
   - [request i]: request [i] of the round, timed by the harness; it
     returns the untimed check of that request's output;
   - [staged i]: the traced replay of request [i] through the layers'
     public functions; it returns the untimed check against the output
     of [request i].

   Why these four (README.md has the long form): plan-haggle is the
   paper's single-solve user path, single-threaded; pareto-haggle runs
   the same Dst/Dijkstra layers through Solve_state, the streaming DTS
   and the lazy views with a 2-domain pool; fig6-compare runs all six
   planners plus the Monte-Carlo replay on a pool; nscale-500 is the
   lazy generator and one Dijkstra scan at N = 500 with no Dst, NLP or
   pool, and carries the memory.

   A round is many distinct, size-controlled instances rather than a
   few repeated ones: random Haggle-like instances differ in cost and
   energy by ~25% each, and only averaging over a few dozen of them
   keeps a run's medians within a few percent from seed to seed. *)

open Tmedb
open Tmedb_prelude
module L = Measure.Layers
module Ledger = Tmedb_report.Ledger

type scale = Full | Tiny
type env = { seed : int; scale : scale; dir : string; cli : string }

type t = {
  jobs : int;  (** Domains the program may use (the caller included). *)
  cli : bool;  (** Requests are CLI processes rather than in-process calls. *)
  requests : int;  (** Distinct requests in one round. *)
  setup : unit -> unit;
  request : int -> unit -> string list;
  staged : int -> unit -> string list;
  peak_rss_mb : unit -> float;
      (** Median peak resident set of the requests' CLI processes, or the
          in-process workload's own peak. *)
  energies : unit -> float list;  (** Every planned energy of the requests run so far. *)
  deliveries : unit -> float list;  (** Monte-Carlo delivery ratios, where the workload has them. *)
  pool_probe : unit -> (float * float) option;
      (** pool.tasks and pool.steals of one more pooled execution of
          request 0 with telemetry on; [None] without a pool. *)
  close : unit -> unit;  (** Release the workload's pool, if any. *)
}

let dts_cap = Experiment.default_config.Experiment.dts_cap
let phy = Tmedb_channel.Phy.default
let fail fmt = Printf.ksprintf (fun s -> [ s ]) fmt
let read_file path = In_channel.with_open_bin path In_channel.input_all

let get_ok what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what e)

(* ------------------------------------------------------------------ *)
(* Inputs *)

(* Median number of contacts starting before t = 2000 s in a 17000 s
   Haggle-like trace of n nodes, over generator seeds 0..599. *)
let median_contacts_2000 = function
  | 8 -> 55.
  | 12 -> 130.
  | 16 -> 240.
  | n -> invalid_arg (Printf.sprintf "no contact-count target for n = %d" n)

let contacts_before trace deadline =
  List.length
    (List.filter
       (fun (c : Tmedb_trace.Contact.t) -> c.Tmedb_trace.Contact.iv.Interval.lo < deadline)
       (Tmedb_trace.Trace.contacts trace))

(* The first [count] candidates of the seed's own stream that [make]
   accepts: [make ~within id] builds candidate [id] and keeps it when
   every size it checks through [within] lies within the tolerance of
   its target (3%, doubled whenever 200 candidates per instance have
   not been enough).  Seeds then vary the instances but not their size:
   at N = 16 this cuts the variation of the EEDCB solve time between
   instances from 26% to 11% of its mean. *)
let sized ~seed ~count make =
  let rec go j tol acc =
    if List.length acc = count then List.rev acc
    else begin
      let tol = if j > 0 && j mod (200 * count) = 0 then 2. *. tol else tol in
      let within ~target size = Float.abs (float_of_int size -. target) <= tol *. target in
      match make ~within ((seed * 1_000_003) + j) with
      | Some v -> go (j + 1) tol (v :: acc)
      | None -> go (j + 1) tol acc
    end
  in
  go 0 0.03 []

type haggle = { path : string; graph : Tmedb_tveg.Tveg.t; source : int }

(* [count] Haggle-like instances of [n] nodes, size-controlled at the
   deadline on the full scale, each written as CSV for the program and
   read back so checks see exactly what the program parses.  The source
   is Experiment.choose_sources' first pick, as the CLI would make. *)
let haggle_instances env ~tag ~count ~n ~horizon ~deadline =
  let params =
    { (Tmedb_trace.Synth.with_n Tmedb_trace.Synth.default_params n) with Tmedb_trace.Synth.horizon }
  in
  sized ~seed:env.seed ~count (fun ~within id ->
      let trace = Tmedb_trace.Synth.generate (Rng.create id) params in
      match env.scale with
      | Full when not (within ~target:(median_contacts_2000 n) (contacts_before trace deadline)) ->
          None
      | Full | Tiny -> Some (id, trace))
  |> List.mapi (fun k (id, trace) ->
         let path = Filename.concat env.dir (Printf.sprintf "%s-%d.csv" tag k) in
         Tmedb_trace.Trace.save trace ~path;
         let trace = get_ok path (Tmedb_trace.Trace.load ~path) in
         let source =
           match
             Experiment.choose_sources
               { Experiment.default_config with Experiment.seed = id; sources = 1 }
               ~trace ~deadline
           with
           | s :: _ -> s
           | [] -> 0
         in
         { path; graph = Tmedb_tveg.Tveg.of_trace ~tau:0. trace; source })
  |> Array.of_list

(* One CLI process; its peak resident set (KiB) is appended to
   [peaks]. *)
let run_cli env ~peaks args =
  let log = Filename.concat env.dir "cli.log" in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process env.cli (Array.of_list (env.cli :: args)) Unix.stdin fd fd)
  in
  let code, maxrss = Measure.wait4 pid in
  peaks := float_of_int maxrss :: !peaks;
  match code with
  | 0 -> []
  | c when c > 0 ->
      fail "tmedb_cli %s exited %d: %s" (List.hd args) c (String.trim (read_file log))
  | c -> fail "tmedb_cli %s killed by signal %d" (List.hd args) (-c)

let median_mb peaks () = Measure.median !peaks /. 1024.
let own_peak_mb () = float_of_int (Measure.maxrss_self_kb ()) /. 1024.

(* ------------------------------------------------------------------ *)
(* Checks *)

(* Problem.is_reachable, through the sparse earliest-arrival scan (the
   dense TVG it goes through costs ~25 s at N = 500). *)
let completable (problem : Problem.t) =
  let graph = problem.Problem.graph in
  Array.for_all
    (fun a -> a <= problem.Problem.deadline)
    (Tmedb_tveg.Tveg.earliest_arrival graph ~src:problem.Problem.source
       ~t0:(Tmedb_tveg.Tveg.span graph).Interval.lo)

(* The rules every planned schedule must meet: a completing schedule
   passes Feasibility and its energy is no lower than the certified
   lower bound; a planner that searches the whole auxiliary graph
   ([complete]: the EEDCB family and SPT) leaves nodes unreached only
   when the source cannot inform them by the deadline.  GREED and RAND
   backbones may stall earlier by design. *)
let verdict ~complete ~problem ~schedule ~energy ~unreached =
  let reachable = completable problem in
  let lb = Tmedb_channel.Phy.normalized_energy phy (Metrics.energy_lower_bound problem) in
  List.concat
    [
      (if complete && reachable && unreached > 0 then
         fail "%d nodes unreached by a completable source" unreached
       else []);
      (if reachable && unreached = 0 && not (Feasibility.check problem schedule).Feasibility.feasible
       then fail "schedule fails Feasibility"
       else []);
      (if unreached = 0 && energy < lb *. (1. -. 1e-9) then
         fail "energy %.17g below the certified lower bound %.17g" energy lb
       else []);
    ]

(* Record a request's first output, or compare a repeat with it. *)
let first_or_same ~first i value ~equal ~what =
  match first.(i) with
  | None ->
      first.(i) <- Some value;
      None
  | Some v -> Some (if equal v value then [] else fail "%s differs from the first execution" what)

let recorded first = List.filter_map Fun.id (Array.to_list first)

(* ------------------------------------------------------------------ *)
(* plan-haggle: `tmedb_cli run` per instance, CSV parse to written
   ledger, one process each, single-threaded; EEDCB and FR-EEDCB on
   alternate instances. *)

let summary_num (l : Ledger.t) key =
  match List.assoc_opt key l.Ledger.summary with Some (Json.Num v) -> v | _ -> Float.nan

let summary_bool (l : Ledger.t) key =
  match List.assoc_opt key l.Ledger.summary with Some (Json.Bool b) -> b | _ -> false

let schedule_of_entries entries =
  Schedule.of_transmissions
    (List.map
       (fun (e : Ledger.entry) ->
         { Schedule.relay = e.Ledger.relay; time = e.Ledger.time; cost = e.Ledger.cost })
       entries)

let plan_haggle env =
  let count, n, horizon, deadline, trials =
    match env.scale with Full -> (44, 16, 17000., 2000., 200) | Tiny -> (2, 8, 3000., 1000., 20)
  in
  let inst = haggle_instances env ~tag:"plan" ~count ~n ~horizon ~deadline in
  let peaks = ref [] in
  let alg i = get_ok "planner" (Registry.find (if i mod 2 = 0 then "EEDCB" else "FR-EEDCB")) in
  let ledger_path i = Filename.concat env.dir (Printf.sprintf "plan-%d.json" i) in
  (* First execution's ledger per request, with its bytes' digest. *)
  let first = Array.make count None in
  let check i () =
    let bytes = read_file (ledger_path i) in
    let parsed = Result.bind (Json.parse bytes) Ledger.of_json in
    match (first.(i), parsed) with
    | Some (_, digest), _ ->
        if String.equal digest (Digest.string bytes) then []
        else fail "ledger differs from the first execution"
    | None, Error e -> fail "ledger does not parse: %s" e
    | None, Ok l ->
        first.(i) <- Some (l, Digest.string bytes);
        let problem =
          Problem.make ~graph:inst.(i).graph ~phy ~channel:(Planner.design_channel (alg i))
            ~source:inst.(i).source ~deadline ()
        in
        let schedule = schedule_of_entries l.Ledger.schedule in
        let energy = summary_num l "energy" in
        (if Float.equal energy (Metrics.normalized_energy problem schedule) then []
         else fail "ledger energy does not match its schedule")
        @ verdict ~complete:true ~problem ~schedule ~energy
            ~unreached:(int_of_float (summary_num l "unreached"))
  in
  let request i =
    let status =
      run_cli env ~peaks
        [
          "run"; "-a"; Planner.name (alg i); "--deadline"; Printf.sprintf "%g" deadline;
          "--source"; string_of_int inst.(i).source; "--seed"; string_of_int env.seed;
          "--jobs"; "1"; "--trials"; string_of_int trials; "--ledger"; ledger_path i;
          inst.(i).path;
        ]
    in
    fun () -> if status <> [] then status else check i ()
  in
  (* Tmedb_cli.run: load, plan through Experiment.run_alg's context,
     Monte-Carlo replay in a fresh Rayleigh instance, ledger. *)
  let staged i =
    let { path; source; _ } = inst.(i) in
    Tmedb_report.Provenance.set_enabled true;
    Tmedb_report.Provenance.reset ();
    let trace = L.step "trace.load_s" (fun () -> get_ok path (Tmedb_trace.Trace.load ~path)) in
    let make channel =
      let graph = L.step "tveg.build_s" (fun () -> Tmedb_tveg.Tveg.of_trace ~tau:0. trace) in
      Problem.make ~graph ~phy ~channel ~source ~deadline ()
    in
    let problem = make (Planner.design_channel (alg i)) in
    let ctx =
      Planner.Ctx.make ~rng:(Rng.create env.seed) ~steiner_level:2 ~cap_per_node:dts_cap ()
    in
    let p = Staged.plan ~cap:dts_cap ~ctx (Planner.name (alg i)) problem in
    let energy = Metrics.normalized_energy problem p.Staged.schedule in
    let eval = make `Rayleigh in
    let sim =
      L.step "simulate.run_s" (fun () ->
          Simulate.run ~trials ~rng:(Rng.create (env.seed + 1)) ~eval_channel:`Rayleigh eval
            p.Staged.schedule)
    in
    L.step "ledger.write_s" (fun () ->
        let schedule =
          List.map
            (fun (tx : Schedule.transmission) ->
              { Ledger.relay = tx.Schedule.relay; time = tx.Schedule.time; cost = tx.Schedule.cost })
            (Schedule.transmissions p.Staged.schedule)
        in
        Ledger.write
          (Ledger.make
             ~config:[ ("algorithm", Json.Str (Planner.name (alg i))) ]
             ~input_digest:(Ledger.digest_string (read_file path))
             ~summary:
               [ ("energy", Json.Num energy); ("delivery_ratio", Json.Num sim.Simulate.delivery_ratio) ]
             ~snapshot:(Tmedb_obs.snapshot ()) ~provenance:(Tmedb_report.Provenance.events ())
             ~schedule ())
          ~path:(Filename.concat env.dir "staged.json"));
    Tmedb_report.Provenance.set_enabled false;
    Tmedb_report.Provenance.reset ();
    fun () ->
      match first.(i) with
      | None -> fail "no program output to compare with"
      | Some (l, _) ->
          List.concat
            [
              (if Schedule.equal p.Staged.schedule (schedule_of_entries l.Ledger.schedule) then []
               else fail "staged schedule differs from the planner's");
              (if Float.equal energy (summary_num l "energy")
                  && Float.equal sim.Simulate.delivery_ratio (summary_num l "delivery_ratio")
                  && Bool.equal p.Staged.report.Feasibility.feasible (summary_bool l "feasible")
                  && float_of_int (List.length p.Staged.unreached) = summary_num l "unreached"
               then []
               else fail "staged summary differs from the ledger's");
            ]
  in
  let ledgers () = List.map fst (recorded first) in
  {
    jobs = 1;
    cli = true;
    requests = count;
    setup =
      (fun () ->
        Array.iter
          (fun { path; _ } ->
            let trace = get_ok path (Tmedb_trace.Trace.load ~path) in
            ignore (Sys.opaque_identity (Tmedb_tveg.Tveg.of_trace ~tau:0. trace)))
          inst);
    request;
    staged;
    peak_rss_mb = median_mb peaks;
    energies = (fun () -> List.map (fun l -> summary_num l "energy") (ledgers ()));
    deliveries = (fun () -> List.map (fun l -> summary_num l "delivery_ratio") (ledgers ()));
    pool_probe = (fun () -> None);
    close = ignore;
  }

(* ------------------------------------------------------------------ *)
(* pareto-haggle: `tmedb_cli pareto` per instance, one sweep over a
   deadline grid sharing one Solve_state, fanned over 2 domains. *)

let pareto_haggle env =
  let count, n, horizon, grid_spec =
    match env.scale with
    | Full -> (64, 12, 17000., "1000:2000:250")
    | Tiny -> (1, 8, 3000., "500:1000:250")
  in
  let grid = get_ok "grid" (Pareto.Grid.parse_range grid_spec) in
  let hi = List.fold_left Float.max Float.neg_infinity grid in
  let inst = haggle_instances env ~tag:"pareto" ~count ~n ~horizon ~deadline:hi in
  let peaks = ref [] in
  let problem_of graph ~source ~deadline =
    Problem.make ~graph ~phy ~channel:`Static ~source ~deadline ()
  in
  let ledger_path i = Filename.concat env.dir (Printf.sprintf "pareto-%d.json" i) in
  let first = Array.make count None in
  let check i () =
    let bytes = read_file (ledger_path i) in
    let parsed = Result.bind (Json.parse bytes) Ledger.Pareto.of_json in
    match (first.(i), parsed) with
    | Some (_, digest), _ ->
        if String.equal digest (Digest.string bytes) then []
        else fail "ledger differs from the first execution"
    | None, Error e -> fail "pareto ledger does not parse: %s" e
    | None, Ok l ->
        first.(i) <- Some (l, Digest.string bytes);
        let points = l.Ledger.Pareto.points in
        if List.map (fun (p : Ledger.Pareto.point) -> p.Ledger.Pareto.deadline) points <> grid then
          fail "pareto ledger points do not match the grid"
        else
          List.concat_map
            (fun (p : Ledger.Pareto.point) ->
              let problem =
                problem_of inst.(i).graph ~source:inst.(i).source ~deadline:p.Ledger.Pareto.deadline
              in
              let lb =
                Tmedb_channel.Phy.normalized_energy phy (Metrics.energy_lower_bound problem)
              in
              List.concat
                [
                  (if completable problem && (p.Ledger.Pareto.unreached > 0 || not p.Ledger.Pareto.feasible)
                   then fail "pareto point %g incomplete although completable" p.Ledger.Pareto.deadline
                   else []);
                  (if p.Ledger.Pareto.unreached = 0 && p.Ledger.Pareto.energy < lb *. (1. -. 1e-9)
                   then fail "pareto point %g below the certified lower bound" p.Ledger.Pareto.deadline
                   else []);
                ])
            points
  in
  let args i =
    [
      "pareto"; "-a"; "EEDCB"; "--deadlines"; grid_spec; "--source"; string_of_int inst.(i).source;
      "--seed"; string_of_int env.seed; "--jobs"; "2"; "--ledger"; ledger_path i; inst.(i).path;
    ]
  in
  let request i =
    let status = run_cli env ~peaks (args i) in
    fun () -> if status <> [] then status else check i ()
  in
  (* Tmedb_cli.pareto: load, one Solve_state at the grid horizon, every
     grid point through Eedcb's shared-state path (sequentially here),
     dominance marking, ledger. *)
  let staged i =
    let { path; source; _ } = inst.(i) in
    let trace = L.step "trace.load_s" (fun () -> get_ok path (Tmedb_trace.Trace.load ~path)) in
    let graph = L.step "tveg.build_s" (fun () -> Tmedb_tveg.Tveg.of_trace ~tau:0. trace) in
    let base = problem_of graph ~source ~deadline:hi in
    let st =
      L.step "solve_state.create_s" (fun () -> Solve_state.create ~cap_per_node:dts_cap base)
    in
    let points =
      Pareto.mark_dominated
        (List.map
           (fun deadline ->
             let p = { base with Problem.deadline } in
             let plan = Staged.eedcb_shared st p in
             {
               Pareto.deadline;
               energy = Metrics.normalized_energy p plan.Staged.schedule;
               transmissions = Schedule.num_transmissions plan.Staged.schedule;
               feasible = plan.Staged.report.Feasibility.feasible;
               unreached = List.length plan.Staged.unreached;
               dominated = false;
             })
           grid)
    in
    let ledger_points =
      List.map
        (fun (p : Pareto.point) ->
          {
            Ledger.Pareto.deadline = p.Pareto.deadline;
            energy = p.Pareto.energy;
            transmissions = p.Pareto.transmissions;
            feasible = p.Pareto.feasible;
            unreached = p.Pareto.unreached;
            dominated = p.Pareto.dominated;
          })
        points
    in
    L.step "ledger.write_s" (fun () ->
        Ledger.Pareto.write
          (Ledger.Pareto.make ~config:[ ("grid", Json.Str grid_spec) ]
             ~input_digest:(Ledger.digest_string (read_file path))
             ~points:ledger_points
             ~front:
               (List.filter_map
                  (fun (p : Pareto.point) -> if p.Pareto.dominated then None else Some p.Pareto.deadline)
                  points)
             ~snapshot:(Tmedb_obs.snapshot ()) ())
          ~path:(Filename.concat env.dir "staged.json"));
    fun () ->
      match first.(i) with
      | Some (l, _) when ledger_points = l.Ledger.Pareto.points -> []
      | Some _ | None -> fail "staged pareto points differ from the ledger's"
  in
  let pool_probe () =
    let metrics = Filename.concat env.dir "probe.json" in
    match run_cli env ~peaks:(ref []) (args 0 @ [ "--metrics"; metrics ]) with
    | _ :: _ -> None
    | [] ->
        let counters = Json.member "counters" (get_ok metrics (Json.parse (read_file metrics))) in
        let counter name =
          Option.value ~default:0. (Option.bind (Option.bind counters (Json.member name)) Json.to_float)
        in
        Some (counter "pool.tasks", counter "pool.steals")
  in
  {
    jobs = 2;
    cli = true;
    requests = count;
    setup =
      (fun () ->
        Array.iter
          (fun { path; source; _ } ->
            let trace = get_ok path (Tmedb_trace.Trace.load ~path) in
            let graph = Tmedb_tveg.Tveg.of_trace ~tau:0. trace in
            ignore
              (Sys.opaque_identity
                 (Solve_state.create ~cap_per_node:dts_cap (problem_of graph ~source ~deadline:hi))))
          inst);
    request;
    staged;
    peak_rss_mb = median_mb peaks;
    energies =
      (fun () ->
        List.concat_map
          (fun (l, _) ->
            List.map (fun (p : Ledger.Pareto.point) -> p.Ledger.Pareto.energy) l.Ledger.Pareto.points)
          (recorded first));
    deliveries = (fun () -> []);
    pool_probe;
    close = ignore;
  }

(* ------------------------------------------------------------------ *)
(* fig6-compare: in-process Experiment.fig6 per configuration — all six
   planners plus the Monte-Carlo replay per (size, algorithm, source),
   on a 2-domain pool. *)

type fig6 = Experiment.series list * Experiment.series list

let series_equal (a : Experiment.series list) (b : Experiment.series list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Experiment.series) (y : Experiment.series) ->
         String.equal x.Experiment.label y.Experiment.label
         && List.length x.Experiment.points = List.length y.Experiment.points
         && List.for_all2
              (fun (x1, y1) (x2, y2) -> Float.equal x1 x2 && Float.equal y1 y2)
              x.Experiment.points y.Experiment.points)
       a b

let fig6_values (s : Experiment.series list) =
  List.concat_map (fun (x : Experiment.series) -> List.map snd x.Experiment.points) s

let fig6_compare env =
  let count, ns, trials, horizon, deadline =
    match env.scale with
    | Full -> (28, [ 8; 12 ], 100, 17000., 2000.)
    | Tiny -> (1, [ 6 ], 20, 3000., 1000.)
  in
  let base =
    { Experiment.default_config with Experiment.sources = 1; mc_trials = trials; horizon; deadline }
  in
  (* Configurations whose fig6 traces are all size-controlled. *)
  let configs =
    Array.of_list
      (sized ~seed:env.seed ~count (fun ~within id ->
           let config = { base with Experiment.seed = id } in
           if
             env.scale = Tiny
             || List.for_all
                  (fun n ->
                    within ~target:(median_contacts_2000 n)
                      (contacts_before (Experiment.make_trace config ~n) deadline))
                  ns
           then Some config
           else None))
  in
  (* Created here, off the clock; closed before the traced pass, which
     replays sequentially on the caller's restored minor heap. *)
  let pool = ref (Some (Pool.create ~num_domains:2 ())) in
  let first = Array.make count None in
  let sane ((energy, delivery) : fig6) =
    List.concat
      [
        (if List.map (fun (x : Experiment.series) -> x.Experiment.label) energy
            = List.map Experiment.algorithm_name Experiment.all_algorithms
         then []
         else fail "fig6 series are not the six planners");
        (if List.for_all (fun e -> Float.is_finite e && e > 0.) (fig6_values energy) then []
         else fail "fig6 energy not finite and positive");
        (if List.for_all (fun d -> d >= 0. && d <= 1.) (fig6_values delivery) then []
         else fail "fig6 delivery outside [0, 1]");
      ]
  in
  let request i =
    let r = Experiment.fig6 ~config:configs.(i) ?pool:!pool ~ns () in
    fun () ->
      match
        first_or_same ~first i r ~what:"fig6 series" ~equal:(fun (a1, b1) (a2, b2) ->
            series_equal a1 a2 && series_equal b1 b2)
      with
      | Some f -> f
      | None -> sane r
  in
  (* Experiment.fig6, sequentially: per (size, algorithm, source) the
     point RNG, the planner, a Rayleigh instance and the Monte-Carlo
     replay; then fig6's own aggregation in task order. *)
  let staged i =
    let config = configs.(i) in
    let ns = Array.of_list ns in
    let traces =
      Array.map (fun n -> L.step "trace.load_s" (fun () -> Experiment.make_trace config ~n)) ns
    in
    let algs = Array.of_list Experiment.all_algorithms in
    let na = Array.length algs in
    let energy_acc = Array.make_matrix (Array.length ns) na [] in
    let delivery_acc = Array.make_matrix (Array.length ns) na [] in
    let planned = ref [] in
    Array.iteri
      (fun ni trace ->
        let sources = Experiment.choose_sources config ~trace ~deadline in
        Array.iteri
          (fun ai algorithm ->
            List.iteri
              (fun k source ->
                let rng = Experiment.point_rng ~seed:config.Experiment.seed ~k algorithm in
                let make channel =
                  let graph =
                    L.step "tveg.build_s" (fun () -> Tmedb_tveg.Tveg.of_trace ~tau:0. trace)
                  in
                  Problem.make ~graph ~phy ~channel ~source ~deadline ()
                in
                let problem = make (Planner.design_channel algorithm) in
                let ctx =
                  Planner.Ctx.make ~rng ~steiner_level:config.Experiment.steiner_level
                    ~cap_per_node:dts_cap ()
                in
                let p = Staged.plan ~cap:dts_cap ~ctx (Planner.name algorithm) problem in
                let energy = Metrics.normalized_energy problem p.Staged.schedule in
                let sim =
                  L.step "simulate.run_s" (fun () ->
                      Simulate.run ~trials ~rng ~eval_channel:`Rayleigh (make `Rayleigh)
                        p.Staged.schedule)
                in
                let complete = List.mem (Planner.name algorithm) [ "EEDCB"; "FR-EEDCB" ] in
                planned := (complete, problem, p, energy) :: !planned;
                energy_acc.(ni).(ai) <- energy :: energy_acc.(ni).(ai);
                delivery_acc.(ni).(ai) <- sim.Simulate.delivery_ratio :: delivery_acc.(ni).(ai))
              sources)
          algs)
      traces;
    let series acc =
      List.init na (fun ai ->
          {
            Experiment.label = Experiment.algorithm_name algs.(ai);
            points =
              List.sort compare
                (List.init (Array.length ns) (fun ni ->
                     (float_of_int ns.(ni), Stats.mean (Array.of_list acc.(ni).(ai)))));
          })
    in
    let energy = series energy_acc and delivery = series delivery_acc in
    fun () ->
      List.concat_map
        (fun (complete, problem, p, energy) ->
          verdict ~complete ~problem ~schedule:p.Staged.schedule ~energy
            ~unreached:(List.length p.Staged.unreached))
        !planned
      @
      match first.(i) with
      | Some (e, d) when series_equal e energy && series_equal d delivery -> []
      | Some _ | None -> fail "staged fig6 series differ from Experiment.fig6's"
  in
  {
    jobs = 2;
    cli = false;
    requests = count;
    setup =
      (fun () ->
        Array.iter
          (fun config ->
            List.iter
              (fun n -> ignore (Sys.opaque_identity (Experiment.make_trace config ~n)))
              ns)
          configs);
    request;
    staged;
    peak_rss_mb = own_peak_mb;
    energies = (fun () -> List.concat_map (fun (e, _) -> fig6_values e) (recorded first));
    deliveries = (fun () -> List.concat_map (fun (_, d) -> fig6_values d) (recorded first));
    pool_probe =
      (fun () ->
        Tmedb_obs.reset ();
        Tmedb_obs.set_enabled true;
        ignore (Experiment.fig6 ~config:configs.(0) ?pool:!pool ~ns ());
        Tmedb_obs.set_enabled false;
        let counter name = float_of_int (Tmedb_obs.Counter.value (Tmedb_obs.Counter.make name)) in
        let r = (counter "pool.tasks", counter "pool.steals") in
        Tmedb_obs.reset ();
        Some r);
    close =
      (fun () ->
        Option.iter Pool.shutdown !pool;
        pool := None);
  }

(* ------------------------------------------------------------------ *)
(* nscale-500: in-process lazy SPT solves of clustered Scale scenarios
   at N = 500, one per request. *)

let nscale env =
  let count, n = match env.scale with Full -> (3, 500) | Tiny -> (1, 40) in
  let cap = 64 in
  let params =
    Array.init count (fun j ->
        { Tmedb_tveg.Scale.default_params with Tmedb_tveg.Scale.seed = (env.seed * 1_000_003) + j })
  in
  let make params =
    let graph = Tmedb_tveg.Scale.scenario ~params ~n () in
    Problem.make ~graph ~phy ~channel:`Static ~source:0
      ~deadline:(Tmedb_tveg.Scale.deadline ~params ())
      ()
  in
  (* Set-up always runs before the first request; requests solve the
     instances the last set-up built. *)
  let problems = ref [||] in
  let spt = get_ok "SPT" (Registry.find "SPT") in
  let first = Array.make count None in
  let request i =
    let p = !problems.(i) in
    let o = Planner.run ~ctx:(Planner.Ctx.make ~cap_per_node:cap ~lazy_aux:true ()) spt p in
    let schedule = o.Planner.Outcome.schedule and unreached = o.Planner.Outcome.unreached in
    fun () ->
      match
        first_or_same ~first i (schedule, unreached) ~what:"SPT outcome"
          ~equal:(fun (s1, u1) (s2, u2) -> Schedule.equal s1 s2 && u1 = u2)
      with
      | Some f -> f
      | None ->
          verdict ~complete:true ~problem:p ~schedule ~energy:(Metrics.normalized_energy p schedule)
            ~unreached:(List.length unreached)
  in
  let staged i =
    let plan = Staged.spt ~cap !problems.(i) in
    fun () ->
      match first.(i) with
      | Some (schedule, unreached)
        when Schedule.equal schedule plan.Staged.schedule && unreached = plan.Staged.unreached ->
          []
      | Some _ | None -> fail "staged SPT outcome differs from Planner.run's"
  in
  {
    jobs = 1;
    cli = false;
    requests = count;
    setup = (fun () -> problems := Array.map make params);
    request;
    staged;
    peak_rss_mb = own_peak_mb;
    energies =
      (fun () ->
        List.concat
          (List.init count (fun i ->
               match first.(i) with
               | Some (s, _) -> [ Metrics.normalized_energy !problems.(i) s ]
               | None -> [])));
    deliveries = (fun () -> []);
    pool_probe = (fun () -> None);
    close = ignore;
  }

let all =
  [
    ("plan-haggle", plan_haggle);
    ("pareto-haggle", pareto_haggle);
    ("fig6-compare", fig6_compare);
    ("nscale-500", nscale);
  ]

let make name env = (List.assoc name all) env
