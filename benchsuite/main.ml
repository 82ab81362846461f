(* The repository benchmark (BENCHMARK.json): four workloads, their
   end-to-end metrics, and an outside-in per-layer trace.

   Usage (from the repository root, after `dune build`):
     main.exe --workload NAME --seed S [--seconds X] [--trace 0|1]
                                       -- one workload; the last stdout
                                          line is the result object
     main.exe suite --seed S [--traced] [--out FILE]
                                       -- all four workloads, each in
                                          its own child process, as one
                                          JSON document
     main.exe bench-diff A.json B.json -- compare two suite documents
                                          under BENCHMARK.json's bounds
     main.exe smoke                    -- all four at a tiny scale, both
                                          passes, checked against
                                          BENCHMARK.json (dune runtest)

   Common options: --cli PATH (the tmedb_cli executable, default
   _build/default/bin/tmedb_cli.exe), --spec PATH (default
   BENCHMARK.json), --scale full|tiny, --detail FILE (the workload's
   full metric document).

   A run issues the workload's seed-derived round of requests in a
   closed loop with one client: the whole round, then more while the
   next request is expected to end within --seconds.  With --trace 1
   half the time goes to that end-to-end pass, telemetry off, and half
   to the traced pass, which replays the same requests through the
   layers' public functions with the telemetry registry on. *)

open Tmedb_prelude
module L = Measure.Layers

let usage () =
  prerr_endline
    "usage: main.exe [--workload NAME | suite | bench-diff A.json B.json | smoke] [--seed S] \
     [--seconds X] [--trace 0|1] [--traced] [--scale full|tiny] [--cli PATH] [--spec PATH] \
     [--detail FILE] [--out FILE]";
  exit 2

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json *)

type spec_metric = { name : string; unit_ : string; better : string; bound : float option }

type spec = {
  run_seconds : float;
  workloads : string list;
  end_to_end : spec_metric list;
  per_layer : spec_metric list;
}

let read_json path =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok doc -> doc
  | Error e -> die "%s: %s" path e
  | exception Sys_error e -> die "%s" e

let load_spec path =
  let doc = read_json path in
  let str k j = match Json.member k j with Some (Json.Str s) -> s | _ -> die "%s: %s missing" path k in
  let list k = match Option.bind (Json.member k doc) Json.to_list with Some l -> l | None -> die "%s: %s missing" path k in
  let metric j =
    {
      name = str "name" j;
      unit_ = str "unit" j;
      better = str "better" j;
      bound = Option.bind (Json.member "bound" j) Json.to_float;
    }
  in
  {
    run_seconds =
      (match Option.bind (Json.member "run_seconds" doc) Json.to_float with
      | Some s -> s
      | None -> die "%s: run_seconds missing" path);
    workloads = List.map (str "name") (list "workloads");
    end_to_end = List.map metric (list "end_to_end");
    per_layer = List.map metric (list "per_layer");
  }

(* ------------------------------------------------------------------ *)
(* One workload run *)

(* Set-up is timed at least [setup_min_reps] times and until
   [setup_min_seconds] have passed (at most [setup_max_reps]); the
   median is reported. *)
let setup_min_reps = 5
let setup_max_reps = 50
let setup_min_seconds = 0.3

(* Registry counters the traced pass books per request. *)
let counters =
  [
    "dts.points"; "dts.stream_points"; "dcs.queries"; "dijkstra.runs"; "dijkstra.settled";
    "dst.expansions"; "nlp.solves"; "nlp.projgrad_iterations"; "simulate.trials";
  ]

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  failures : string list;
  metrics : Measure.metric list;
  facts : (string * Json.t) list;
}

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Each execution's time over its request's mean time: the run-to-run
   noise of identical work, whatever the mix of requests. *)
let noise_spread times =
  Array.to_list times
  |> List.concat_map (fun ts ->
         if List.length ts < 2 then []
         else
           let m = Measure.mean ts in
           List.map (fun t -> t /. m) ts)
  |> Measure.spread

let run_workload ~name ~(env : Workloads.env) ~seconds ~trace =
  let w = Workloads.make name env in
  let failures = ref [] and attempted = ref 0 and failed = ref 0 in
  (* Closed loop, one client: at least [min_requests], then on while
     the next request is expected to end within the budget, cycling
     over the first [distinct] requests; per-request wall times grouped
     by request.  In-process requests start from a compacted heap, as a
     fresh process would. *)
  let pass ~budget ~min_requests ~distinct f =
    let times = Array.make distinct [] in
    let t0 = Measure.now () in
    let k = ref 0 in
    let expected i =
      match times.(i) with [] -> Measure.mean (List.concat (Array.to_list times)) | ts -> Measure.mean ts
    in
    while !k < min_requests || Measure.now () -. t0 +. expected (!k mod distinct) <= budget do
      let i = !k mod distinct in
      if not w.Workloads.cli then Gc.compact ();
      let check, dt = Measure.timed (fun () -> f i) in
      times.(i) <- dt :: times.(i);
      let fs = check () in
      incr attempted;
      if fs <> [] then begin
        incr failed;
        failures := !failures @ List.map (Printf.sprintf "%s request %d: %s" name i) fs
      end;
      incr k
    done;
    times
  in
  let setup_times =
    let t0 = Measure.now () in
    let rec go acc k =
      if k >= setup_max_reps
         || (k >= setup_min_reps && Measure.now () -. t0 >= setup_min_seconds)
      then acc
      else go (snd (Measure.timed w.Workloads.setup) :: acc) (k + 1)
    in
    go [] 0
  in
  (* Untraced runs finish the whole round, which the energy metrics
     cover; a traced run splits its time between the two passes. *)
  let e2e =
    pass
      ~budget:(if trace then seconds /. 2. else seconds)
      ~min_requests:(if trace then 1 else w.Workloads.requests)
      ~distinct:w.Workloads.requests w.Workloads.request
  in
  let peak_mb = w.Workloads.peak_rss_mb () in
  let probe = if trace then w.Workloads.pool_probe () else None in
  w.Workloads.close ();
  let staged =
    if not trace then None
    else begin
      L.clear ();
      Tmedb_obs.set_enabled true;
      let booked = Array.make w.Workloads.requests [] in
      let times =
        pass ~budget:(seconds /. 2.) ~min_requests:1
          ~distinct:(Array.fold_left (fun n ts -> if ts = [] then n else n + 1) 0 e2e)
          (fun i ->
            Tmedb_obs.reset ();
            let b0 = L.get L.booked in
            let check = w.Workloads.staged i in
            booked.(i) <- (L.get L.booked -. b0) :: booked.(i);
            List.iter
              (fun c -> L.add c (float_of_int (Tmedb_obs.Counter.value (Tmedb_obs.Counter.make c))))
              counters;
            check)
      in
      Tmedb_obs.set_enabled false;
      Tmedb_obs.reset ();
      Some (times, booked)
    end
  in
  let all ts = List.concat (Array.to_list ts) in
  let e2e_times = all e2e in
  let energies = w.Workloads.energies () and deliveries = w.Workloads.deliveries () in
  let m = Measure.metric in
  let end_to_end =
    [
      m "request_s.p50" "s"
        (Some (Measure.median e2e_times))
        ~samples:(List.length e2e_times) ?spread:(noise_spread e2e);
      m "setup_s" "s" (Some (Measure.median setup_times)) ~samples:(List.length setup_times)
        ?spread:(Measure.spread setup_times);
      m "energy_geomean" "m_alpha"
        (Some (Measure.geomean energies))
        ~samples:(List.length energies) ~spread:0.;
      m "delivery_mean" "fraction"
        (if deliveries = [] then None else Some (Measure.mean deliveries))
        ~samples:(List.length deliveries) ~spread:0.;
      m "failed_ratio" "fraction"
        (Some (float_of_int !failed /. float_of_int (Stdlib.max 1 !attempted)))
        ~samples:!attempted;
      m "peak_rss_mb" "MB" (Some peak_mb);
    ]
  in
  let per_layer =
    match staged with
    | None -> []
    | Some (st, booked) ->
        let staged_times = all st in
        let n = float_of_int (List.length staged_times) in
        let per key = if L.mem key then Some (L.get key /. n) else None in
        let count key = Some (L.get key /. n) in
        let ratio a b = if L.mem a && L.get b > 0. then Some (L.get a /. L.get b) else None in
        (* Over the requests both passes ran: staged over end-to-end
           wall time, and each request's end-to-end time beyond the
           layer calls the staged replay booked (a single-domain CLI
           request only: the replay is sequential). *)
        let common = List.filter (fun i -> st.(i) <> []) (List.init (Array.length st) Fun.id) in
        let sum_means ts = List.fold_left (fun acc i -> acc +. Measure.mean ts.(i)) 0. common in
        let busy_share = sum_means st /. sum_means e2e in
        let outside_layers =
          List.map (fun i -> Measure.mean e2e.(i) -. Measure.mean booked.(i)) common
        in
        let nproc = Measure.nproc () in
        let m ?(samples = List.length staged_times) name unit_ v = m ~samples name unit_ v in
        let time key = m key "s" (per key) in
        [
          time "trace.load_s";
          time "tveg.build_s";
          time "dts.s";
          m "dts.points" "count" (count "dts.points");
          m "dts.stream_points" "count" (count "dts.stream_points");
          m "dcs.queries" "count" (count "dcs.queries");
          time "solve_state.create_s";
          time "solve_state.layout_s";
          time "aux_graph.build_s";
          time "aux_graph.gen_s";
          time "aux_graph.extract_s";
          m "aux_graph.nodes_materialized" "count" (count "aux_graph.nodes_materialized");
          m "aux_graph.lazy_nodes_total" "count" (count "aux_graph.lazy_nodes_total");
          m "aux_graph.materialized_ratio" "ratio"
            (ratio "aux_graph.nodes_materialized" "aux_graph.lazy_nodes_total");
          m "aux_graph.alloc_mw" "Mword" (per "aux_graph.alloc_mw");
          time "steiner.search_s";
          m "steiner.alloc_mw" "Mword" (per "steiner.alloc_mw");
          time "dst.prune_s";
          m "dst.expansions" "count" (count "dst.expansions");
          m "dijkstra.runs" "count" (count "dijkstra.runs");
          m "dijkstra.settled" "count" (count "dijkstra.settled");
          m "dijkstra.ns_per_settled" "ns"
            (Option.map (fun r -> r *. 1e9) (ratio "search.s" "search.settled"));
          time "fr.allocate_s";
          m "fr.alloc_mw" "Mword" (per "fr.alloc_mw");
          m "nlp.solves" "count" (count "nlp.solves");
          m "nlp.projgrad_iterations" "count" (count "nlp.projgrad_iterations");
          time "greedy.plan_s";
          time "feasibility.check_s";
          time "simulate.run_s";
          m "simulate.trials" "count" (count "simulate.trials");
          m "simulate.trials_per_s" "1/s" (ratio "simulate.trials" "simulate.run_s");
          m "pool.efficiency" "fraction"
            (if w.Workloads.jobs > 1 && nproc > 1 then
               Some (busy_share /. float_of_int w.Workloads.jobs)
             else None);
          m "pool.tasks" "count" (Option.map fst probe);
          m "pool.steals" "count" (Option.map snd probe);
          time "ledger.write_s";
          m "cli.overhead_s" "s"
            (if w.Workloads.cli && w.Workloads.jobs = 1 then Some (Measure.median outside_layers)
             else None)
            ~samples:(List.length outside_layers);
          m "traced.overhead" "ratio" (Some busy_share);
        ]
  in
  let count_of ts = Json.Num (float_of_int (List.length (all ts))) in
  {
    correct = !failed = 0;
    attempted = !attempted;
    failed = !failed;
    failures = !failures;
    metrics = end_to_end @ per_layer;
    facts =
      [
        ("workload", Json.Str name);
        ("seed", Json.Num (float_of_int env.Workloads.seed));
        ("scale", Json.Str (match env.Workloads.scale with Full -> "full" | Tiny -> "tiny"));
        ("seconds", Json.Num seconds);
        ("traced", Json.Bool trace);
        ("jobs", Json.Num (float_of_int w.Workloads.jobs));
        ("nproc", Json.Num (float_of_int (Measure.nproc ())));
        ("recommended_domain_count", Json.Num (float_of_int (Domain.recommended_domain_count ())));
        ("ocaml", Json.Str Sys.ocaml_version);
        ("round_requests", Json.Num (float_of_int w.Workloads.requests));
        ("end_to_end_requests", count_of e2e);
        ("staged_requests", match staged with Some (st, _) -> count_of st | None -> Json.Null);
      ];
  }

let outcome_json o =
  Json.Obj
    (o.facts
    @ [
        ("correct", Json.Bool o.correct);
        ("attempted", Json.Num (float_of_int o.attempted));
        ("failed", Json.Num (float_of_int o.failed));
        ("failures", Json.List (List.map (fun s -> Json.Str s) o.failures));
        ( "metrics",
          Json.Obj (List.map (fun (mt : Measure.metric) -> (mt.Measure.name, Measure.metric_json mt)) o.metrics)
        );
      ])

(* The driver-facing last line: exactly the metrics BENCHMARK.json
   names for this pass, each as measured. *)
let result_line spec ~trace o =
  let wanted = if trace then spec.per_layer else spec.end_to_end in
  let metric (sm : spec_metric) =
    match List.find_opt (fun (mt : Measure.metric) -> mt.Measure.name = sm.name) o.metrics with
    | Some mt -> (sm.name, Json.Obj [ ("value", Measure.num_or_null mt.Measure.value); ("unit", Json.Str mt.Measure.unit_) ])
    | None -> die "BENCHMARK.json names %s, which the harness does not measure" sm.name
  in
  Json.to_string ~indent:0
    (Json.Obj
       [
         ("correct", Json.Bool o.correct);
         ("attempted", Json.Num (float_of_int o.attempted));
         ("failed", Json.Num (float_of_int o.failed));
         ("metrics", Json.Obj (List.map metric wanted));
       ])

let workload_mode ~spec ~name ~env ~seconds ~trace ~detail =
  let dir = Filename.concat ".benchsuite-tmp" (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  mkdir_p dir;
  let o =
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () -> run_workload ~name ~env:{ env with Workloads.dir } ~seconds ~trace)
  in
  (try Sys.rmdir ".benchsuite-tmp" with Sys_error _ -> ());
  List.iter
    (fun (mt : Measure.metric) ->
      Printf.printf "%-32s %18s %-9s n=%d%s\n" mt.Measure.name
        (match mt.Measure.value with Some v -> Printf.sprintf "%.6g" v | None -> "n/a")
        mt.Measure.unit_ mt.Measure.samples
        (match mt.Measure.spread with Some s -> Printf.sprintf "  spread %.3f" s | None -> ""))
    o.metrics;
  List.iter prerr_endline o.failures;
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (Json.to_string (outcome_json o));
          output_char oc '\n'))
    detail;
  print_endline (result_line spec ~trace o)

(* ------------------------------------------------------------------ *)
(* suite: every workload in its own child process *)

let host_json () =
  Json.Obj
    [
      ("nproc", Json.Num (float_of_int (Measure.nproc ())));
      ("recommended_domain_count", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Json.Str Sys.ocaml_version);
    ]

(* Every workload of [spec] in its own child process; [quiet] sends the
   children's metric tables to a log instead of stdout. *)
let suite ?(quiet = false) ~spec ~spec_path ~seed ~seconds ~traced ~scale ~cli () =
  let detail_dir = Filename.concat ".benchsuite-tmp" (Printf.sprintf "suite-%d" (Unix.getpid ())) in
  mkdir_p detail_dir;
  Fun.protect
    ~finally:(fun () -> rm_rf detail_dir)
    (fun () ->
      let results =
        List.map
          (fun name ->
            let detail = Filename.concat detail_dir (name ^ ".json") in
            let args =
              [
                Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed;
                "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if traced then "1" else "0");
                "--scale"; scale; "--cli"; cli; "--spec"; spec_path; "--detail"; detail;
              ]
            in
            let out =
              if quiet then
                Unix.openfile (Filename.concat detail_dir "children.log")
                  [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
              else begin
                Printf.printf "== %s\n%!" name;
                Unix.stdout
              end
            in
            let pid =
              Fun.protect
                ~finally:(fun () -> if quiet then Unix.close out)
                (fun () ->
                  Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin out
                    Unix.stderr)
            in
            let ok = snd (Unix.waitpid [] pid) = Unix.WEXITED 0 in
            let doc = if ok && Sys.file_exists detail then Some (read_json detail) else None in
            let correct =
              match Option.bind doc (Json.member "correct") with Some (Json.Bool b) -> b | _ -> false
            in
            (name, doc, correct))
          spec.workloads
      in
      let doc =
        Json.Obj
          [
            ("schema", Json.Str "tmedb.benchsuite/1");
            ("seed", Json.Num (float_of_int seed));
            ("seconds", Json.Num seconds);
            ("traced", Json.Bool traced);
            ("host", host_json ());
            ( "workloads",
              Json.Obj
                (List.map (fun (name, d, _) -> (name, Option.value d ~default:Json.Null)) results) );
          ]
      in
      (doc, List.for_all (fun (_, _, c) -> c) results))

(* ------------------------------------------------------------------ *)
(* bench-diff *)

let metric_of doc ~workload ~name =
  let m =
    Option.bind (Json.member "workloads" doc) (Json.member workload)
    |> Fun.flip Option.bind (Json.member "metrics")
    |> Fun.flip Option.bind (Json.member name)
  in
  let num k = Option.bind (Option.bind m (Json.member k)) Json.to_float in
  (num "value", Option.value (num "spread") ~default:0.)

let bench_diff ~spec a_path b_path =
  let a = read_json a_path and b = read_json b_path in
  Printf.printf "%-14s %-16s %14s %14s %9s %7s  %s\n" "workload" "metric" "A" "B" "change" "bound"
    "status";
  let worse = ref 0 in
  List.iter
    (fun workload ->
      List.iter
        (fun (sm : spec_metric) ->
          let bound = Option.value sm.bound ~default:0. in
          match (metric_of a ~workload ~name:sm.name, metric_of b ~workload ~name:sm.name) with
          | (Some va, sa), (Some vb, sb) ->
              let change = (vb -. va) /. va in
              let worsening = if sm.better = "higher" then -.change else change in
              let status =
                if Float.max sa sb > bound then "unresolved"
                else if worsening > bound then (incr worse; "worse")
                else "ok"
              in
              Printf.printf "%-14s %-16s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n" workload sm.name va
                vb (100. *. change) (100. *. bound) status
          | _ -> Printf.printf "%-14s %-16s %14s %14s %9s %7s  %s\n" workload sm.name "-" "-" "" "" "missing")
        spec.end_to_end)
    spec.workloads;
  if !worse > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* smoke: the harness and BENCHMARK.json cannot drift *)

let smoke ~spec ~spec_path ~cli =
  let problems = ref [] in
  List.iter
    (fun traced ->
      let doc, _ =
        suite ~quiet:true ~spec ~spec_path ~seed:42 ~seconds:0. ~traced ~scale:"tiny" ~cli ()
      in
      let wanted = if traced then spec.per_layer else spec.end_to_end in
      List.iter
        (fun workload ->
          let w = Option.bind (Json.member "workloads" doc) (Json.member workload) in
          let field k = Option.bind w (Json.member k) in
          let bad fmt = Printf.ksprintf (fun s -> problems := Printf.sprintf "%s (traced=%b): %s" workload traced s :: !problems) fmt in
          (match (field "correct", Option.bind (field "failed") Json.to_float) with
          | Some (Json.Bool true), Some 0. -> ()
          | _ -> bad "not correct, or failed requests");
          List.iter
            (fun (sm : spec_metric) ->
              let mt = Option.bind (field "metrics") (Json.member sm.name) in
              match
                (Option.bind (Option.bind mt (Json.member "value")) Json.to_float, Option.bind mt (Json.member "unit"))
              with
              | Some _, Some (Json.Str u) when u = sm.unit_ -> ()
              | _ -> bad "%s not emitted with unit %s" sm.name sm.unit_)
            wanted)
        spec.workloads)
    [ false; true ];
  match !problems with
  | [] -> print_endline "smoke: every BENCHMARK.json metric emitted with its unit; no failures"
  | ps ->
      List.iter prerr_endline (List.rev ps);
      exit 1

(* ------------------------------------------------------------------ *)

let () =
  let opts = Hashtbl.create 8 and traced = ref false and rest = ref [] in
  let argv = Array.to_list Sys.argv |> List.tl in
  let rec parse = function
    | "--traced" :: tl ->
        traced := true;
        parse tl
    | k :: v :: tl when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace opts k v;
        parse tl
    | k :: _ when String.length k > 2 && String.sub k 0 2 = "--" -> usage ()
    | x :: tl ->
        rest := !rest @ [ x ];
        parse tl
    | [] -> ()
  in
  parse argv;
  let opt k default = Option.value (Hashtbl.find_opt opts k) ~default in
  let int_opt k default =
    match int_of_string_opt (opt k (string_of_int default)) with Some v -> v | None -> usage ()
  in
  let spec_path = opt "--spec" "BENCHMARK.json" in
  let spec = load_spec spec_path in
  let seed = int_opt "--seed" 42 in
  let seconds =
    match float_of_string_opt (opt "--seconds" (string_of_float spec.run_seconds)) with
    | Some s when s >= 0. -> s
    | _ -> usage ()
  in
  let cli = opt "--cli" "_build/default/bin/tmedb_cli.exe" in
  let scale_name = opt "--scale" "full" in
  let scale =
    match scale_name with "full" -> Workloads.Full | "tiny" -> Workloads.Tiny | _ -> usage ()
  in
  let env = { Workloads.seed; scale; dir = "."; cli } in
  let one name =
    let trace = match opt "--trace" "0" with "0" -> false | "1" -> true | _ -> usage () in
    if not (List.mem_assoc name Workloads.all) then die "unknown workload %s" name;
    workload_mode ~spec ~name ~env ~seconds ~trace ~detail:(Hashtbl.find_opt opts "--detail")
  in
  match (!rest, Hashtbl.find_opt opts "--workload") with
  | [], Some name -> one name
  | [ "suite" ], None ->
      let doc, ok = suite ~spec ~spec_path ~seed ~seconds ~traced:!traced ~scale:scale_name ~cli () in
      let text = Json.to_string doc in
      (match Hashtbl.find_opt opts "--out" with
      | Some path -> Out_channel.with_open_bin path (fun oc -> output_string oc (text ^ "\n"))
      | None -> print_endline text);
      if not ok then begin
        prerr_endline "suite: a workload failed its correctness checks";
        exit 1
      end
  | [ "bench-diff"; a; b ], None -> bench_diff ~spec a b
  | [ "smoke" ], None -> smoke ~spec ~spec_path ~cli
  | _ -> usage ()
