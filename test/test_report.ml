(* Tests for lib/report: the tmedb.run/1 run ledger (round-trip,
   byte-determinism across worker counts), the provenance log (sink
   semantics, JSON round-trip, completeness against the schedule on a
   fig6-style run) and the numeric diff behind the regression gate. *)

open Tmedb
open Tmedb_prelude
module Clock = Tmedb_report.Clock
module Provenance = Tmedb_report.Provenance
module Ledger = Tmedb_report.Ledger
module Diff = Tmedb_report.Diff

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let alg name =
  match Experiment.algorithm_of_string name with
  | Ok a -> a
  | Error e -> Alcotest.fail e

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Both the telemetry registry and the provenance sink are
   process-global; run each test from a clean state and leave
   recording off for whoever runs next. *)
let scrubbed f () =
  Tmedb_obs.reset ();
  Provenance.reset ();
  Tmedb_obs.set_enabled true;
  Provenance.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Tmedb_obs.set_enabled false;
      Provenance.set_enabled false;
      Tmedb_obs.reset ();
      Provenance.reset ())

(* ------------------------------------------------------------------ *)
(* Clock *)

let test_clock_format () =
  let s = Clock.now_iso8601 () in
  check_int "length" 20 (String.length s);
  List.iter
    (fun (i, c) -> check_bool (Printf.sprintf "separator at %d" i) true (s.[i] = c))
    [ (4, '-'); (7, '-'); (10, 'T'); (13, ':'); (16, ':'); (19, 'Z') ];
  String.iteri
    (fun i c ->
      if not (List.mem i [ 4; 7; 10; 13; 16; 19 ]) then
        check_bool (Printf.sprintf "digit at %d" i) true (c >= '0' && c <= '9'))
    s

(* ------------------------------------------------------------------ *)
(* Provenance: sink semantics and JSON round-trip *)

let sample_events =
  [
    Provenance.Stage { stage = "dts"; detail = "12 points" };
    Provenance.Schedule_entry
      {
        node = 3;
        time = 120.5;
        cost = 2.25;
        point_idx = 1;
        level_idx = 0;
        covered = [ 1; 4; 7 ];
        tree_edge = Some (5, 9);
      };
    Provenance.Schedule_entry
      {
        node = 0;
        time = 0.;
        cost = 0.5;
        point_idx = 0;
        level_idx = 2;
        covered = [];
        tree_edge = None;
      };
    Provenance.Expansion { vertex = 17; terminals = 4 };
    Provenance.Allocation { relay = 3; time = 120.5; backbone_cost = 2.25; allocated_cost = 1.75 };
  ]

let test_provenance_sink =
  scrubbed @@ fun () ->
  Provenance.set_enabled false;
  Provenance.emit (List.hd sample_events);
  check_bool "disabled emit is a no-op" true (Provenance.events () = []);
  Provenance.set_enabled true;
  List.iter Provenance.emit sample_events;
  check_bool "events kept in emission order" true (Provenance.events () = sample_events);
  Provenance.reset ();
  check_bool "reset clears the sink" true (Provenance.events () = [])

(* The sink takes no lock: four domains pushing at once must lose no
   event, and each domain's events must come back in its own order. *)
let test_provenance_concurrent_emit =
  scrubbed @@ fun () ->
  let per_domain = 5_000 in
  let emitter d () =
    for i = 0 to per_domain - 1 do
      Provenance.emit (Provenance.Expansion { vertex = d; terminals = i })
    done
  in
  List.iter Domain.join (List.init 4 (fun d -> Domain.spawn (emitter d)));
  let events = Provenance.events () in
  check_int "every event recorded" (4 * per_domain) (List.length events);
  for d = 0 to 3 do
    let order =
      List.filter_map
        (function
          | Provenance.Expansion { vertex; terminals } when vertex = d -> Some terminals
          | _ -> None)
        events
    in
    check_bool (Printf.sprintf "domain %d in emission order" d) true
      (order = List.init per_domain Fun.id)
  done

let test_provenance_json_round_trip () =
  List.iter
    (fun e ->
      match Provenance.of_json (Provenance.to_json e) with
      | Ok e' -> check_bool "event round-trips" true (e = e')
      | Error msg -> Alcotest.fail msg)
    sample_events;
  match Provenance.of_json (Json.Obj [ ("kind", Json.Str "nonsense") ]) with
  | Ok _ -> Alcotest.fail "unknown kind must not parse"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Ledger: deterministic projection, write/load round-trip *)

let test_ledger_round_trip =
  scrubbed @@ fun () ->
  Tmedb_obs.Counter.add (Tmedb_obs.Counter.make "test.report.counter") 7;
  Tmedb_obs.Counter.add (Tmedb_obs.Counter.make "pool.fake") 5;
  ignore (Tmedb_obs.Timer.time (Tmedb_obs.Timer.make "test.report.timer") (fun () -> ()));
  Tmedb_obs.Histogram.observe (Tmedb_obs.Histogram.make "test.report.hist") 9;
  let ledger =
    Ledger.make ~timestamp:"2026-01-01T00:00:00Z"
      ~config:[ ("zeta", Json.Num 1.); ("alpha", Json.Str "x") ]
      ~input_digest:(Ledger.digest_string "instance")
      ~summary:[ ("energy", Json.Num 12.5) ]
      ~snapshot:(Tmedb_obs.snapshot ()) ~provenance:sample_events
      ~schedule:[ { Ledger.relay = 3; time = 120.5; cost = 2.25 } ]
      ()
  in
  (* The metrics projection keeps only run-to-run stable material. *)
  let metrics_keys = List.map fst (Diff.flatten ledger.Ledger.metrics) in
  check_bool "pool.* entries excluded" true
    (not (List.exists (fun k -> contains k "pool.") metrics_keys));
  check_bool "wall-clock seconds excluded" true
    (not (List.exists (fun k -> contains k "seconds") metrics_keys));
  check_bool "allocation words excluded" true
    (not (List.exists (fun k -> contains k "words") metrics_keys));
  check_bool "counter kept" true (List.mem "counters.test.report.counter" metrics_keys);
  check_bool "timer hits kept" true (List.mem "timer_hits.test.report.timer" metrics_keys);
  check_bool "histogram summary kept" true
    (List.mem "histograms.test.report.hist.p50" metrics_keys);
  (* Config keys are emitted sorted regardless of construction order. *)
  (match Json.member "config" (Ledger.to_json ledger) with
  | Some (Json.Obj kvs) -> check_bool "config keys sorted" true (List.map fst kvs = [ "alpha"; "zeta" ])
  | _ -> Alcotest.fail "config object missing");
  let path = Filename.temp_file "tmedb_ledger" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Ledger.write ledger ~path;
  let read () = In_channel.with_open_bin path In_channel.input_all in
  let first = read () in
  Ledger.write ledger ~path;
  check_string "write is byte-deterministic" first (read ());
  match Ledger.load ~path with
  | Error e -> Alcotest.fail ("ledger does not load: " ^ e)
  | Ok reparsed ->
      check_string "load inverts write"
        (Json.to_string (Ledger.to_json ledger))
        (Json.to_string (Ledger.to_json reparsed))

(* ------------------------------------------------------------------ *)
(* Ledger byte-identical across worker counts.  Mirrors the CLI's
   --ledger assembly: one (FR-)EEDCB pipeline run on the calling
   domain, Monte-Carlo replay fanned out on the pool. *)

let small_config =
  {
    Experiment.default_config with
    Experiment.n = 10;
    horizon = 5000.;
    deadline = 1200.;
    sources = 1;
    mc_trials = 40;
    dts_cap = 400;
  }

let ledger_at ~trace k =
  Tmedb_obs.reset ();
  Provenance.reset ();
  let config = small_config in
  let result =
    Experiment.run_alg config ~trace ~source:0 ~deadline:1200. ~rng:(Rng.create 5)
      (alg "EEDCB")
  in
  let eval = Experiment.make_problem config ~trace ~channel:`Rayleigh ~source:0 ~deadline:1200. in
  let sim pool =
    Simulate.run ~trials:40 ?pool ~rng:(Rng.create 6) ~eval_channel:`Rayleigh eval
      result.Experiment.schedule
  in
  let s = if k = 1 then sim None else Pool.with_pool ~num_domains:k (fun pool -> sim (Some pool)) in
  let schedule =
    List.map
      (fun (tx : Schedule.transmission) ->
        { Ledger.relay = tx.Schedule.relay; time = tx.Schedule.time; cost = tx.Schedule.cost })
      (Schedule.transmissions result.Experiment.schedule)
  in
  let doc =
    Ledger.make
      ~config:[ ("algorithm", Json.Str "EEDCB"); ("seed", Json.Num 5.) ]
      ~input_digest:(Ledger.digest_string "fixed-instance")
      ~summary:
        [
          ("energy", Json.Num result.Experiment.energy);
          ("delivery_ratio", Json.Num s.Simulate.delivery_ratio);
        ]
      ~snapshot:(Tmedb_obs.snapshot ())
      ~provenance:(Provenance.events ())
      ~schedule ()
  in
  Json.to_string ~indent:2 (Ledger.to_json doc)

let test_ledger_jobs_invariant =
  scrubbed @@ fun () ->
  let trace = Experiment.make_trace small_config ~n:small_config.Experiment.n in
  match List.map (ledger_at ~trace) [ 1; 2; 4 ] with
  | reference :: rest ->
      check_bool "ledger non-trivial" true (String.length reference > 500);
      List.iteri
        (fun i other ->
          check_string (Printf.sprintf "byte-identical ledger (variant %d)" i) reference other)
        rest
  | [] -> ()

(* ------------------------------------------------------------------ *)
(* Provenance completeness: on a fig6-style run, every schedule entry
   is explained — exactly one Schedule_entry per EEDCB transmission,
   an Allocation per FR transmission — which is what backs
   [tmedb report explain]. *)

let test_provenance_completeness =
  scrubbed @@ fun () ->
  let config = small_config in
  let trace = Experiment.make_trace config ~n:config.Experiment.n in
  let run algorithm =
    Provenance.reset ();
    let result =
      Experiment.run_alg config ~trace ~source:0 ~deadline:1200. ~rng:(Rng.create 5) algorithm
    in
    (Schedule.transmissions result.Experiment.schedule, Provenance.events ())
  in
  (* EEDCB: backbone pipeline stages plus one Schedule_entry per
     transmission, field-consistent with the schedule. *)
  let txs, events = run (alg "EEDCB") in
  check_bool "EEDCB schedule non-empty" true (txs <> []);
  let stages =
    List.filter_map (function Provenance.Stage { stage; _ } -> Some stage | _ -> None) events
  in
  List.iter
    (fun s -> check_bool (Printf.sprintf "stage %S recorded" s) true (List.mem s stages))
    [ "planner"; "dts"; "aux_graph"; "dst"; "prune" ];
  (* The planner stage names the planner that was selected (satellite of
     the registry refactor: every run is attributable to a planner). *)
  let planner_details =
    List.filter_map
      (function
        | Provenance.Stage { stage = "planner"; detail } -> Some detail | _ -> None)
      events
  in
  check_bool "planner stage names EEDCB" true (List.mem "EEDCB" planner_details);
  List.iter
    (fun (tx : Schedule.transmission) ->
      let matching =
        List.filter_map
          (function
            | Provenance.Schedule_entry { node; time; cost; covered; _ }
              when node = tx.Schedule.relay && Float.equal time tx.Schedule.time ->
                Some (cost, covered)
            | _ -> None)
          events
      in
      match matching with
      | [ (cost, covered) ] ->
          check_bool "entry cost matches the schedule" true (Float.equal cost tx.Schedule.cost);
          check_bool "covered set sorted and unique" true
            (covered = List.sort_uniq Int.compare covered)
      | [] -> Alcotest.fail (Printf.sprintf "transmission by %d unexplained" tx.Schedule.relay)
      | _ -> Alcotest.fail (Printf.sprintf "transmission by %d multiply explained" tx.Schedule.relay))
    txs;
  (* FR-EEDCB: every surviving transmission carries its allocation
     decision, with the allocated cost the schedule actually uses. *)
  let txs, events = run (alg "FR-EEDCB") in
  check_bool "FR-EEDCB schedule non-empty" true (txs <> []);
  let planner_details =
    List.filter_map
      (function
        | Provenance.Stage { stage = "planner"; detail } -> Some detail | _ -> None)
      events
  in
  check_bool "planner stage names FR-EEDCB" true (List.mem "FR-EEDCB" planner_details);
  List.iter
    (fun (tx : Schedule.transmission) ->
      let allocated =
        List.exists
          (function
            | Provenance.Allocation { relay; time; allocated_cost; _ } ->
                relay = tx.Schedule.relay
                && Float.equal time tx.Schedule.time
                && Float.equal allocated_cost tx.Schedule.cost
            | _ -> false)
          events
      in
      check_bool
        (Printf.sprintf "FR transmission by %d has its allocation" tx.Schedule.relay)
        true allocated)
    txs

(* ------------------------------------------------------------------ *)
(* Pareto ledger: round-trip, deadline-keyed points, Diff paths *)

let sample_pareto_points =
  [
    {
      Ledger.Pareto.deadline = 2000.;
      energy = 939.8;
      transmissions = 9;
      feasible = true;
      unreached = 0;
      dominated = true;
    };
    {
      Ledger.Pareto.deadline = 4000.;
      energy = 616.3;
      transmissions = 11;
      feasible = true;
      unreached = 0;
      dominated = false;
    };
  ]

let test_pareto_ledger_round_trip =
  scrubbed @@ fun () ->
  Tmedb_obs.Counter.add (Tmedb_obs.Counter.make "test.pareto.counter") 3;
  let doc =
    Ledger.Pareto.make ~timestamp:"2026-01-01T00:00:00Z"
      ~config:[ ("grid", Json.Str "2000:4000:2000"); ("algorithm", Json.Str "EEDCB") ]
      ~input_digest:(Ledger.digest_string "instance")
      ~points:sample_pareto_points ~front:[ 4000. ]
      ~snapshot:(Tmedb_obs.snapshot ()) ()
  in
  check_string "schema tag" "tmedb.pareto/1" Ledger.Pareto.schema;
  check_string "integral deadline key" "2000" (Ledger.Pareto.deadline_key 2000.);
  (* Points are keyed by the canonical deadline string, config sorted. *)
  (match Json.member "points" (Ledger.Pareto.to_json doc) with
  | Some (Json.Obj kvs) ->
      check_bool "points keyed by deadline" true (List.map fst kvs = [ "2000"; "4000" ])
  | _ -> Alcotest.fail "points object missing");
  (match Json.member "config" (Ledger.Pareto.to_json doc) with
  | Some (Json.Obj kvs) ->
      check_bool "config keys sorted" true (List.map fst kvs = [ "algorithm"; "grid" ])
  | _ -> Alcotest.fail "config object missing");
  (* Diff flattens a sweep into stable per-point dotted paths, so
     `report diff` works on pareto ledgers unchanged. *)
  let keys = List.map fst (Diff.flatten (Ledger.Pareto.to_json doc)) in
  List.iter
    (fun k -> check_bool ("flattened path " ^ k) true (List.mem k keys))
    [
      "points.2000.energy";
      "points.2000.unreached";
      "points.4000.transmissions";
      "front[0]";
      "metrics.counters.test.pareto.counter";
    ];
  let path = Filename.temp_file "tmedb_pareto" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Ledger.Pareto.write doc ~path;
  let read () = In_channel.with_open_bin path In_channel.input_all in
  let first = read () in
  Ledger.Pareto.write doc ~path;
  check_string "write is byte-deterministic" first (read ());
  match Ledger.Pareto.load ~path with
  | Error e -> Alcotest.fail ("pareto ledger does not load: " ^ e)
  | Ok reparsed ->
      check_string "load inverts write"
        (Json.to_string (Ledger.Pareto.to_json doc))
        (Json.to_string (Ledger.Pareto.to_json reparsed))

(* ------------------------------------------------------------------ *)
(* Diff: flattening, change detection, threshold gate *)

let test_diff_semantics () =
  let a =
    Json.Obj
      [
        ("x", Json.Num 10.);
        ("nested", Json.Obj [ ("y", Json.Num 2.) ]);
        ("list", Json.List [ Json.Num 1.; Json.Num 2. ]);
        ("label", Json.Str "ignored");
        ("gone", Json.Num 5.);
      ]
  in
  let b =
    Json.Obj
      [
        ("x", Json.Num 10.4);
        ("nested", Json.Obj [ ("y", Json.Num 2.) ]);
        ("list", Json.List [ Json.Num 1.; Json.Num 3. ]);
        ("label", Json.Str "different");
        ("fresh", Json.Num 1.);
      ]
  in
  let deltas = Diff.diff a b in
  let keys = List.map (fun d -> d.Diff.key) deltas in
  check_bool "keys sorted" true (keys = List.sort String.compare keys);
  check_bool "non-numeric leaves ignored" true (not (List.mem "label" keys));
  check_bool "list indices flattened" true (List.mem "list[1]" keys);
  let changed_keys = List.map (fun d -> d.Diff.key) (List.filter Diff.changed deltas) in
  check_bool "changed = one-sided + moved" true
    (changed_keys = [ "fresh"; "gone"; "list[1]"; "x" ]);
  (* x moved 4%: below a 5% gate, above a 1% gate; one-sided keys and
     the 50% list move always trip. *)
  check_int "5% gate" 3 (List.length (Diff.exceeding ~threshold:0.05 deltas));
  check_int "1% gate" 4 (List.length (Diff.exceeding ~threshold:0.01 deltas));
  (match List.find_opt (fun d -> d.Diff.key = "nested.y") deltas with
  | Some d -> check_bool "equal leaf has zero relative change" true (Diff.rel_change d = Some 0.)
  | None -> Alcotest.fail "nested.y not compared");
  let rendered = Diff.render ~threshold:0.05 deltas in
  check_bool "render marks gate-tripping keys" true (contains rendered "! ");
  check_bool "render names the moved key" true (contains rendered "list[1]");
  match Json.member "threshold" (Diff.to_json ~threshold:0.05 deltas) with
  | Some (Json.Num t) -> check_bool "machine report carries the threshold" true (Float.equal t 0.05)
  | _ -> Alcotest.fail "threshold missing from machine report"

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "report"
    [
      ("clock", [ tc "iso8601 shape" test_clock_format ]);
      ( "provenance",
        [
          tc "sink gating and order" test_provenance_sink;
          tc "json round-trip" test_provenance_json_round_trip;
          tc "completeness on a fig6-style run" test_provenance_completeness;
          tc "concurrent emits from four domains" test_provenance_concurrent_emit;
        ] );
      ( "ledger",
        [
          tc "round-trip and deterministic projection" test_ledger_round_trip;
          tc "byte-identical across worker counts" test_ledger_jobs_invariant;
          tc "pareto sweep ledger round-trip and diff paths" test_pareto_ledger_round_trip;
        ] );
      ("diff", [ tc "flatten/diff/gate semantics" test_diff_semantics ]);
    ]
