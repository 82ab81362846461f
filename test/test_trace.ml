(* Tests for tmedb_trace: contacts, traces + CSV round-trip, the
   Haggle-like synthetic generator and random-waypoint mobility. *)

open Tmedb_prelude
open Tmedb_trace
open Tmedb_tveg

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let iv lo hi = Interval.make ~lo ~hi

(* ------------------------------------------------------------------ *)
(* Contact *)

let test_contact_normalizes () =
  let c = Contact.make ~a:5 ~b:2 ~iv:(iv 1. 3.) ~dist:10. in
  check_int "a" 2 c.Contact.a;
  check_int "b" 5 c.Contact.b;
  Alcotest.(check (float 0.)) "duration" 2. (Contact.duration c)

let test_contact_validation () =
  Alcotest.check_raises "self" (Invalid_argument "Contact.make: self-contact") (fun () ->
      ignore (Contact.make ~a:1 ~b:1 ~iv:(iv 0. 1.) ~dist:1.));
  Alcotest.check_raises "distance" (Invalid_argument "Contact.make: non-positive distance")
    (fun () -> ignore (Contact.make ~a:0 ~b:1 ~iv:(iv 0. 1.) ~dist:0.));
  Alcotest.check_raises "NaN distance" (Invalid_argument "Contact.make: non-finite distance")
    (fun () -> ignore (Contact.make ~a:0 ~b:1 ~iv:(iv 0. 1.) ~dist:Float.nan))

(* Scanf's %f reads an out-of-range literal as ±∞: the loader must
   reject it at the line, not hand an infinite distance to the
   planners. *)
let test_csv_infinite_distance () =
  List.iter
    (fun (dist, message) ->
      match Trace.of_csv (Printf.sprintf "0,1,10,3000,%s\n" dist) with
      | Error e ->
          Alcotest.(check string) dist ("line 1: Contact.make: " ^ message) e
      | Ok _ -> Alcotest.fail ("accepted distance " ^ dist))
    [ ("1e400", "non-finite distance"); ("-1e400", "non-positive distance") ]

let test_contact_ends () =
  let c = Contact.make ~a:1 ~b:4 ~iv:(iv 0. 1.) ~dist:1. in
  check_bool "involves" true (Contact.involves c 4);
  check_bool "not involves" false (Contact.involves c 2);
  check_int "other end" 1 (Contact.other_end c 4)

(* ------------------------------------------------------------------ *)
(* Trace *)

let sample_trace () =
  Trace.make ~n:4 ~span:(iv 0. 100.)
    [
      Contact.make ~a:0 ~b:1 ~iv:(iv 10. 20.) ~dist:5.;
      Contact.make ~a:0 ~b:1 ~iv:(iv 40. 50.) ~dist:7.;
      Contact.make ~a:2 ~b:3 ~iv:(iv 5. 95.) ~dist:12.;
    ]

let test_trace_sorted () =
  let t = sample_trace () in
  let starts = List.map (fun c -> c.Contact.iv.Interval.lo) (Trace.contacts t) in
  Alcotest.(check (list (float 0.))) "sorted by start" [ 5.; 10.; 40. ] starts

let test_trace_validation () =
  Alcotest.check_raises "node range" (Invalid_argument "Trace.make: contact node out of range")
    (fun () ->
      ignore
        (Trace.make ~n:2 ~span:(iv 0. 10.) [ Contact.make ~a:0 ~b:5 ~iv:(iv 0. 1.) ~dist:1. ]))

let test_trace_restrict () =
  let t = sample_trace () in
  let r = Trace.restrict t ~span:(iv 15. 45.) in
  check_int "clipped count" 3 (Trace.num_contacts r);
  List.iter
    (fun c -> check_bool "inside window" true (Interval.contains (iv 15. 45.) c.Contact.iv))
    (Trace.contacts r)

(* The trace's presence graph, as the sparse store builds it. *)
let test_trace_presence () =
  let g = Tveg.of_trace ~tau:0. (sample_trace ()) in
  let present i j t = Tveg.rho_tau g i j t in
  check_bool "0-1 at 15" true (present 0 1 15.);
  check_bool "0-1 at 30" false (present 0 1 30.);
  check_bool "2-3 at 50" true (present 2 3 50.)

let test_csv_roundtrip () =
  let t = sample_trace () in
  match Trace.of_csv (Trace.to_csv t) with
  | Error e -> Alcotest.fail e
  | Ok t' ->
      check_int "n" (Trace.n t) (Trace.n t');
      check_int "contacts" (Trace.num_contacts t) (Trace.num_contacts t');
      List.iter2
        (fun a b ->
          check_bool "same contact" true
            (a.Contact.a = b.Contact.a && a.Contact.b = b.Contact.b
            && Interval.equal a.Contact.iv b.Contact.iv
            && a.Contact.dist = b.Contact.dist))
        (Trace.contacts t) (Trace.contacts t')

let test_csv_headerless () =
  let body = "0,1,2.0,3.0,7.5\n2,3,1.0,9.0,12.0\n" in
  match Trace.of_csv body with
  | Error e -> Alcotest.fail e
  | Ok t ->
      check_int "derived n" 4 (Trace.n t);
      check_int "contacts" 2 (Trace.num_contacts t)

let test_csv_bad_line () =
  match Trace.of_csv "0,1,notanumber,3,1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error"

let test_csv_comments_and_blanks () =
  let body = "# a comment\n\n0,1,1.0,2.0,3.0\n" in
  match Trace.of_csv body with
  | Error e -> Alcotest.fail e
  | Ok t -> check_int "one contact" 1 (Trace.num_contacts t)

(* A line opening with the header marker is a header or an error that
   names the line, never a comment: as a comment, the declared node
   count and span would give way to ones derived from the contacts. *)
let test_csv_malformed_header () =
  List.iter
    (fun (body, line) ->
      match Trace.of_csv body with
      | Ok _ -> Alcotest.fail ("accepted " ^ String.escaped body)
      | Error e -> check_bool e true (String.starts_with ~prefix:line e))
    [
      ("# tmedb-trace n=3 span=nan,10\n0,1,0,5,10\n", "line 1:");
      ("# tmedb-trace n=3 span=0,inf\n0,1,0,5,10\n", "line 1:");
      ("# tmedb-trace n=3 span=0,1e400\n0,1,0,5,10\n", "line 1:");
      ("# a comment\n# tmedb-trace n=x span=0,10\n0,1,0,5,10\n", "line 2:");
      ("# tmedb-trace\n0,1,0,5,10\n", "line 1:");
    ];
  match Trace.of_csv "# tmedb-trace n=3 span=0,10\n0,1,0,5,10\n" with
  | Error e -> Alcotest.fail e
  | Ok t ->
      check_int "declared n" 3 (Trace.n t);
      check_bool "declared span" true (Interval.equal (iv 0. 10.) (Trace.span t))

(* Each header-boundary fault is an error that names its line. *)
let check_csv_error body line fragment =
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  match Trace.of_csv body with
  | Ok _ -> Alcotest.fail ("accepted " ^ String.escaped body)
  | Error e -> check_bool e true (String.starts_with ~prefix:line e && contains e fragment)

let test_csv_header_trailing_text () =
  check_csv_error "# tmedb-trace n=3 span=0,10 junk\n0,1,0,5,10\n" "line 1:" "trailing text";
  check_csv_error "# tmedb-trace n=3 span=0,10junk\n0,1,0,5,10\n" "line 1:" "trailing text"

let test_csv_repeated_header () =
  check_csv_error "# tmedb-trace n=3 span=0,10\n0,1,0,5,10\n\n# tmedb-trace n=4 span=0,20\n"
    "line 4:" "first on line 1"

let test_csv_header_nonpositive_n () =
  List.iter
    (fun n ->
      check_csv_error
        (Printf.sprintf "# a comment\n# tmedb-trace n=%d span=0,10\n" n)
        "line 2:" "n must be positive")
    [ 0; -2 ]

(* With a header, the contacts must fit it: a node id at or above n,
   or an interval leaving the span, is an error at that contact's
   line, wherever the header sits. *)
let test_csv_contact_outside_header () =
  check_csv_error "# tmedb-trace n=3 span=0,10\n0,1,0,5,10\n1,3,2,4,10\n" "line 3:"
    "node 3 out of range for n=3";
  check_csv_error "0,1,0,5,10\n0,2,8,12,10\n# tmedb-trace n=3 span=0,10\n" "line 2:"
    "outside the declared span";
  check_csv_error "# tmedb-trace n=3 span=5,10\n0,1,4,6,10\n" "line 2:"
    "outside the declared span";
  match Trace.of_csv "0,1,0,5,10\n# tmedb-trace n=3 span=0,10\n" with
  | Error e -> Alcotest.fail e
  | Ok t -> check_int "header after contacts" 3 (Trace.n t)

let test_save_load () =
  let t = sample_trace () in
  let path = Filename.temp_file "tmedb" ".csv" in
  Trace.save t ~path;
  (match Trace.load ~path with
  | Error e -> Alcotest.fail e
  | Ok t' -> check_int "same" (Trace.num_contacts t) (Trace.num_contacts t'));
  Sys.remove path

let test_trace_stats () =
  let s = Trace.stats (sample_trace ()) in
  check_int "contacts" 3 s.Trace.num_contacts;
  check_int "pairs" 2 s.Trace.pairs_with_contact;
  (* One gap: [20, 40) on pair 0-1. *)
  Alcotest.(check (float 1e-9)) "gap" 20. s.Trace.mean_inter_contact;
  Alcotest.(check (float 1e-9)) "mean duration" (110. /. 3.) s.Trace.mean_duration

(* [Trace.stats] folds inter-contact gaps in sorted pair order (the
   lint-R1 rewrite), so the result must be bit-identical no matter how
   the contact list was ordered when the trace was built. *)
let test_trace_stats_order_invariant () =
  let contacts =
    List.concat_map
      (fun (a, b) ->
        List.map
          (fun (lo, hi) -> Contact.make ~a ~b ~iv:(iv lo hi) ~dist:(10. +. float_of_int (a + b)))
          [ (0., 10.); (25., 40.); (55., 70.) ])
      [ (0, 1); (1, 2); (0, 3); (2, 3); (1, 4) ]
  in
  let stats_of cs = Trace.stats (Trace.make ~n:5 ~span:(iv 0. 100.) cs) in
  let reference = stats_of contacts in
  List.iter
    (fun cs -> check_bool "permuted contacts, same stats" true (stats_of cs = reference))
    [ List.rev contacts; List.sort (fun a b -> compare b a) contacts ]

(* ------------------------------------------------------------------ *)
(* Synth *)

let test_synth_deterministic () =
  let p = Synth.default_params in
  let a = Synth.generate (Rng.create 5) p in
  let b = Synth.generate (Rng.create 5) p in
  check_int "same count" (Trace.num_contacts a) (Trace.num_contacts b);
  check_bool "same csv" true (Trace.to_csv a = Trace.to_csv b)

let test_synth_within_bounds () =
  let p = { Synth.default_params with Synth.n = 10; horizon = 5000. } in
  let t = Synth.generate (Rng.create 9) p in
  check_int "n" 10 (Trace.n t);
  List.iter
    (fun c ->
      check_bool "in span" true (Interval.contains (iv 0. 5000.) c.Contact.iv);
      check_bool "distance range" true
        (p.Synth.dist_lo <= c.Contact.dist && c.Contact.dist <= p.Synth.dist_hi))
    (Trace.contacts t)

let test_synth_no_pair_overlap () =
  let t = Synth.generate (Rng.create 3) { Synth.default_params with Synth.n = 6 } in
  let by_pair = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let key = (c.Contact.a, c.Contact.b) in
      Hashtbl.replace by_pair key
        (c :: Option.value ~default:[] (Hashtbl.find_opt by_pair key)))
    (Trace.contacts t);
  Hashtbl.iter
    (fun _ cs ->
      let sorted = List.sort Contact.compare_by_start cs in
      let rec walk = function
        | x :: (y :: _ as rest) ->
            check_bool "no overlap within pair" true
              (x.Contact.iv.Interval.hi <= y.Contact.iv.Interval.lo);
            walk rest
        | _ -> ()
      in
      walk sorted)
    by_pair

let test_synth_heavy_tail () =
  (* Inter-contact gaps should be right-skewed: mean well above median. *)
  let t = Synth.generate (Rng.create 1) Synth.default_params in
  let s = Trace.stats t in
  check_bool "skewed gaps" true (s.Trace.mean_inter_contact > 1.2 *. s.Trace.median_inter_contact)

let test_synth_density_profile () =
  (* A profile of 0 suppresses every contact; 1 keeps the process. *)
  let base = { Synth.default_params with Synth.n = 8; horizon = 4000. } in
  let none =
    Synth.generate (Rng.create 2) { base with Synth.density_profile = Some (fun _ -> 0.) }
  in
  check_int "all suppressed" 0 (Trace.num_contacts none);
  let all = Synth.generate (Rng.create 2) { base with Synth.density_profile = Some (fun _ -> 1.) } in
  check_bool "kept" true (Trace.num_contacts all > 0)

let test_synth_ramp_profile () =
  Alcotest.(check (float 1e-9)) "before" 0.25 (Synth.ramp_profile ~t0:10. ~t1:20. ~low:0.25 5.);
  Alcotest.(check (float 1e-9)) "after" 1. (Synth.ramp_profile ~t0:10. ~t1:20. ~low:0.25 25.);
  Alcotest.(check (float 1e-9)) "middle" 0.625 (Synth.ramp_profile ~t0:10. ~t1:20. ~low:0.25 15.)

let test_synth_ramp_raises_late_degree () =
  let profile = Synth.ramp_profile ~t0:5000. ~t1:8000. ~low:0.2 in
  let p = { Synth.default_params with Synth.density_profile = Some profile } in
  let t = Synth.generate (Rng.create 4) p in
  let g = Tveg.of_trace ~tau:0. t in
  let early = Tveg.average_degree_over g ~window:(iv 0. 5000.) in
  let late = Tveg.average_degree_over g ~window:(iv 9000. 14000.) in
  check_bool "degree ramps up" true (late > 1.5 *. early)

let test_synth_validation () =
  Alcotest.check_raises "n too small" (Invalid_argument "Synth.generate: need n >= 2") (fun () ->
      ignore (Synth.generate (Rng.create 0) { Synth.default_params with Synth.n = 1 }))

(* A NaN horizon used to spin the renewal loop forever, an infinite one
   to grow the contact list without bound. *)
let test_synth_nonfinite_horizon () =
  List.iter
    (fun horizon ->
      Alcotest.check_raises (Printf.sprintf "horizon %g" horizon)
        (Invalid_argument "Synth.generate: horizon not positive and finite") (fun () ->
          ignore (Synth.generate (Rng.create 0) { Synth.default_params with Synth.horizon })))
    [ Float.nan; Float.infinity ]

(* A huge finite horizon used to run for hours: the worst-case contact
   count is checked against the ceiling before any work. *)
let test_synth_huge_horizon () =
  let p = { (Synth.with_n Synth.default_params 4) with Synth.horizon = 1e12 } in
  match Synth.generate (Rng.create 0) p with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      check_bool "names the ceiling" true
        (String.starts_with ~prefix:"Synth.generate: up to 8.45e+10 contacts" msg)

(* ------------------------------------------------------------------ *)
(* Mobility *)

let test_mobility_deterministic () =
  let p = { Mobility.default_params with Mobility.n = 6; horizon = 1000. } in
  let a = Mobility.generate (Rng.create 8) p in
  let b = Mobility.generate (Rng.create 8) p in
  check_bool "same csv" true (Trace.to_csv a = Trace.to_csv b)

let test_mobility_bounds () =
  let p = { Mobility.default_params with Mobility.n = 6; horizon = 1000. } in
  let t = Mobility.generate (Rng.create 8) p in
  List.iter
    (fun c ->
      check_bool "in span" true (Interval.contains (iv 0. 1000.) c.Contact.iv);
      check_bool "distance < range" true (c.Contact.dist < p.Mobility.range))
    (Trace.contacts t)

let test_mobility_positions_in_arena () =
  let p = Mobility.default_params in
  let pos = Mobility.positions_at (Rng.create 2) p 500. in
  check_int "all nodes" p.Mobility.n (Array.length pos);
  Array.iter
    (fun (x, y) ->
      check_bool "x in arena" true (0. <= x && x <= p.Mobility.arena);
      check_bool "y in arena" true (0. <= y && y <= p.Mobility.arena))
    pos

let test_mobility_produces_contacts () =
  (* A dense small arena must produce contacts. *)
  let p = { Mobility.default_params with Mobility.n = 8; arena = 100.; horizon = 2000. } in
  let t = Mobility.generate (Rng.create 12) p in
  check_bool "has contacts" true (Trace.num_contacts t > 0)

(* Either non-finite horizon used to grow the trajectories without
   bound. *)
let test_mobility_nonfinite_horizon () =
  List.iter
    (fun horizon ->
      Alcotest.check_raises (Printf.sprintf "horizon %g" horizon)
        (Invalid_argument "Mobility.generate: bad horizon/arena") (fun () ->
          ignore (Mobility.generate (Rng.create 0) { Mobility.default_params with Mobility.horizon })))
    [ Float.nan; Float.infinity ]

let test_mobility_huge_horizon () =
  let p = { Mobility.default_params with Mobility.n = 4; horizon = 1e12 } in
  match Mobility.generate (Rng.create 0) p with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      check_bool "names the ceiling" true
        (String.starts_with ~prefix:"Mobility.generate: 8e+11 position samples" msg)

let test_mobility_validation () =
  Alcotest.check_raises "range vs arena" (Invalid_argument "Mobility.generate: bad range")
    (fun () ->
      ignore
        (Mobility.generate (Rng.create 0)
           { Mobility.default_params with Mobility.range = 1000. }))

(* Property: synthetic traces always make valid Trace values (round
   trip through CSV preserves counts). *)
let prop_synth_csv_roundtrip =
  QCheck.Test.make ~name:"synthetic trace csv roundtrip" ~count:20
    (QCheck.make (QCheck.Gen.int_range 0 1_000_000)) (fun seed ->
      let p = { Synth.default_params with Synth.n = 5; horizon = 2000. } in
      let t = Synth.generate (Rng.create seed) p in
      match Trace.of_csv (Trace.to_csv t) with
      | Error _ -> false
      | Ok t' -> Trace.num_contacts t = Trace.num_contacts t')

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "trace"
    [
      ( "contact",
        [
          tc "normalizes" test_contact_normalizes;
          tc "validation" test_contact_validation;
          tc "ends" test_contact_ends;
        ] );
      ( "trace",
        [
          tc "sorted" test_trace_sorted;
          tc "validation" test_trace_validation;
          tc "restrict" test_trace_restrict;
          tc "to_tvg" test_trace_presence;
          tc "stats" test_trace_stats;
          tc "stats order-invariant" test_trace_stats_order_invariant;
        ] );
      ( "csv",
        [
          tc "roundtrip" test_csv_roundtrip;
          tc "headerless" test_csv_headerless;
          tc "bad line" test_csv_bad_line;
          tc "infinite distance" test_csv_infinite_distance;
          tc "comments/blanks" test_csv_comments_and_blanks;
          tc "malformed header" test_csv_malformed_header;
          tc "save/load" test_save_load;
          QCheck_alcotest.to_alcotest prop_synth_csv_roundtrip;
          tc "header trailing text" test_csv_header_trailing_text;
          tc "repeated header" test_csv_repeated_header;
          tc "header n <= 0" test_csv_header_nonpositive_n;
          tc "contact outside header" test_csv_contact_outside_header;
        ] );
      ( "synth",
        [
          tc "deterministic" test_synth_deterministic;
          tc "within bounds" test_synth_within_bounds;
          tc "no pair overlap" test_synth_no_pair_overlap;
          tc "heavy tail" test_synth_heavy_tail;
          tc "density profile" test_synth_density_profile;
          tc "ramp profile" test_synth_ramp_profile;
          tc "ramp raises degree" test_synth_ramp_raises_late_degree;
          tc "validation" test_synth_validation;
          tc "non-finite horizon" test_synth_nonfinite_horizon;
          tc "huge finite horizon" test_synth_huge_horizon;
        ] );
      ( "mobility",
        [
          tc "deterministic" test_mobility_deterministic;
          tc "bounds" test_mobility_bounds;
          tc "positions in arena" test_mobility_positions_in_arena;
          tc "produces contacts" test_mobility_produces_contacts;
          tc "validation" test_mobility_validation;
          tc "non-finite horizon" test_mobility_nonfinite_horizon;
          tc "huge finite horizon" test_mobility_huge_horizon;
        ] );
    ]
