(* Tests for tmedb_tveg: the TVEG model (Def. 3.2), discrete time sets
   (Section V) and discrete cost sets (Section VI-A). *)

open Tmedb_prelude
open Tmedb_channel
open Tmedb_tveg

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let iv lo hi = Interval.make ~lo ~hi
let link lo hi dist = { Tveg.iv = iv lo hi; dist }
let span10 = iv 0. 10.

(* 0--1 on [0,4) at 10 m and [6,8) at 20 m; 1--2 on [3,7) at 15 m. *)
let sample ?(tau = 0.) () =
  Tveg.create ~n:3 ~span:span10 ~tau
    [ (0, 1, link 0. 4. 10.); (0, 1, link 6. 8. 20.); (1, 2, link 3. 7. 15.) ]

(* ------------------------------------------------------------------ *)
(* Tveg *)

let test_tveg_links_sorted () =
  let g = sample () in
  let ls = Tveg.links g 1 0 in
  check_int "two contacts" 2 (List.length ls);
  match ls with
  | [ a; b ] -> check_bool "sorted" true (a.Tveg.iv.Interval.lo < b.Tveg.iv.Interval.lo)
  | _ -> Alcotest.fail "expected two links"

let test_tveg_dist_at () =
  let g = sample () in
  Alcotest.(check (option (float 0.))) "first contact" (Some 10.) (Tveg.dist_at g 0 1 2.);
  Alcotest.(check (option (float 0.))) "second contact" (Some 20.) (Tveg.dist_at g 0 1 7.);
  Alcotest.(check (option (float 0.))) "gap" None (Tveg.dist_at g 0 1 5.)

let test_tveg_rho_tau () =
  let g = sample ~tau:1. () in
  check_bool "fits" true (Tveg.rho_tau g 0 1 2.9);
  check_bool "overruns" false (Tveg.rho_tau g 0 1 3.5);
  Alcotest.(check (option (float 0.))) "dist honours tau" None (Tveg.dist_at g 0 1 3.5)

let test_tveg_ed_at () =
  let g = sample () in
  let phy = Phy.default in
  (match Tveg.ed_at g ~phy ~channel:`Static 0 1 2. with
  | Ed_function.Step { w_th } ->
      check_bool "threshold from distance" true
        (Futil.approx_eq w_th (Phy.min_cost phy ~dist:10.))
  | _ -> Alcotest.fail "expected step");
  (match Tveg.ed_at g ~phy ~channel:`Rayleigh 0 1 2. with
  | Ed_function.Rayleigh _ -> ()
  | _ -> Alcotest.fail "expected rayleigh");
  match Tveg.ed_at g ~phy ~channel:`Static 0 2 2. with
  | Ed_function.Absent -> ()
  | _ -> Alcotest.fail "expected absent"

let test_tveg_neighbors () =
  let g = sample () in
  Alcotest.(check (list (pair int (float 0.)))) "node 1 at 3.5"
    [ (0, 10.); (2, 15.) ]
    (Tveg.neighbors_at g 1 3.5)

let test_tveg_of_trace () =
  let open Tmedb_trace in
  let trace =
    Trace.make ~n:3 ~span:span10 [ Contact.make ~a:0 ~b:1 ~iv:(iv 1. 2.) ~dist:5. ]
  in
  let g = Tveg.of_trace ~tau:0. trace in
  Alcotest.(check (option (float 0.))) "dist carried" (Some 5.) (Tveg.dist_at g 0 1 1.5)

let test_tveg_adjacent_partition () =
  let g = sample () in
  Alcotest.(check (array (float 1e-9))) "P^ad_1" [| 0.; 3.; 4.; 6.; 7.; 8.; 10. |]
    (Tveg.adjacent_partition g 1)

let test_tveg_restrict () =
  let g = sample () in
  let r = Tveg.restrict g ~span:(iv 3. 7.) in
  Alcotest.(check (option (float 0.))) "clipped still there" (Some 10.) (Tveg.dist_at r 0 1 3.5);
  Alcotest.(check (option (float 0.))) "outside gone" None (Tveg.dist_at r 0 1 7.5)

let test_tveg_validation () =
  Alcotest.check_raises "bad distance" (Invalid_argument "Tveg.create: non-positive distance")
    (fun () -> ignore (Tveg.create ~n:2 ~span:span10 ~tau:0. [ (0, 1, link 0. 1. 0.) ]));
  Alcotest.check_raises "negative tau" (Invalid_argument "Tveg.create: negative tau") (fun () ->
      ignore (Tveg.create ~n:2 ~span:span10 ~tau:(-1.) []));
  List.iter
    (fun d ->
      Alcotest.check_raises
        (Printf.sprintf "distance %g" d)
        (Invalid_argument "Tveg.create: non-finite distance")
        (fun () -> ignore (Tveg.create ~n:2 ~span:span10 ~tau:0. [ (0, 1, link 0. 1. d) ])))
    [ Float.nan; Float.infinity ];
  Alcotest.check_raises "distance -inf" (Invalid_argument "Tveg.create: non-positive distance")
    (fun () ->
      ignore (Tveg.create ~n:2 ~span:span10 ~tau:0. [ (0, 1, link 0. 1. Float.neg_infinity) ]));
  List.iter
    (fun tau ->
      Alcotest.check_raises
        (Printf.sprintf "tau %g" tau)
        (Invalid_argument "Tveg.create: non-finite tau")
        (fun () -> ignore (Tveg.create ~n:2 ~span:span10 ~tau [])))
    [ Float.nan; Float.infinity ]

(* Model-based check of the contact store: random contact lists with
   overlapping records, shared endpoints and duplicate intervals, both
   τ = 0 and τ > 0.  The model is the raw record list: a pair's
   records, newest first, stably sorted by interval.  The distance at
   t is that of the first record containing t; the link is live at t
   when the union run of records containing t reaches past t + τ; the
   links are disjoint sorted pieces whose union is the records' union,
   each with the distance the model gives at its start.  Every query
   is probed at every record endpoint (and endpoint − τ) and just
   around it, on the graph and on a restriction of it. *)
let nbrs_equal = List.equal (fun (j, d) (j', d') -> j = j' && Float.equal d d')

let check_store_against_model ~n ~tau ~model g =
  let ok = ref true in
  let probes = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      List.iter
        (fun (l : Tveg.link) ->
          List.iter
            (fun e ->
              List.iter
                (fun x -> probes := x :: !probes)
                [ e; e -. tau; Float.pred e; Float.succ e; e -. 1e-3; e +. 1e-3 ])
            [ l.Tveg.iv.Interval.lo; l.Tveg.iv.Interval.hi ])
        (model i j)
    done
  done;
  let model_cover i j t = List.find_opt (fun (l : Tveg.link) -> Interval.mem l.Tveg.iv t) (model i j) in
  (* End of the union run containing t: follow covering records until
     an instant none covers. *)
  let rec run_end i j c =
    match List.filter (fun (l : Tveg.link) -> Interval.mem l.Tveg.iv c) (model i j) with
    | [] -> c
    | cover ->
        run_end i j
          (List.fold_left (fun m (l : Tveg.link) -> Float.max m l.Tveg.iv.Interval.hi) c cover)
  in
  let model_dist i j t =
    match model_cover i j t with
    | Some l when t +. tau < run_end i j t -> Some l.Tveg.dist
    | Some _ | None -> None
  in
  (* The live set is a union of [run start, run end − τ), so the
     earliest live instant from t is t itself or a later record
     start. *)
  let model_depart i j t =
    List.filter_map
      (fun (l : Tveg.link) ->
        let lo = l.Tveg.iv.Interval.lo in
        if lo > t then Some lo else None)
      (model i j)
    |> List.cons t
    |> List.sort Float.compare
    |> List.find_opt (fun c -> Option.is_some (model_dist i j c))
    |> Option.value ~default:Float.infinity
  in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let pieces = Tveg.links g i j in
        let ivs ls = List.map (fun (l : Tveg.link) -> l.Tveg.iv) ls in
        let rec disjoint = function
          | (a : Tveg.link) :: (b :: _ as rest) ->
              a.Tveg.iv.Interval.hi <= b.Tveg.iv.Interval.lo && disjoint rest
          | [ _ ] | [] -> true
        in
        if not (disjoint pieces) then ok := false;
        let union ls = Interval_set.of_list (ivs ls) in
        if not (Interval_set.equal (union (model i j)) (union pieces)) then ok := false;
        List.iter
          (fun (l : Tveg.link) ->
            match model_cover i j l.Tveg.iv.Interval.lo with
            | Some m when Float.equal m.Tveg.dist l.Tveg.dist -> ()
            | Some _ | None -> ok := false)
          pieces
      end
    done
  done;
  List.iter
    (fun t ->
      for i = 0 to n - 1 do
        let naive =
          List.filter_map
            (fun j -> if j = i then None else Option.map (fun d -> (j, d)) (model_dist i j t))
            (List.init n Fun.id)
        in
        let visited = ref [] in
        Tveg.iter_neighbors_at g i t (fun j d -> visited := (j, d) :: !visited);
        if not (nbrs_equal naive (List.rev !visited) && nbrs_equal naive (Tveg.neighbors_at g i t))
        then ok := false;
        Array.iteri
          (fun k j ->
            if not (Option.equal Float.equal (model_dist i j t) (Tveg.nth_dist_at g i k t)) then
              ok := false)
          (Tveg.neighbor_ids g i);
        for j = 0 to n - 1 do
          if i <> j then begin
            if not (Option.equal Float.equal (model_dist i j t) (Tveg.dist_at g i j t)) then
              ok := false;
            if Tveg.rho_tau g i j t <> Option.is_some (model_dist i j t) then ok := false;
            if not (Float.equal (model_depart i j t) (Tveg.earliest_departure g i j ~after:t)) then
              ok := false
          end
        done
      done)
    !probes;
  !ok

let prop_contact_store_model =
  QCheck.Test.make ~name:"contact store = naive scan over links" ~count:150
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 5 in
      let tau = if seed mod 2 = 0 then 0. else [| 0.5; 1.; 2. |].(Rng.int rng 3) in
      let entries = ref [] in
      for i = 0 to n - 2 do
        for j = i + 1 to n - 1 do
          if Rng.float rng 1. < 0.7 then
            for _ = 1 to 1 + Rng.int rng 4 do
              (* Integer endpoints make shared endpoints and overlaps
                 common; some entries repeat the previous interval. *)
              let seg =
                match !entries with
                | (_, _, prev) :: _ when Rng.float rng 1. < 0.15 -> prev.Tveg.iv
                | _ ->
                    let lo = float_of_int (Rng.int rng 10) in
                    iv lo (Float.min 10. (lo +. float_of_int (1 + Rng.int rng 4)))
              in
              let dist = 1. +. Rng.float rng 99. in
              let a, b = if Rng.bool rng then (i, j) else (j, i) in
              entries := (a, b, { Tveg.iv = seg; dist }) :: !entries
            done
        done
      done;
      let entries = List.rev !entries in
      let g = Tveg.create ~n ~span:span10 ~tau entries in
      let model i j =
        List.filter_map
          (fun (a, b, l) -> if (a = i && b = j) || (a = j && b = i) then Some l else None)
          entries
        |> List.rev
        |> List.stable_sort (fun (x : Tveg.link) (y : Tveg.link) -> Interval.compare x.Tveg.iv y.Tveg.iv)
      in
      let lo = float_of_int (Rng.int rng 9) in
      let sub = iv lo (lo +. float_of_int (1 + Rng.int rng (int_of_float (10. -. lo)))) in
      let clipped i j =
        List.filter_map
          (fun (l : Tveg.link) ->
            Option.map (fun iv -> { l with Tveg.iv }) (Interval.inter l.Tveg.iv sub))
          (model i j)
      in
      check_store_against_model ~n ~tau ~model g
      && check_store_against_model ~n ~tau ~model:clipped (Tveg.restrict g ~span:sub))

(* Reference for the one earliest-arrival scan: relax every contact
   segment of every pair, in both directions, until no arrival
   changes.  A departure at d = max(arrival, segment start) counts when
   the pair is present throughout [d, d + τ], walking across touching
   and overlapping segments of that pair. *)
let naive_arrivals ~n ~tau entries ~src ~t0 =
  let segs i j =
    List.filter_map
      (fun (a, b, (l : Tveg.link)) ->
        if (a = i && b = j) || (a = j && b = i) then Some l.Tveg.iv else None)
      entries
  in
  let present_through ss d =
    let covers c (s : Interval.t) = s.Interval.lo <= c && c < s.Interval.hi in
    let rec walk c =
      if not (List.exists (covers c) ss) then false
      else begin
        let reach =
          List.fold_left (fun m s -> if covers c s then Float.max m s.Interval.hi else m) c ss
        in
        d +. tau < reach || walk reach
      end
    in
    walk d
  in
  let arr = Array.make n Float.infinity in
  arr.(src) <- t0;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (a, b, (l : Tveg.link)) ->
        List.iter
          (fun (i, j) ->
            if Float.is_finite arr.(i) then begin
              let d = Float.max arr.(i) l.Tveg.iv.Interval.lo in
              if d +. tau < arr.(j) && present_through (segs i j) d then begin
                arr.(j) <- d +. tau;
                changed := true
              end
            end)
          [ (a, b); (b, a) ])
      entries
  done;
  arr

(* Up to three records per pair of [n] nodes inside [0, 10).  Half-unit
   endpoints make touching and overlapping records of one pair, and
   arrivals tied to a half-unit deadline, common. *)
let half_unit_entries rng n =
  let entries = ref [] in
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      for _ = 1 to Rng.int rng 4 do
        let lo = 0.5 *. float_of_int (Rng.int rng 19) in
        let hi = Float.min 10. (lo +. (0.5 *. float_of_int (1 + Rng.int rng 6))) in
        entries := (i, j, link lo hi (1. +. Rng.float rng 9.)) :: !entries
      done
    done
  done;
  List.rev !entries

let prop_earliest_arrival_reference =
  QCheck.Test.make ~name:"earliest arrival = naive relaxation" ~count:200
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 6 in
      let tau = [| 0.; 0.5; 1. |].(seed mod 3) in
      let entries = half_unit_entries rng n in
      let g = Tveg.create ~n ~span:span10 ~tau entries in
      let arrays_equal a b = Array.for_all2 Float.equal a b in
      List.for_all
        (fun src ->
          List.for_all
            (fun t0 ->
              arrays_equal
                (naive_arrivals ~n ~tau entries ~src ~t0)
                (Tveg.earliest_arrival g ~src ~t0))
            [ -1.; 0.; 2.5; 7. ]
          &&
          let reference = naive_arrivals ~n ~tau entries ~src ~t0:0. in
          List.for_all
            (fun deadline ->
              let p =
                Tmedb.Problem.make ~graph:g ~phy:Phy.default ~channel:`Static ~source:src
                  ~deadline ()
              in
              Tmedb.Problem.is_reachable p = Array.for_all (fun a -> a <= deadline) reference
              && Float.equal
                   (Tmedb.Problem.completion_lower_bound p)
                   (Array.fold_left Float.max 0. reference))
            [ 2.; 5.5; 10. ])
        (List.init n Fun.id))

(* The one contact rule on single-pair probes: EEDCB, SPT, GREED and
   BIP reach node 1 exactly when the earliest-arrival scan says it can
   by the deadline, and each complete schedule is feasible. *)
let probe_planners = Tmedb.[ Eedcb.planner; Spt.planner; Greedy.planner; Static_bip.planner ]

let check_probe label ~tau ~deadline records ~unreached =
  let g =
    Tveg.create ~n:2 ~span:span10 ~tau (List.map (fun (lo, hi, d) -> (0, 1, link lo hi d)) records)
  in
  let p = Tmedb.Problem.make ~graph:g ~phy:Phy.default ~channel:`Static ~source:0 ~deadline () in
  check_bool (label ^ ": is_reachable") true (Tmedb.Problem.is_reachable p);
  List.iter2
    (fun planner expected ->
      let o = Tmedb.Planner.run planner p in
      let name = Printf.sprintf "%s: %s" label (Tmedb.Planner.name planner) in
      Alcotest.(check (list int)) (name ^ " unreached") expected o.Tmedb.Planner.Outcome.unreached;
      let report = o.Tmedb.Planner.Outcome.report in
      if expected = [] then check_bool (name ^ " feasible") true report.Tmedb.Feasibility.feasible)
    probe_planners unreached

(* Touching records are one presence run: departing at 0 on the first
   arrives at 2, although neither record alone holds a τ = 2 transfer
   before 3. *)
let test_tveg_probe_touching () =
  check_probe "touching" ~tau:2. ~deadline:3.
    [ (0., 1.5, 10.); (1.5, 5., 20.) ]
    ~unreached:[ []; []; []; [] ]

(* Overlapping records form the run [0, 5), which carries a τ = 3.5
   transfer from any t < 1.5, though no single record does. *)
let test_tveg_probe_overlapping () =
  check_probe "overlapping" ~tau:3.5 ~deadline:5.
    [ (0., 3., 10.); (1., 5., 20.) ]
    ~unreached:[ []; []; []; [] ]

let test_tveg_probe_alone () =
  check_probe "alone" ~tau:3.5 ~deadline:5. [ (1., 5., 20.) ] ~unreached:[ []; []; []; [] ]

(* Known divergence, pinned: an arrival exactly at T.  EEDCB and SPT
   plan on [Problem.clip]'s [lo, T), so they count an arrival only
   strictly before T; Feasibility, GREED and BIP accept one at T. *)
let test_tveg_deadline_tie () =
  List.iter
    (fun (tau, deadline) ->
      check_probe
        (Printf.sprintf "tie tau %g T %g" tau deadline)
        ~tau ~deadline
        [ (2., 5., 10.) ]
        ~unreached:[ [ 1 ]; [ 1 ]; []; [] ])
    [ (0., 2.); (1., 3.) ]

(* EEDCB and SPT against the earliest-arrival scan on random 2–6-node
   graphs of [half_unit_entries].  Both planners count an arrival
   only strictly before T, so each leaves nobody unreached exactly
   when every earliest arrival is < T; Feasibility accepts each
   complete schedule, at a cost no lower than the certified bound. *)
let prop_planners_match_reachability =
  QCheck.Test.make ~name:"EEDCB/SPT complete iff every earliest arrival < T" ~count:400
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 5 in
      let tau = [| 0.; 0.5; 1.; 2. |].(seed mod 4) in
      let g = Tveg.create ~n ~span:span10 ~tau (half_unit_entries rng n) in
      let src = seed mod n in
      let arrivals = Tveg.earliest_arrival g ~src ~t0:0. in
      List.for_all
        (fun deadline ->
          let p =
            Tmedb.Problem.make ~graph:g ~phy:Phy.default ~channel:`Static ~source:src ~deadline ()
          in
          let complete = Array.for_all (fun a -> a < deadline) arrivals in
          List.for_all
            (fun planner ->
              let o = Tmedb.Planner.run planner p in
              let report = o.Tmedb.Planner.Outcome.report in
              (o.Tmedb.Planner.Outcome.unreached = []) = complete
              && ((not complete)
                 || report.Tmedb.Feasibility.feasible
                    && Tmedb.Metrics.energy_lower_bound p
                       <= report.Tmedb.Feasibility.total_cost +. 1e-18))
            Tmedb.[ Eedcb.planner; Spt.planner ])
        [ 2.; 5.5; 10. ])

(* ------------------------------------------------------------------ *)
(* Dts *)

let test_dts_tau0_contains_adjacent_points () =
  let g = sample () in
  let dts = Dts.compute g ~deadline:10. in
  (* Node 0's own boundaries all present. *)
  let p0 = Dts.node_points dts 0 in
  List.iter
    (fun t -> check_bool (Printf.sprintf "point %g" t) true (Array.exists (Float.equal t) p0))
    [ 0.; 4.; 6.; 8. ]

let test_dts_tau0_closure_copies_points () =
  let g = sample () in
  let dts = Dts.compute g ~deadline:10. in
  (* Node 2's boundary 3 happens while 0--1 is live, so it must be
     copied onto nodes 1 and 0 (receive instants under tau = 0). *)
  let p0 = Dts.node_points dts 0 in
  check_bool "copied via closure" true (Array.exists (Float.equal 3.) p0)

let test_dts_deadline_clips () =
  let g = sample () in
  let dts = Dts.compute g ~deadline:5. in
  Array.iteri
    (fun i _ ->
      Array.iter
        (fun p -> check_bool "within deadline" true (p <= 5.))
        (Dts.node_points dts i))
    (Array.make 3 ())

let test_dts_tau_positive_propagates () =
  let g = sample ~tau:0.5 () in
  let dts = Dts.compute g ~deadline:10. in
  (* Node 1 can receive at 3 + 0.5 from node 2's boundary at 3
     (2 transmits at 3). *)
  let p1 = Dts.node_points dts 1 in
  check_bool "receive point 3.5" true (Array.exists (Float.equal 3.5) p1)

let test_dts_latest_at_or_before () =
  let g = sample () in
  let dts = Dts.compute g ~deadline:10. in
  (match Dts.latest_at_or_before dts 0 5. with
  | Some p -> check_bool "<= query" true (p <= 5.)
  | None -> Alcotest.fail "expected a point");
  check_bool "before first" true (Dts.latest_at_or_before dts 0 (-1.) = None)

let test_dts_index_of_point () =
  let g = sample () in
  let dts = Dts.compute g ~deadline:10. in
  let p0 = Dts.node_points dts 0 in
  Array.iteri
    (fun idx p ->
      Alcotest.(check (option int)) "index roundtrip" (Some idx) (Dts.index_of_point dts 0 p))
    p0;
  check_bool "missing point" true (Dts.index_of_point dts 0 99. = None)

let test_dts_cap_truncates () =
  (* The cap bounds propagation additions; a node always keeps its own
     adjacent-partition points. *)
  let g = sample ~tau:0.25 () in
  let cap = 3 in
  let dts = Dts.compute ~cap_per_node:cap g ~deadline:10. in
  for i = 0 to 2 do
    let base = Array.length (Tveg.adjacent_partition g i) in
    check_bool "capped" true (Array.length (Dts.node_points dts i) <= Stdlib.max base cap)
  done

let test_dts_earliest_at_or_after () =
  let g = sample () in
  let dts = Dts.compute g ~deadline:10. in
  (match Dts.earliest_at_or_after dts 0 5. with
  | Some p -> check_bool ">= query" true (p >= 5.)
  | None -> Alcotest.fail "expected a point");
  check_bool "past last" true (Dts.earliest_at_or_after dts 0 99. = None);
  (* Round-trip with latest_at_or_before around an existing point. *)
  let p0 = Dts.node_points dts 0 in
  Array.iter
    (fun p ->
      Alcotest.(check (option (float 0.))) "exact hit" (Some p) (Dts.earliest_at_or_after dts 0 p))
    p0;
  (* The index query agrees with [index_of_point] on every point and
     rounds a time between points up to the next one. *)
  Array.iteri
    (fun k p ->
      check_int "index of a point" k (Dts.index_at_or_after dts 0 p);
      Alcotest.(check (option int)) "same as index_of_point" (Some k) (Dts.index_of_point dts 0 p);
      if k > 0 then
        check_int "between points" k (Dts.index_at_or_after dts 0 ((p0.(k - 1) +. p) /. 2.)))
    p0;
  check_int "past last index" (Array.length p0) (Dts.index_at_or_after dts 0 99.)

let test_dts_source_pruning () =
  (* 0--1 on [0,4); 1--2 on [3,7): node 2 cannot hold the packet from
     source 0 before t = 3, so its earlier points are pruned. *)
  let g =
    Tveg.create ~n:3 ~span:span10 ~tau:0. [ (0, 1, link 0. 4. 10.); (1, 2, link 3. 7. 10.) ]
  in
  let pruned = Dts.compute ~source:0 g ~deadline:10. in
  let unpruned = Dts.compute g ~deadline:10. in
  Array.iter
    (fun p -> check_bool "node 2 points >= 3" true (p >= 3.))
    (Dts.node_points pruned 2);
  check_bool "pruning shrinks" true (Dts.total_points pruned <= Dts.total_points unpruned);
  (* The source itself keeps its full point set. *)
  check_int "source keeps points" (Array.length (Dts.node_points unpruned 0))
    (Array.length (Dts.node_points pruned 0))

let test_dts_unreachable_sentinel () =
  let g = Tveg.create ~n:3 ~span:span10 ~tau:0. [ (0, 1, link 0. 4. 10.) ] in
  let dts = Dts.compute ~source:0 g ~deadline:10. in
  (* Node 2 is isolated: it still owns one sentinel point. *)
  check_int "sentinel" 1 (Array.length (Dts.node_points dts 2))

let test_dts_bad_deadline () =
  let g = sample () in
  Alcotest.check_raises "outside span"
    (Invalid_argument "Dts.compute: deadline outside the graph span") (fun () ->
      ignore (Dts.compute g ~deadline:11.))

(* Paper bound: with tau = 0 total points are O(N^2 L). *)
let test_dts_size_bound_tau0 () =
  let rng = Rng.create 99 in
  let entries = ref [] in
  let n = 6 in
  let contacts_per_pair = 3 in
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      for _ = 1 to contacts_per_pair do
        let lo = Rng.float rng 8. in
        let hi = Float.min 10. (lo +. 0.5 +. Rng.float rng 1.) in
        if hi > lo then entries := (i, j, link lo hi 5.) :: !entries
      done
    done
  done;
  let g = Tveg.create ~n ~span:span10 ~tau:0. !entries in
  let dts = Dts.compute g ~deadline:10. in
  (* L = max per-node adjacent-partition size. *)
  let l =
    List.fold_left
      (fun acc i ->
        Stdlib.max acc
          (Array.length (Tveg.adjacent_partition g i)))
      0
      (List.init n (fun i -> i))
  in
  check_bool "O(N^2 L)" true (Dts.total_points dts <= n * n * l)

(* ------------------------------------------------------------------ *)
(* Dcs *)

let test_dcs_static_levels () =
  let g = sample () in
  let phy = Phy.default in
  let levels = Dcs.at g ~phy ~channel:`Static ~node:1 ~time:3.5 in
  check_int "two levels" 2 (List.length levels);
  (match levels with
  | [ l1; l2 ] ->
      (* Nearest neighbour 0 at 10 m, then 2 at 15 m. *)
      Alcotest.(check (list int)) "level 1 covers" [ 0 ] l1.Dcs.covered;
      Alcotest.(check (list int)) "level 2 covers" [ 0; 2 ] l2.Dcs.covered;
      check_bool "increasing" true (l1.Dcs.cost < l2.Dcs.cost);
      check_bool "cost = min cost" true
        (Futil.approx_eq l1.Dcs.cost (Phy.min_cost phy ~dist:10.))
  | _ -> Alcotest.fail "expected two levels")

let test_dcs_rayleigh_uses_epsilon_cost () =
  let g = sample () in
  let phy = Phy.default in
  match Dcs.at g ~phy ~channel:`Rayleigh ~node:1 ~time:3.5 with
  | l1 :: _ ->
      check_bool "w0 weight" true
        (Futil.approx_eq l1.Dcs.cost (Phy.fading_reference_cost phy ~dist:10.))
  | [] -> Alcotest.fail "expected levels"

let test_dcs_empty_when_isolated () =
  let g = sample () in
  check_int "no neighbours" 0 (List.length (Dcs.at g ~phy:Phy.default ~channel:`Static ~node:2 ~time:1.))

let test_dcs_drops_beyond_wmax () =
  let g = sample () in
  (* A w_max below the 15 m cost keeps only the 10 m neighbour. *)
  let phy = Phy.make ~w_max:(Phy.min_cost Phy.default ~dist:12.) () in
  let levels = Dcs.at g ~phy ~channel:`Static ~node:1 ~time:3.5 in
  check_int "one level" 1 (List.length levels);
  match levels with
  | [ l ] -> Alcotest.(check (list int)) "nearest only" [ 0 ] l.Dcs.covered
  | _ -> Alcotest.fail "expected one level"

let test_dcs_equal_costs_merge () =
  let g =
    Tveg.create ~n:3 ~span:span10 ~tau:0. [ (0, 1, link 0. 5. 10.); (0, 2, link 0. 5. 10.) ]
  in
  let levels = Dcs.at g ~phy:Phy.default ~channel:`Static ~node:0 ~time:1. in
  check_int "merged" 1 (List.length levels);
  match levels with
  | [ l ] -> Alcotest.(check (list int)) "both covered" [ 1; 2 ] l.Dcs.covered
  | _ -> Alcotest.fail "expected a single level"

let test_dcs_level_covering () =
  let g = sample () in
  let levels = Dcs.at g ~phy:Phy.default ~channel:`Static ~node:1 ~time:3.5 in
  (match Dcs.level_covering levels ~k:2 with
  | Some l -> check_int "covers 2" 2 (List.length l.Dcs.covered)
  | None -> Alcotest.fail "expected level");
  check_bool "cannot cover 3" true (Dcs.level_covering levels ~k:3 = None)

(* Property 6.1 (broadcast nature) on random instances: every level's
   covered set contains the previous level's. *)
let prop_dcs_nested =
  QCheck.Test.make ~name:"DCS levels nested (Property 6.1)" ~count:100
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 3 + Rng.int rng 5 in
      let entries = ref [] in
      for i = 0 to n - 2 do
        for j = i + 1 to n - 1 do
          if Rng.bool rng then begin
            let d = 5. +. Rng.float rng 50. in
            entries := (i, j, link 0. 10. d) :: !entries
          end
        done
      done;
      let g = Tveg.create ~n ~span:span10 ~tau:0. !entries in
      let levels = Dcs.at g ~phy:Phy.default ~channel:`Static ~node:0 ~time:1. in
      let rec nested = function
        | a :: (b :: _ as rest) ->
            List.for_all (fun x -> List.mem x b.Dcs.covered) a.Dcs.covered
            && a.Dcs.cost <= b.Dcs.cost && nested rest
        | _ -> true
      in
      nested levels)

(* The list-sort DCS the kernel replaced, kept verbatim as the
   reference: cost every live neighbour, sort the (cost, id) pairs,
   merge equal costs, clamp to w_min. *)
module Reference = struct
  let epsilon_cost ed phy =
    match Ed_function.cost_for_failure ed ~target:phy.Phy.eps with
    | Some w -> w
    | None -> Float.infinity

  let neighbour_cost ~phy ~channel ~dist =
    match channel with
    | `Static -> Phy.min_cost phy ~dist
    | `Rayleigh -> Phy.fading_reference_cost phy ~dist
    | `Nakagami m -> epsilon_cost (Ed_function.nakagami ~beta:(Phy.beta phy ~dist) ~m) phy
    | `Lognormal sigma ->
        epsilon_cost (Ed_function.lognormal ~beta:(Phy.beta phy ~dist) ~sigma) phy

  let marginals_at g ~phy ~channel ~node ~time =
    let costed = ref [] in
    Tveg.iter_neighbors_at g node time (fun j dist ->
        let w = neighbour_cost ~phy ~channel ~dist in
        if w <= phy.Phy.w_max then costed := (w, j) :: !costed);
    let costed =
      List.sort
        (fun (wa, ja) (wb, jb) ->
          let c = Float.compare wa wb in
          if c <> 0 then c else Int.compare ja jb)
        !costed
    in
    let rec build = function
      | [] -> []
      | (w, j) :: rest ->
          let rec absorb fresh_rev rest =
            match rest with
            | (w', j') :: tl when Float.equal w' w -> absorb (j' :: fresh_rev) tl
            | _ -> (fresh_rev, rest)
          in
          let fresh_rev, rest = absorb [ j ] rest in
          { Dcs.cost = Float.max phy.Phy.w_min w; fresh = List.rev fresh_rev } :: build rest
    in
    build costed

  let at g ~phy ~channel ~node ~time =
    let rec merge a b =
      match (a, b) with
      | [], l | l, [] -> l
      | x :: xt, y :: yt ->
          if x < y then x :: merge xt b else if x > y then y :: merge a yt else x :: merge xt yt
    in
    let rec accum covered = function
      | [] -> []
      | { Dcs.cost; fresh } :: rest ->
          let covered = merge covered fresh in
          { Dcs.cost; covered } :: accum covered rest
    in
    accum [] (marginals_at g ~phy ~channel ~node ~time)
end

(* The DCS kernel against the reference on random graphs.  Distances
   come from a small set, so equal costs merge; w_min and w_max sit on
   two of them, so the nearest neighbours clamp and the farthest drop.
   About every fifth static or Rayleigh graph (the fading models'
   costs are slow to compute) links node 0 to 90 or more nodes over
   the whole span, so it serves more than 64, past the kernel's
   insertion-sort range. *)
let prop_dcs_kernel_matches_reference =
  QCheck.Test.make ~name:"kernel = list-sort reference" ~count:200 (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let channel =
        Rng.pick_list rng [ `Static; `Rayleigh; `Nakagami 2.; `Lognormal 1. ]
      in
      let fast = match channel with `Static | `Rayleigh -> true | `Nakagami _ | `Lognormal _ -> false in
      let wide = seed mod 5 = 0 && fast in
      let n = if wide then 90 + Rng.int rng 20 else 2 + Rng.int rng 10 in
      let tau = if Rng.bool rng then 0. else 1. in
      let dists = [| 5.; 8.; 12.; 20.; 30.; 45.; 60.; 80. |] in
      let cost d = Reference.neighbour_cost ~phy:Phy.default ~channel ~dist:d in
      let phy = Phy.make ~w_min:(cost 12.) ~w_max:(cost 45.) () in
      let entries = ref [] in
      for i = 0 to n - 2 do
        for j = i + 1 to n - 1 do
          if wide && i = 0 then entries := (i, j, link 0. 10. (Rng.pick rng dists)) :: !entries
          else if Rng.int rng 3 > 0 then
            for _ = 0 to Rng.int rng 2 do
              let lo = Rng.float rng 8. in
              let hi = Float.min 10. (lo +. 0.5 +. Rng.float rng 6.) in
              entries := (i, j, link lo hi (Rng.pick rng dists)) :: !entries
            done
        done
      done;
      let g = Tveg.create ~n ~span:span10 ~tau !entries in
      let same_marginal (a : Dcs.marginal) (b : Dcs.marginal) =
        Float.equal a.Dcs.cost b.Dcs.cost && List.equal Int.equal a.Dcs.fresh b.Dcs.fresh
      in
      let same_level (a : Dcs.level) (b : Dcs.level) =
        Float.equal a.Dcs.cost b.Dcs.cost && List.equal Int.equal a.Dcs.covered b.Dcs.covered
      in
      List.for_all
        (fun node ->
          List.for_all
            (fun time ->
              List.equal same_marginal
                (Dcs.marginals_at g ~phy ~channel ~node ~time)
                (Reference.marginals_at g ~phy ~channel ~node ~time)
              && List.equal same_level (Dcs.at g ~phy ~channel ~node ~time)
                   (Reference.at g ~phy ~channel ~node ~time))
            [ 0.; 1.5; 3.; 4.5; 6.; 7.5; 9. ])
        (List.init (min n 4) (fun i -> i)))

(* The sweep's levels, read straight from the scratch, against the
   point kernel's list at one instant: level count, costs bit for bit,
   level starts and the served ids. *)
let sweep_step_matches sc levels expected =
  let costs = List.init levels (fun k -> Printf.sprintf "%h" sc.Dcs.level_cost.(k)) in
  let starts = List.init (levels + 1) (fun k -> sc.Dcs.level_start.(k)) in
  let ids = List.init sc.Dcs.level_start.(levels) (fun q -> sc.Dcs.ids.(q)) in
  let expected_starts =
    List.fold_left
      (fun acc m -> (List.hd acc + List.length m.Dcs.fresh) :: acc)
      [ 0 ] expected
    |> List.rev
  in
  levels = List.length expected
  && costs = List.map (fun (m : Dcs.marginal) -> Printf.sprintf "%h" m.Dcs.cost) expected
  && starts = expected_starts
  && ids = List.concat_map (fun m -> m.Dcs.fresh) expected

(* Every node of [g] swept, through one scratch, over its adjacent
   partition points and their τ-shifts both ways, against
   [Dcs.marginals_at] at each instant. *)
let sweep_matches_point_kernel g ~phy ~channel =
  let tau = Tveg.tau g and pricing = Dcs.pricing ~phy ~channel and sc = Dcs.scratch () in
  List.for_all
    (fun node ->
      let times =
        Array.to_list (Tveg.adjacent_partition g node)
        |> List.concat_map (fun p -> [ p -. tau; p; p +. tau ])
        |> List.sort_uniq Float.compare
      in
      let next = Dcs.sweep sc g pricing ~node in
      List.for_all
        (fun time ->
          let levels = next time in
          sweep_step_matches sc levels (Dcs.marginals_at g ~phy ~channel ~node ~time))
        times)
    (List.init (Tveg.n g) Fun.id)

(* The sweep against the point kernel on two families of graphs.
   Half-unit records ([half_unit_entries]) touch and overlap, with
   τ ∈ {0, 0.5, 1, 2}; decimal records have endpoints k·0.1 and
   τ ∈ {0.1, 0.3}, where t +. τ rounds, and distances from a small
   set, so equal costs merge.  w_min and w_max sit at 3 m and 8 m, so
   near neighbours clamp and far ones drop.  About one static or
   Rayleigh graph in five also gives node 0 a two-piece run within
   w_max to each of 69 or more nodes over the whole span: more than 64
   served at once, each changing distance mid-run. *)
let prop_dcs_sweep_matches_point_kernel =
  QCheck.Test.make ~name:"sweep = point kernel" ~count:240 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let channel = [| `Static; `Rayleigh; `Nakagami 2.; `Lognormal 1. |].(seed mod 4) in
      let fast = seed mod 4 < 2 in
      let decimal = seed / 4 mod 2 = 1 in
      let wide = fast && seed / 8 mod 5 = 0 in
      let n = if wide then 70 + Rng.int rng 20 else 2 + Rng.int rng 6 in
      let tau =
        if decimal then [| 0.1; 0.3 |].(seed / 40 mod 2) else [| 0.; 0.5; 1.; 2. |].(seed / 40 mod 4)
      in
      let dists = [| 2.; 3.; 5.; 8.; 13. |] and served = [| 2.; 3.; 5.; 8. |] in
      let records =
        if decimal then begin
          let acc = ref [] in
          for i = 0 to n - 2 do
            for j = i + 1 to n - 1 do
              for _ = 1 to Rng.int rng 4 do
                let k = Rng.int rng 95 in
                let k' = Int.min 100 (k + 1 + Rng.int rng 30) in
                acc :=
                  (i, j, link (float_of_int k *. 0.1) (float_of_int k' *. 0.1) (Rng.pick rng dists))
                  :: !acc
              done
            done
          done;
          !acc
        end
        else half_unit_entries rng (Int.min n 8)
      in
      let spine =
        if not wide then []
        else
          List.concat_map
            (fun j ->
              let s = 0.5 *. float_of_int (1 + Rng.int rng 19) in
              [ (0, j, link 0. s (Rng.pick rng served)); (0, j, link s 10. (Rng.pick rng served)) ])
            (List.init (n - 1) (fun j -> j + 1))
      in
      let g = Tveg.create ~n ~span:span10 ~tau (records @ spine) in
      let cost d = Reference.neighbour_cost ~phy:Phy.default ~channel ~dist:d in
      let phy = Phy.make ~w_min:(cost 3.) ~w_max:(cost 8.) () in
      sweep_matches_point_kernel g ~phy ~channel)

(* The float trap of the run-end threshold: with one piece
   [0, 0.1 +. 0.2) and τ = 0.1, 0.2 +. 0.1 rounds up to the piece's
   end, so no transmission started at 0.2 completes, although
   0.2 < (0.1 +. 0.2) -. 0.1. *)
let test_dcs_sweep_rounded_threshold () =
  let g = Tveg.create ~n:2 ~span:span10 ~tau:0.1 [ (0, 1, link 0. (0.1 +. 0.2) 10.) ] in
  let phy = Phy.default in
  let sc = Dcs.scratch () in
  let next = Dcs.sweep sc g (Dcs.pricing ~phy ~channel:`Static) ~node:0 in
  check_bool "the subtraction says live" true (0.2 < (0.1 +. 0.2) -. 0.1);
  check_int "live at 0.1" 1 (next 0.1);
  check_bool "rho_tau at 0.2" false (Tveg.rho_tau g 0 1 0.2);
  check_int "no neighbour at 0.2" 0 (next 0.2);
  check_int "point kernel at 0.2" 0
    (List.length (Dcs.marginals_at g ~phy ~channel:`Static ~node:0 ~time:0.2));
  Alcotest.check_raises "time goes back"
    (Invalid_argument "Dcs.sweep: time before the previous one") (fun () -> ignore (next 0.1))

let prop_dts_points_in_range =
  QCheck.Test.make ~name:"DTS points within [span.lo, deadline]" ~count:50
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 3 + Rng.int rng 4 in
      let entries = ref [] in
      for i = 0 to n - 2 do
        for j = i + 1 to n - 1 do
          if Rng.bool rng then begin
            let lo = Rng.float rng 8. in
            let hi = Float.min 10. (lo +. 0.5 +. Rng.float rng 2.) in
            if hi > lo then entries := (i, j, link lo hi 10.) :: !entries
          end
        done
      done;
      let g = Tveg.create ~n ~span:span10 ~tau:0. !entries in
      let deadline = 5. +. Rng.float rng 5. in
      let dts = Dts.compute g ~deadline in
      let ok = ref true in
      for i = 0 to n - 1 do
        Array.iter (fun p -> if p < 0. || p > deadline then ok := false) (Dts.node_points dts i)
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Dts.view: every smaller deadline's view of one horizon closure must
   be the closure of the deadline-restricted graph — exactly what the
   one-shot solve path computes (restrict, then Dts.compute). *)

let check_dts_equal msg eager view =
  check_int (msg ^ " nodes") (Dts.num_nodes eager) (Dts.num_nodes view);
  for i = 0 to Dts.num_nodes eager - 1 do
    Alcotest.(check (array (float 0.)))
      (Printf.sprintf "%s node %d" msg i)
      (Dts.node_points eager i) (Dts.node_points view i)
  done

let eager_at ?source g ~deadline =
  Dts.compute ?source (Tveg.restrict g ~span:(iv 0. deadline)) ~deadline

(* The sample graphs span [0, 10], so their closure at 10 is the
   horizon closure of a 10-clipped instance. *)
let horizon_closure ?source g = Dts.compute ?source g ~deadline:10.

let test_stream_endpoints () =
  let g = sample () in
  let closure = horizon_closure g in
  (* Deadlines hit contact endpoints (3, 4, 7, 8), interior instants
     and the span end; the final 4. repeats an earlier deadline. *)
  List.iter
    (fun deadline ->
      check_dts_equal
        (Printf.sprintf "tau0 T=%g" deadline)
        (eager_at g ~deadline)
        (Dts.view closure ~deadline))
    [ 3.; 4.; 5.; 6.5; 7.; 8.; 10.; 4. ]

let test_stream_endpoints_tau_positive () =
  let g = sample ~tau:1. () in
  let closure = horizon_closure g in
  List.iter
    (fun deadline ->
      check_dts_equal
        (Printf.sprintf "tau1 T=%g" deadline)
        (eager_at g ~deadline)
        (Dts.view closure ~deadline))
    [ 3.; 4.; 5.; 7.; 10. ]

let test_stream_sentinel_and_source () =
  let g = sample () in
  let closure = horizon_closure ~source:0 g in
  (* Node 2's earliest arrival from 0 is 3 (via 1 on [3,7)): at T = 2
     it is unreachable and must keep the single sentinel point, and so
     at T = 3, where the 3-clipped graph cannot complete the hop. *)
  Alcotest.(check (float 0.)) "arrival" 3. (Dts.arrival closure 2);
  List.iter
    (fun deadline ->
      let view = Dts.view closure ~deadline in
      Alcotest.(check (array (float 0.)))
        (Printf.sprintf "sentinel T=%g" deadline)
        [| 0. |] (Dts.node_points view 2);
      check_dts_equal
        (Printf.sprintf "pruned T=%g" deadline)
        (eager_at ~source:0 g ~deadline) view)
    [ 2.; 3. ];
  check_dts_equal "pruned T=5"
    (eager_at ~source:0 g ~deadline:5.)
    (Dts.view closure ~deadline:5.)

let test_stream_bad_deadline () =
  let closure = Dts.compute (sample ()) ~deadline:5. in
  Alcotest.check_raises "beyond the closure"
    (Invalid_argument "Dts.view: deadline outside (span start, closure deadline]")
    (fun () -> ignore (Dts.view closure ~deadline:6.));
  Alcotest.check_raises "at span start"
    (Invalid_argument "Dts.view: deadline outside (span start, closure deadline]")
    (fun () -> ignore (Dts.view closure ~deadline:0.))

(* For any deadline T, the horizon closure viewed at T equals the
   closure of the [0,T]-restricted graph, the endpoint itself
   included.  Three ascending deadlines per instance. *)
let prop_stream_matches_eager ~name ~tau ~source =
  QCheck.Test.make ~name ~count:50 (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Rng.create seed in
      let n = 3 + Rng.int rng 4 in
      let entries = ref [] in
      for i = 0 to n - 2 do
        for j = i + 1 to n - 1 do
          if Rng.bool rng then begin
            let lo = Rng.float rng 8. in
            let hi = Float.min 10. (lo +. 0.5 +. Rng.float rng 2.) in
            if hi > lo then entries := (i, j, link lo hi 10.) :: !entries
          end
        done
      done;
      let g = Tveg.create ~n ~span:span10 ~tau !entries in
      let closure = horizon_closure ?source g in
      let points_equal a b =
        Dts.num_nodes a = Dts.num_nodes b
        && List.for_all
             (fun i ->
               let pa = Dts.node_points a i and pb = Dts.node_points b i in
               Array.length pa = Array.length pb && Array.for_all2 Float.equal pa pb)
             (List.init (Dts.num_nodes a) Fun.id)
      in
      List.for_all
        (fun deadline ->
          points_equal (eager_at ?source g ~deadline) (Dts.view closure ~deadline))
        [ 1. +. Rng.float rng 3.; 4. +. Rng.float rng 3.; 7. +. Rng.float rng 3. ])

let prop_stream_eager_tau0 =
  prop_stream_matches_eager ~name:"stream view = eager restricted closure (tau 0)" ~tau:0.
    ~source:None

let prop_stream_eager_tau_positive =
  prop_stream_matches_eager ~name:"stream view = eager restricted closure (tau 1)" ~tau:1.
    ~source:None

let prop_stream_eager_source =
  prop_stream_matches_eager ~name:"stream view = eager restricted closure (source)" ~tau:0.
    ~source:(Some 0)

(* ------------------------------------------------------------------ *)
(* Dts.view as a prefix of one closure *)

let test_view_at_closure_deadline () =
  (* Viewing a closure at its own deadline changes nothing. *)
  List.iter
    (fun (tau, source) ->
      let closure = horizon_closure ?source (sample ~tau ()) in
      check_dts_equal
        (Printf.sprintf "tau=%g source=%b" tau (Option.is_some source))
        closure (Dts.view closure ~deadline:10.))
    [ (0., None); (1., None); (0., Some 0); (1., Some 0) ]

let test_view_arrival () =
  (* The sample plus an isolated node 3: from 0, node 1 is reached on
     [0,4) at 0, node 2 through 1 on [3,7) at 3, node 3 never.  Without
     a source every node counts as holding the packet from the start. *)
  let g =
    Tveg.create ~n:4 ~span:span10 ~tau:0.
      [ (0, 1, link 0. 4. 10.); (0, 1, link 6. 8. 20.); (1, 2, link 3. 7. 15.) ]
  in
  let arrivals t = List.init 4 (Dts.arrival t) in
  let closure = Dts.compute ~source:0 g ~deadline:10. in
  Alcotest.(check (list (float 0.))) "from 0" [ 0.; 0.; 3.; infinity ] (arrivals closure);
  Alcotest.(check (list (float 0.)))
    "view keeps arrivals" (arrivals closure)
    (arrivals (Dts.view closure ~deadline:5.));
  Alcotest.(check (array (float 0.))) "unreachable sentinel" [| 0. |] (Dts.node_points closure 3);
  Alcotest.(check (list (float 0.)))
    "no source" [ 0.; 0.; 0.; 0. ]
    (arrivals (Dts.compute g ~deadline:10.))

let test_view_composes () =
  (* A view of a view is the view at the smaller deadline. *)
  let closure = horizon_closure ~source:0 (sample ~tau:1. ()) in
  List.iter
    (fun (outer, inner) ->
      check_dts_equal
        (Printf.sprintf "T=%g then %g" outer inner)
        (Dts.view closure ~deadline:inner)
        (Dts.view (Dts.view closure ~deadline:outer) ~deadline:inner))
    [ (8., 5.); (7., 3.); (4., 4.); (6.5, 2.) ]

(* ------------------------------------------------------------------ *)
(* Scale scenario generator *)

let test_scale_deterministic_and_shaped () =
  let params = { Scale.default_params with Scale.cluster = 10; epochs = 2 } in
  let g1 = Scale.scenario ~params ~n:30 () in
  let g2 = Scale.scenario ~params ~n:30 () in
  Alcotest.(check int) "n" 30 (Tveg.n g1);
  let links_equal a b =
    List.equal
      (fun (x : Tveg.link) (y : Tveg.link) ->
        Interval.equal x.Tveg.iv y.Tveg.iv && Float.equal x.Tveg.dist y.Tveg.dist)
      a b
  in
  for i = 0 to 29 do
    for j = i + 1 to 29 do
      Alcotest.(check bool)
        (Printf.sprintf "links %d-%d deterministic" i j)
        true
        (links_equal (Tveg.links g1 i j) (Tveg.links g2 i j))
    done
  done;
  (* Hubs star their members and bridge to the next hub; members of
     different clusters never meet directly. *)
  Alcotest.(check bool) "hub star" true (Tveg.links g1 0 5 <> []);
  Alcotest.(check bool) "ring bridge" true (Tveg.links g1 0 10 <> []);
  Alcotest.(check bool) "member meeting" true (Tveg.links g1 3 7 <> []);
  Alcotest.(check bool) "no cross-cluster member contact" true (Tveg.links g1 3 13 = []);
  (* The backbone is cheap, member meetings are far. *)
  List.iter
    (fun (l : Tveg.link) ->
      Alcotest.(check bool) "near range" true (l.Tveg.dist >= 8. && l.Tveg.dist <= 16.))
    (Tveg.links g1 0 5);
  List.iter
    (fun (l : Tveg.link) ->
      Alcotest.(check bool) "far range" true (l.Tveg.dist >= 240. && l.Tveg.dist <= 420.))
    (Tveg.links g1 3 7);
  (* Broadcast from the first hub can reach everyone by the deadline. *)
  let arr = Tveg.earliest_arrival g1 ~src:0 ~t0:0. in
  Array.iteri
    (fun i a ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d reachable" i)
        true
        (a <= Scale.deadline ~params ()))
    arr

(* ------------------------------------------------------------------ *)
(* Dts.compute against the set-based closure it replaced, kept here as
   the reference: the closure loop is verbatim, except that it counts
   its truncation warning and returns its sets and arrivals instead of
   logging and building a [Dts.t]. *)

module Reference_dts = struct
  module FloatSet = Set.Make (Float)

  let base_points g ~deadline ~min_time i =
    Array.to_list (Tveg.adjacent_partition g i)
    |> List.filter (fun p -> p <= deadline && p >= min_time.(i))
    |> FloatSet.of_list

  let compute ?(cap_per_node = 4000) ?source g ~deadline =
    let warnings = ref 0 in
    let span = Tveg.span g in
    let n = Tveg.n g in
    let tau = Tveg.tau g in
    let min_time =
      match source with
      | None -> Array.make n span.Interval.lo
      | Some src -> Tveg.earliest_arrival g ~src ~t0:span.Interval.lo
    in
    let sets = Array.init n (fun i -> base_points g ~deadline ~min_time i) in
    begin
      let queue = Queue.create () in
      Array.iteri (fun i set -> FloatSet.iter (fun p -> Queue.add (0, i, p) queue) set) sets;
      let sizes = Array.map FloatSet.cardinal sets in
      let truncated = ref false in
      while not (Queue.is_empty queue) do
        let depth, i, p = Queue.pop queue in
        let p' = p +. tau in
        if depth < n - 1 && p' <= deadline then begin
          let nbrs = Tveg.neighbor_ids g i in
          for k = 0 to Array.length nbrs - 1 do
            let j = nbrs.(k) in
            if
              p' >= min_time.(j)
              && (not (!truncated && sizes.(j) >= cap_per_node))
              && Option.is_some (Tveg.nth_dist_at g i k p)
              && not (FloatSet.mem p' sets.(j))
            then begin
              if sizes.(j) < cap_per_node then begin
                sets.(j) <- FloatSet.add p' sets.(j);
                sizes.(j) <- sizes.(j) + 1;
                Queue.add (depth + 1, j, p') queue
              end
              else truncated := true
            end
          done
        end
      done;
      if !truncated then incr warnings
    end;
    Array.iteri
      (fun i s -> if FloatSet.is_empty s then sets.(i) <- FloatSet.singleton span.Interval.lo)
      sets;
    (Array.map (fun s -> Array.of_list (FloatSet.elements s)) sets, min_time, !warnings)
end

let count_dts_warnings f =
  let count = ref 0 in
  let reporter = Logs.reporter () and level = Logs.level () in
  Logs.set_level (Some Logs.Warning);
  Logs.set_reporter
    {
      Logs.report =
        (fun src lvl ~over k msgf ->
          if lvl = Logs.Warning && String.equal (Logs.Src.name src) "tmedb.dts" then incr count;
          msgf (fun ?header:_ ?tags:_ fmt ->
              Format.ikfprintf (fun _ -> over (); k ()) Format.std_formatter fmt));
    };
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter reporter;
      Logs.set_level level)
    (fun () ->
      let r = f () in
      (r, !count))

(* A graph like test_core's mixed-density one: a well-connected core
   with several records per pair and sparse single records elsewhere,
   on whole-second instants so that τ-shifted points collide. *)
let mixed_density ~rng ~tau =
  let n = 4 + Rng.int rng 7 in
  let dense = 2 + Rng.int rng 3 in
  let entries = ref [] in
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      let k = if i < dense && j < dense then 3 else if Rng.float rng 1. < 0.35 then 1 else 0 in
      for _ = 1 to k do
        let lo = Float.round (Rng.float rng 90.) in
        let hi = Float.min 100. (lo +. 2. +. Float.round (Rng.float rng 20.)) in
        entries := (i, j, link lo hi (5. +. Rng.float rng 50.)) :: !entries
      done
    done
  done;
  Tveg.create ~n ~span:(iv 0. 100.) ~tau (List.rev !entries)

let synth_graph ~rng ~tau =
  let params =
    { Tmedb_trace.Synth.default_params with Tmedb_trace.Synth.n = 4 + Rng.int rng 6; horizon = 3000. }
  in
  Tveg.of_trace ~tau (Tmedb_trace.Synth.generate rng params)

(* Points by bits, arrivals by bits, and the warning count, for every
   cap (1 and 2 start every node at the cap: each holds both span
   ends) and τ, with and without a source. *)
let prop_dts_matches_reference =
  QCheck.Test.make ~name:"compute = set-based closure, by bits" ~count:25
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let bits a = Array.map Int64.bits_of_float a in
      List.for_all
        (fun tau ->
          let rng = Rng.create seed in
          let g = if seed mod 2 = 0 then synth_graph ~rng ~tau else mixed_density ~rng ~tau in
          let span = Tveg.span g in
          let deadline =
            span.Interval.lo +. ((0.3 +. Rng.float rng 0.7) *. Interval.length span)
          in
          List.for_all
            (fun (cap_per_node, source) ->
              let d, w = count_dts_warnings (fun () -> Dts.compute ~cap_per_node ?source g ~deadline) in
              let points, arrival, w_ref =
                Reference_dts.compute ~cap_per_node ?source g ~deadline
              in
              w = w_ref
              && Array.length points = Dts.num_nodes d
              && List.for_all
                   (fun i ->
                     bits points.(i) = bits (Dts.node_points d i)
                     && Int64.equal (Int64.bits_of_float arrival.(i))
                          (Int64.bits_of_float (Dts.arrival d i)))
                   (List.init (Dts.num_nodes d) Fun.id))
            (List.concat_map
               (fun cap -> [ (cap, None); (cap, Some 0) ])
               [ 1; 2; 5; 24; 1_000_000 ]))
        [ 0.; 0.5; 1.; 3. ])

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "tveg"
    [
      ( "scale",
        [ Alcotest.test_case "deterministic and shaped" `Quick test_scale_deterministic_and_shaped ] );
      ( "tveg",
        [
          tc "links sorted" test_tveg_links_sorted;
          tc "dist_at" test_tveg_dist_at;
          tc "rho_tau" test_tveg_rho_tau;
          tc "ed_at" test_tveg_ed_at;
          tc "neighbors" test_tveg_neighbors;
          tc "of_trace" test_tveg_of_trace;
          tc "adjacent partition" test_tveg_adjacent_partition;
          tc "restrict" test_tveg_restrict;
          tc "validation" test_tveg_validation;
          QCheck_alcotest.to_alcotest prop_contact_store_model;
          QCheck_alcotest.to_alcotest prop_earliest_arrival_reference;
          tc "one rule: touching records" test_tveg_probe_touching;
          tc "one rule: overlapping records" test_tveg_probe_overlapping;
          tc "one rule: lone record" test_tveg_probe_alone;
          tc "deadline tie: EEDCB/SPT need arrival < T" test_tveg_deadline_tie;
          QCheck_alcotest.to_alcotest prop_planners_match_reachability;
        ] );
      ( "dts",
        [
          tc "tau0 adjacent points" test_dts_tau0_contains_adjacent_points;
          tc "tau0 closure copies" test_dts_tau0_closure_copies_points;
          tc "deadline clips" test_dts_deadline_clips;
          tc "tau>0 propagates" test_dts_tau_positive_propagates;
          tc "latest at or before" test_dts_latest_at_or_before;
          tc "index of point" test_dts_index_of_point;
          tc "cap truncates" test_dts_cap_truncates;
          tc "earliest at or after" test_dts_earliest_at_or_after;
          tc "source pruning" test_dts_source_pruning;
          tc "unreachable sentinel" test_dts_unreachable_sentinel;
          tc "bad deadline" test_dts_bad_deadline;
          tc "size bound tau0" test_dts_size_bound_tau0;
          QCheck_alcotest.to_alcotest prop_dts_points_in_range;
          tc "stream endpoints" test_stream_endpoints;
          tc "stream endpoints tau>0" test_stream_endpoints_tau_positive;
          tc "stream sentinel/source" test_stream_sentinel_and_source;
          tc "stream bad deadline" test_stream_bad_deadline;
          QCheck_alcotest.to_alcotest prop_stream_eager_tau0;
          QCheck_alcotest.to_alcotest prop_stream_eager_tau_positive;
          QCheck_alcotest.to_alcotest prop_stream_eager_source;
          QCheck_alcotest.to_alcotest prop_dts_matches_reference;
        ] );
      ( "prefix",
        [
          tc "view at closure deadline" test_view_at_closure_deadline;
          tc "arrival" test_view_arrival;
          tc "views compose" test_view_composes;
        ] );
      ( "dcs",
        [
          tc "static levels" test_dcs_static_levels;
          tc "rayleigh epsilon-cost" test_dcs_rayleigh_uses_epsilon_cost;
          tc "empty when isolated" test_dcs_empty_when_isolated;
          tc "drops beyond w_max" test_dcs_drops_beyond_wmax;
          tc "equal costs merge" test_dcs_equal_costs_merge;
          tc "level covering" test_dcs_level_covering;
          QCheck_alcotest.to_alcotest prop_dcs_nested;
          QCheck_alcotest.to_alcotest prop_dcs_kernel_matches_reference;
          QCheck_alcotest.to_alcotest prop_dcs_sweep_matches_point_kernel;
          tc "sweep rounded threshold" test_dcs_sweep_rounded_threshold;
        ] );
    ]
