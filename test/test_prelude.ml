(* Tests for the tmedb_prelude substrate: RNG, distributions,
   intervals, interval sets, priority queue, bitsets, union-find,
   statistics and float utilities. *)

open Tmedb_prelude

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let equal = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr equal
  done;
  check_bool "streams differ" true (!equal < 4)

let test_rng_int_bounds () =
  let g = Rng.create 7 in
  for _ = 1 to 10_000 do
    let x = Rng.int g 17 in
    check_bool "in range" true (0 <= x && x < 17)
  done

let test_rng_int_uniformity () =
  let g = Rng.create 11 in
  let counts = Array.make 8 0 in
  let trials = 80_000 in
  for _ = 1 to trials do
    let x = Rng.int g 8 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iter
    (fun c ->
      let expected = trials / 8 in
      check_bool "within 5% of uniform" true (abs (c - expected) < expected / 20))
    counts

let test_rng_invalid_bound () =
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int (Rng.create 1) 0))

let test_rng_unit_float_range () =
  let g = Rng.create 3 in
  for _ = 1 to 10_000 do
    let x = Rng.unit_float g in
    check_bool "in [0,1)" true (0. <= x && x < 1.)
  done

let test_rng_split_independent () =
  let g = Rng.create 5 in
  let h = Rng.split g in
  let xs = Array.init 32 (fun _ -> Rng.bits64 g) in
  let ys = Array.init 32 (fun _ -> Rng.bits64 h) in
  check_bool "split streams differ" true (xs <> ys)

let test_rng_copy_replays () =
  let g = Rng.create 9 in
  ignore (Rng.bits64 g);
  let h = Rng.copy g in
  check_bool "copy replays" true (Rng.bits64 g = Rng.bits64 h)

let test_rng_shuffle_permutation () =
  let g = Rng.create 13 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_pick () =
  let g = Rng.create 21 in
  let a = [| 3; 1; 4 |] in
  for _ = 1 to 100 do
    check_bool "picked member" true (Array.mem (Rng.pick g a) a)
  done;
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick g [||]))

(* ------------------------------------------------------------------ *)
(* Dist *)

let sample_mean n f =
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. f ()
  done;
  !acc /. float_of_int n

let test_dist_uniform_bounds () =
  let g = Rng.create 17 in
  for _ = 1 to 5000 do
    let x = Dist.uniform g ~lo:2. ~hi:5. in
    check_bool "in range" true (2. <= x && x < 5.)
  done

let test_dist_uniform_mean () =
  let g = Rng.create 19 in
  let m = sample_mean 50_000 (fun () -> Dist.uniform g ~lo:0. ~hi:10.) in
  check_bool "mean near 5" true (Float.abs (m -. 5.) < 0.1)

let test_dist_exponential_mean () =
  let g = Rng.create 23 in
  let m = sample_mean 100_000 (fun () -> Dist.exponential g ~rate:0.5) in
  check_bool "mean near 2" true (Float.abs (m -. 2.) < 0.05)

let test_dist_exponential_positive () =
  let g = Rng.create 29 in
  for _ = 1 to 1000 do
    check_bool "positive" true (Dist.exponential g ~rate:3. >= 0.)
  done

let test_dist_pareto_support () =
  let g = Rng.create 31 in
  for _ = 1 to 5000 do
    check_bool "x >= xm" true (Dist.pareto g ~xm:2. ~alpha:1.5 >= 2.)
  done

let test_dist_bounded_pareto_support () =
  let g = Rng.create 37 in
  for _ = 1 to 5000 do
    let x = Dist.bounded_pareto g ~lo:10. ~hi:100. ~alpha:0.5 in
    check_bool "in bounds" true (10. <= x && x <= 100.)
  done

let test_dist_bounded_pareto_skew () =
  (* Heavy lower concentration: the median must sit well below the
     arithmetic midpoint. *)
  let g = Rng.create 41 in
  let xs = Array.init 20_000 (fun _ -> Dist.bounded_pareto g ~lo:10. ~hi:1000. ~alpha:1.0) in
  check_bool "median below midpoint" true (Stats.median xs < 200.)

let test_dist_normal_moments () =
  let g = Rng.create 43 in
  let xs = Array.init 100_000 (fun _ -> Dist.normal g ~mu:3. ~sigma:2.) in
  check_bool "mean near 3" true (Float.abs (Stats.mean xs -. 3.) < 0.05);
  check_bool "stddev near 2" true (Float.abs (Stats.stddev xs -. 2.) < 0.05)

let test_dist_bernoulli_rate () =
  let g = Rng.create 47 in
  let hits = ref 0 in
  for _ = 1 to 50_000 do
    if Dist.bernoulli g ~p:0.3 then incr hits
  done;
  check_bool "rate near 0.3" true (Float.abs ((float_of_int !hits /. 50_000.) -. 0.3) < 0.02)

let test_dist_bernoulli_clamps () =
  let g = Rng.create 53 in
  check_bool "p>1 always true" true (Dist.bernoulli g ~p:2.);
  check_bool "p<0 always false" false (Dist.bernoulli g ~p:(-1.))

let test_dist_categorical () =
  let g = Rng.create 59 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let i = Dist.categorical g [| 1.; 2.; 1. |] in
    counts.(i) <- counts.(i) + 1
  done;
  check_bool "middle ~half" true (abs (counts.(1) - 15_000) < 1_000);
  Alcotest.check_raises "empty" (Invalid_argument "Dist.categorical: empty weights") (fun () ->
      ignore (Dist.categorical g [||]))

(* ------------------------------------------------------------------ *)
(* Interval *)

let iv lo hi = Interval.make ~lo ~hi

let test_interval_make_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Interval.make: need finite lo < hi")
    (fun () -> ignore (iv 1. 1.))

let test_interval_mem () =
  let i = iv 1. 2. in
  check_bool "lo in" true (Interval.mem i 1.);
  check_bool "hi out" false (Interval.mem i 2.);
  check_bool "mid in" true (Interval.mem i 1.5);
  check_bool "before out" false (Interval.mem i 0.)

let test_interval_overlap_touch () =
  check_bool "overlap" true (Interval.overlaps (iv 0. 2.) (iv 1. 3.));
  check_bool "abut no overlap" false (Interval.overlaps (iv 0. 1.) (iv 1. 2.));
  check_bool "abut touches" true (Interval.touches (iv 0. 1.) (iv 1. 2.));
  check_bool "gap no touch" false (Interval.touches (iv 0. 1.) (iv 1.5 2.))

let test_interval_inter_hull () =
  (match Interval.inter (iv 0. 2.) (iv 1. 3.) with
  | Some i -> check_bool "inter [1,2)" true (Interval.equal i (iv 1. 2.))
  | None -> Alcotest.fail "expected intersection");
  check_bool "disjoint inter none" true (Interval.inter (iv 0. 1.) (iv 2. 3.) = None);
  check_bool "hull" true (Interval.equal (Interval.hull (iv 0. 1.) (iv 2. 3.)) (iv 0. 3.))

let test_interval_shift_contains () =
  check_bool "shift" true (Interval.equal (Interval.shift (iv 1. 2.) 0.5) (iv 1.5 2.5));
  check_bool "contains" true (Interval.contains (iv 0. 10.) (iv 2. 3.));
  check_bool "not contains" false (Interval.contains (iv 2. 3.) (iv 0. 10.))

(* ------------------------------------------------------------------ *)
(* Interval_set *)

let set l = Interval_set.of_list (List.map (fun (a, b) -> iv a b) l)

let test_iset_normalizes () =
  let s = set [ (3., 4.); (0., 1.); (0.5, 2.) ] in
  check_int "merged overlap" 2 (Interval_set.cardinal s);
  check_float "length" 3. (Interval_set.total_length s)

let test_iset_merges_touching () =
  let s = set [ (0., 1.); (1., 2.) ] in
  check_int "abutting merge" 1 (Interval_set.cardinal s)

let test_iset_union () =
  let a = set [ (0., 1.); (4., 5.) ] and b = set [ (0.5, 4.2) ] in
  let u = Interval_set.union a b in
  check_int "one blob" 1 (Interval_set.cardinal u);
  check_float "span" 5. (Interval_set.total_length u)

let test_iset_inter () =
  let a = set [ (0., 2.); (3., 5.) ] and b = set [ (1., 4.) ] in
  let i = Interval_set.inter a b in
  check_int "two pieces" 2 (Interval_set.cardinal i);
  check_float "length 2" 2. (Interval_set.total_length i)

let test_iset_diff () =
  let a = set [ (0., 10.) ] and b = set [ (2., 3.); (5., 6.) ] in
  let d = Interval_set.diff a b in
  check_float "length 8" 8. (Interval_set.total_length d);
  check_bool "2.5 removed" false (Interval_set.mem d 2.5);
  check_bool "4 kept" true (Interval_set.mem d 4.)

let test_iset_complement () =
  let s = set [ (1., 2.); (3., 4.) ] in
  let c = Interval_set.complement s ~span:(iv 0. 5.) in
  check_float "complement length" 3. (Interval_set.total_length c);
  check_bool "0.5 in" true (Interval_set.mem c 0.5);
  check_bool "1.5 out" false (Interval_set.mem c 1.5)

let test_iset_covering () =
  let s = set [ (1., 2.); (3., 4.) ] in
  (match Interval_set.covering s 3.5 with
  | Some i -> check_bool "covers" true (Interval.equal i (iv 3. 4.))
  | None -> Alcotest.fail "expected covering interval");
  check_bool "gap none" true (Interval_set.covering s 2.5 = None)

let test_iset_boundaries () =
  let s = set [ (1., 2.); (3., 4.) ] in
  Alcotest.(check (list (float 0.))) "boundaries" [ 1.; 2.; 3.; 4. ] (Interval_set.boundaries s)

let test_iset_subset () =
  check_bool "subset" true (Interval_set.subset (set [ (1., 2.) ]) (set [ (0., 3.) ]));
  check_bool "not subset" false (Interval_set.subset (set [ (1., 4.) ]) (set [ (0., 3.) ]))

(* Properties: union length bounds, inter commutes, diff/inter
   partition. *)
let iset_gen =
  let open QCheck in
  let pair_gen =
    Gen.map
      (fun (a, b) ->
        let a = Float.of_int (a mod 100) /. 10. and b = Float.of_int (b mod 100) /. 10. in
        if a = b then (a, b +. 0.1) else if a < b then (a, b) else (b, a))
      Gen.(pair small_signed_int small_signed_int)
  in
  make
    ~print:(fun s -> Format.asprintf "%a" Interval_set.pp s)
    Gen.(map (fun l -> Interval_set.of_list (List.map (fun (a, b) -> iv a b) l))
           (list_size (int_bound 8) pair_gen))

let prop_union_length =
  QCheck.Test.make ~name:"iset union length <= sum of lengths" ~count:300
    (QCheck.pair iset_gen iset_gen) (fun (a, b) ->
      let u = Interval_set.union a b in
      let la = Interval_set.total_length a and lb = Interval_set.total_length b in
      let lu = Interval_set.total_length u in
      lu <= la +. lb +. 1e-9 && lu >= Float.max la lb -. 1e-9)

let prop_inter_commutes =
  QCheck.Test.make ~name:"iset inter commutes" ~count:300 (QCheck.pair iset_gen iset_gen)
    (fun (a, b) -> Interval_set.equal (Interval_set.inter a b) (Interval_set.inter b a))

let prop_diff_inter_partition =
  QCheck.Test.make ~name:"iset |a| = |a∩b| + |a\\b|" ~count:300 (QCheck.pair iset_gen iset_gen)
    (fun (a, b) ->
      let la = Interval_set.total_length a in
      let li = Interval_set.total_length (Interval_set.inter a b) in
      let ld = Interval_set.total_length (Interval_set.diff a b) in
      Float.abs (la -. (li +. ld)) < 1e-6)

let prop_union_mem =
  QCheck.Test.make ~name:"iset union membership" ~count:300
    (QCheck.triple iset_gen iset_gen (QCheck.float_range 0. 10.)) (fun (a, b, x) ->
      Interval_set.mem (Interval_set.union a b) x = (Interval_set.mem a x || Interval_set.mem b x))

(* Model-based properties: a raw (unsorted, overlapping) endpoint list
   is the naive model — membership is List.exists over half-open
   pairs.  The canonical set must agree with the model pointwise at
   and around every endpoint, and keep its representation invariants
   (non-empty members, sorted, strictly separated). *)
let raw_gen =
  let open QCheck in
  let pair_gen =
    Gen.map
      (fun (a, b) ->
        let a = Float.of_int (a mod 100) /. 10. and b = Float.of_int (b mod 100) /. 10. in
        if a = b then (a, b +. 0.1) else if a < b then (a, b) else (b, a))
      Gen.(pair small_signed_int small_signed_int)
  in
  make
    ~print:(Print.list (Print.pair Print.float Print.float))
    Gen.(list_size (int_bound 8) pair_gen)

let model_mem raw t = List.exists (fun (a, b) -> a <= t && t < b) raw

(* Endpoints, midpoints, and points just outside each raw interval —
   every place the canonical form could get a boundary wrong. *)
let sample_points raw =
  List.concat_map (fun (a, b) -> [ a -. 0.05; a; (a +. b) /. 2.; b; b +. 0.05 ]) raw

let prop_model_pointwise =
  QCheck.Test.make ~name:"iset of_list agrees with naive list model" ~count:300 raw_gen
    (fun raw ->
      let s = set raw in
      List.for_all (fun t -> Interval_set.mem s t = model_mem raw t) (0. :: sample_points raw))

let prop_model_ops =
  QCheck.Test.make ~name:"iset inter/diff agree with naive model" ~count:300
    (QCheck.pair raw_gen raw_gen) (fun (ra, rb) ->
      let a = set ra and b = set rb in
      let pts = 0. :: (sample_points ra @ sample_points rb) in
      List.for_all
        (fun t ->
          Interval_set.mem (Interval_set.inter a b) t = (model_mem ra t && model_mem rb t)
          && Interval_set.mem (Interval_set.diff a b) t
             = (model_mem ra t && not (model_mem rb t)))
        pts)

let prop_canonical_form =
  QCheck.Test.make ~name:"iset canonical form: sorted, separated, non-empty" ~count:300
    raw_gen (fun raw ->
      let members = Interval_set.intervals (set raw) in
      let non_empty = List.for_all (fun i -> i.Interval.lo < i.Interval.hi) members in
      let rec separated = function
        | a :: (b :: _ as rest) -> a.Interval.hi < b.Interval.lo && separated rest
        | [ _ ] | [] -> true
      in
      non_empty && separated members)

(* ------------------------------------------------------------------ *)
(* Pqueue *)

let test_pqueue_ordering () =
  let q = Pqueue.create () in
  List.iter (fun (p, v) -> Pqueue.push q p v) [ (3., 30); (1., 10); (2., 20) ];
  Alcotest.(check (option (pair (float 0.) int))) "min" (Some (1., 10)) (Pqueue.peek q);
  check_int "size" 3 (Pqueue.length q);
  let order = List.map snd (Pqueue.to_sorted_list q) in
  Alcotest.(check (list int)) "sorted" [ 10; 20; 30 ] order;
  check_int "non-destructive" 3 (Pqueue.length q)

let test_pqueue_pop_empty () =
  let q = Pqueue.create () in
  check_bool "empty pop" true (Pqueue.pop q = None);
  Alcotest.check_raises "pop_exn" (Invalid_argument "Pqueue.pop_exn: empty") (fun () ->
      ignore (Pqueue.pop_exn q))

let test_pqueue_random_stress () =
  let g = Rng.create 61 in
  let q = Pqueue.create () in
  let values = Array.init 2000 (fun _ -> Rng.unit_float g) in
  Array.iteri (fun i v -> Pqueue.push q v i) values;
  let drained = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | Some (p, _) ->
        drained := p :: !drained;
        drain ()
    | None -> ()
  in
  drain ();
  let got = Array.of_list (List.rev !drained) in
  let expected = Array.copy values in
  Array.sort Float.compare expected;
  Alcotest.(check (array (float 0.))) "heap sorts" expected got

let test_pqueue_duplicates () =
  let q = Pqueue.create () in
  Pqueue.push q 1. 1;
  Pqueue.push q 1. 2;
  check_int "both kept" 2 (Pqueue.length q)

(* The polymorphic swap-based heap [Pqueue] replaced, kept verbatim as
   the reference for its pop order. *)
module Ref_heap = struct
  type 'a entry = { prio : float; value : 'a }
  type 'a t = { mutable data : 'a entry array; mutable size : int }

  let create () = { data = [||]; size = 0 }

  let grow q entry =
    let cap = Array.length q.data in
    if q.size = cap then begin
      let ncap = Stdlib.max 16 (2 * cap) in
      let ndata = Array.make ncap entry in
      Array.blit q.data 0 ndata 0 q.size;
      q.data <- ndata
    end

  let rec sift_up data i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if data.(i).prio < data.(parent).prio then begin
        let tmp = data.(i) in
        data.(i) <- data.(parent);
        data.(parent) <- tmp;
        sift_up data parent
      end
    end

  let rec sift_down data size i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < size && data.(l).prio < data.(!smallest).prio then smallest := l;
    if r < size && data.(r).prio < data.(!smallest).prio then smallest := r;
    if !smallest <> i then begin
      let tmp = data.(i) in
      data.(i) <- data.(!smallest);
      data.(!smallest) <- tmp;
      sift_down data size !smallest
    end

  let push q prio value =
    let entry = { prio; value } in
    grow q entry;
    q.data.(q.size) <- entry;
    q.size <- q.size + 1;
    sift_up q.data (q.size - 1)

  let pop q =
    if q.size = 0 then None
    else begin
      let top = q.data.(0) in
      q.size <- q.size - 1;
      if q.size > 0 then begin
        q.data.(0) <- q.data.(q.size);
        sift_down q.data q.size 0
      end;
      Some (top.prio, top.value)
    end
end

(* Random push/pop interleavings over four keys (heavy ties; infinity
   included) pop the same (key, payload) sequence from both heaps.
   Each op is (key index, push?); payloads are op positions, so every
   tie is visible.  Both heaps are drained at the end. *)
let prop_pqueue_matches_reference =
  let keys = [| 0.; 1.5; 2.; Float.infinity |] in
  QCheck.Test.make ~name:"pops in the reference heap's order" ~count:300
    QCheck.(list_of_size Gen.(0 -- 400) (pair (int_bound 3) (int_bound 3)))
    (fun ops ->
      let q = Pqueue.create () and r = Ref_heap.create () in
      let same = ref true in
      let pop_both () =
        let a = Pqueue.pop q and b = Ref_heap.pop r in
        if a <> b then same := false;
        a <> None
      in
      List.iteri
        (fun i (key, op) ->
          if op = 0 then ignore (pop_both ())
          else begin
            Pqueue.push q keys.(key) i;
            Ref_heap.push r keys.(key) i
          end)
        ops;
      while pop_both () do
        ()
      done;
      !same)

(* ------------------------------------------------------------------ *)
(* Bitset *)

let test_bitset_basic () =
  let b = Bitset.create 70 in
  check_int "empty" 0 (Bitset.cardinal b);
  Bitset.set b 0;
  Bitset.set b 69;
  Bitset.set b 33;
  check_int "three" 3 (Bitset.cardinal b);
  check_bool "mem 33" true (Bitset.mem b 33);
  Bitset.clear b 33;
  check_bool "cleared" false (Bitset.mem b 33);
  check_int "two" 2 (Bitset.cardinal b)

let test_bitset_bounds () =
  let b = Bitset.create 8 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset.set: out of range") (fun () ->
      Bitset.set b 8)

let test_bitset_union_subset () =
  let a = Bitset.of_list 10 [ 1; 3; 5 ] in
  let b = Bitset.of_list 10 [ 3; 5; 7 ] in
  check_int "inter" 2 (Bitset.inter_cardinal a b);
  check_int "diff" 1 (Bitset.diff_cardinal a b);
  check_bool "not subset" false (Bitset.subset a b);
  let c = Bitset.copy a in
  Bitset.union_into ~dst:c b;
  check_int "union" 4 (Bitset.cardinal c);
  check_bool "a subset union" true (Bitset.subset a c)

let test_bitset_fill_iter () =
  let b = Bitset.create 12 in
  Bitset.fill b;
  check_int "full" 12 (Bitset.cardinal b);
  Alcotest.(check (list int)) "to_list" (List.init 12 Fun.id) (Bitset.to_list b)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_basic () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_float "mean" 5. (Stats.mean xs);
  check_bool "variance" true (Float.abs (Stats.variance xs -. 4.571428571) < 1e-6);
  check_float "median" 4.5 (Stats.median xs);
  check_float "p0" 2. (Stats.percentile xs 0.);
  check_float "p100" 9. (Stats.percentile xs 100.)

let test_stats_single () =
  check_float "variance of one" 0. (Stats.variance [| 5. |]);
  check_float "median of one" 5. (Stats.median [| 5. |])

let test_stats_online_matches_batch () =
  let g = Rng.create 67 in
  let xs = Array.init 1000 (fun _ -> Rng.unit_float g) in
  let o = Stats.Online.create () in
  Array.iter (Stats.Online.add o) xs;
  check_bool "mean agrees" true (Float.abs (Stats.Online.mean o -. Stats.mean xs) < 1e-12);
  check_bool "var agrees" true (Float.abs (Stats.Online.variance o -. Stats.variance xs) < 1e-9)

let test_stats_histogram () =
  let h = Stats.histogram [| 0.; 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9. |] ~bins:5 in
  check_int "bins" 5 (Array.length h);
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  check_int "all counted" 10 total

let test_stats_linear_fit () =
  let slope, intercept = Stats.linear_fit [| (0., 1.); (1., 3.); (2., 5.) |] in
  check_float "slope" 2. slope;
  check_float "intercept" 1. intercept

let test_stats_empty_raises () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty input") (fun () ->
      ignore (Stats.mean [||]))

(* ------------------------------------------------------------------ *)
(* Futil *)

let test_futil_approx_eq () =
  check_bool "close" true (Futil.approx_eq 1.0 (1.0 +. 1e-12));
  check_bool "far" false (Futil.approx_eq 1.0 1.1)

let test_futil_clamp () =
  check_float "below" 0. (Futil.clamp ~lo:0. ~hi:1. (-3.));
  check_float "above" 1. (Futil.clamp ~lo:0. ~hi:1. 3.);
  check_float "inside" 0.5 (Futil.clamp ~lo:0. ~hi:1. 0.5)

let test_futil_linspace () =
  let xs = Futil.linspace ~lo:0. ~hi:1. ~n:5 in
  check_int "count" 5 (Array.length xs);
  check_float "first" 0. xs.(0);
  check_float "last" 1. xs.(4);
  check_float "step" 0.25 xs.(1)

let test_futil_kahan () =
  let xs = Array.make 10_000 0.1 in
  check_bool "compensated" true (Float.abs (Futil.kahan_sum xs -. 1000.) < 1e-9)

let test_futil_argmin_argmax () =
  check_int "argmin" 1 (Futil.argmin [| 3.; 1.; 2. |]);
  check_int "argmax" 0 (Futil.argmax [| 3.; 1.; 2. |])

let test_futil_db () =
  check_float "0 dB" 1. (Futil.db_to_linear 0.);
  check_float "10 dB" 10. (Futil.db_to_linear 10.);
  check_bool "roundtrip" true (Futil.approx_eq (Futil.linear_to_db (Futil.db_to_linear 25.9)) 25.9)

(* ------------------------------------------------------------------ *)
(* Json *)

let bench_sample =
  Json.Obj
    [
      ("bench_pr", Json.Num 1.);
      ("jobs", Json.Num 4.);
      ("deterministic", Json.Bool true);
      ( "kernels",
        Json.List
          [
            Json.Obj
              [
                ("name", Json.Str "fig4-sweep");
                ("seconds_1", Json.Num 0.25);
                ("seconds_jobs", Json.Num 0.125);
                ("speedup", Json.Num 2.);
              ];
          ] );
    ]

let test_json_roundtrip () =
  List.iter
    (fun indent ->
      match Json.parse (Json.to_string ~indent bench_sample) with
      | Ok parsed ->
          check_bool (Printf.sprintf "roundtrip indent=%d" indent) true (parsed = bench_sample)
      | Error e -> Alcotest.fail e)
    [ 0; 2 ]

let test_json_parse_literals () =
  check_bool "null" true (Json.parse "null" = Ok Json.Null);
  check_bool "negative exponent" true (Json.parse "-1.5e2" = Ok (Json.Num (-150.)));
  check_bool "escapes" true
    (Json.parse {|" a\"b\nA "|} = Ok (Json.Str " a\"b\nA "));
  check_bool "nested" true
    (Json.parse {|{"a": [1, true, "x"]}|}
    = Ok (Json.Obj [ ("a", Json.List [ Json.Num 1.; Json.Bool true; Json.Str "x" ]) ]))

let test_json_parse_errors () =
  let fails s =
    match Json.parse s with Ok _ -> false | Error _ -> true
  in
  check_bool "truncated" true (fails {|{"a": 1|});
  check_bool "trailing garbage" true (fails "1 2");
  check_bool "bare word" true (fails "nope");
  check_bool "empty" true (fails "")

let test_json_accessors () =
  check_bool "member hit" true
    (Json.member "jobs" bench_sample = Some (Json.Num 4.));
  check_bool "member miss" true (Json.member "absent" bench_sample = None);
  check_bool "member non-obj" true (Json.member "x" (Json.Num 1.) = None);
  check_bool "to_float" true (Json.to_float (Json.Num 3.5) = Some 3.5);
  check_bool "to_float miss" true (Json.to_float Json.Null = None);
  (match Json.member "kernels" bench_sample with
  | Some kernels -> (
      match Json.to_list kernels with
      | Some [ k ] ->
          check_bool "kernel name" true (Json.member "name" k = Some (Json.Str "fig4-sweep"))
      | Some _ | None -> Alcotest.fail "expected a one-kernel list")
  | None -> Alcotest.fail "expected kernels field")

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "prelude"
    [
      ( "rng",
        [
          tc "deterministic" test_rng_deterministic;
          tc "seeds differ" test_rng_seeds_differ;
          tc "int bounds" test_rng_int_bounds;
          tc "int uniformity" test_rng_int_uniformity;
          tc "invalid bound" test_rng_invalid_bound;
          tc "unit float range" test_rng_unit_float_range;
          tc "split independent" test_rng_split_independent;
          tc "copy replays" test_rng_copy_replays;
          tc "shuffle permutation" test_rng_shuffle_permutation;
          tc "pick" test_rng_pick;
        ] );
      ( "dist",
        [
          tc "uniform bounds" test_dist_uniform_bounds;
          tc "uniform mean" test_dist_uniform_mean;
          tc "exponential mean" test_dist_exponential_mean;
          tc "exponential positive" test_dist_exponential_positive;
          tc "pareto support" test_dist_pareto_support;
          tc "bounded pareto support" test_dist_bounded_pareto_support;
          tc "bounded pareto skew" test_dist_bounded_pareto_skew;
          tc "normal moments" test_dist_normal_moments;
          tc "bernoulli rate" test_dist_bernoulli_rate;
          tc "bernoulli clamps" test_dist_bernoulli_clamps;
          tc "categorical" test_dist_categorical;
        ] );
      ( "interval",
        [
          tc "make invalid" test_interval_make_invalid;
          tc "mem" test_interval_mem;
          tc "overlap/touch" test_interval_overlap_touch;
          tc "inter/hull" test_interval_inter_hull;
          tc "shift/contains" test_interval_shift_contains;
        ] );
      ( "interval_set",
        [
          tc "normalizes" test_iset_normalizes;
          tc "merges touching" test_iset_merges_touching;
          tc "union" test_iset_union;
          tc "inter" test_iset_inter;
          tc "diff" test_iset_diff;
          tc "complement" test_iset_complement;
          tc "covering" test_iset_covering;
          tc "boundaries" test_iset_boundaries;
          tc "subset" test_iset_subset;
          QCheck_alcotest.to_alcotest prop_union_length;
          QCheck_alcotest.to_alcotest prop_inter_commutes;
          QCheck_alcotest.to_alcotest prop_diff_inter_partition;
          QCheck_alcotest.to_alcotest prop_union_mem;
          QCheck_alcotest.to_alcotest prop_model_pointwise;
          QCheck_alcotest.to_alcotest prop_model_ops;
          QCheck_alcotest.to_alcotest prop_canonical_form;
        ] );
      ( "pqueue",
        [
          tc "ordering" test_pqueue_ordering;
          tc "pop empty" test_pqueue_pop_empty;
          tc "random stress" test_pqueue_random_stress;
          tc "duplicates" test_pqueue_duplicates;
          QCheck_alcotest.to_alcotest prop_pqueue_matches_reference;
        ] );
      ( "bitset",
        [
          tc "basic" test_bitset_basic;
          tc "bounds" test_bitset_bounds;
          tc "union/subset" test_bitset_union_subset;
          tc "fill/iter" test_bitset_fill_iter;
        ] );
      ( "stats",
        [
          tc "basic" test_stats_basic;
          tc "single" test_stats_single;
          tc "online matches batch" test_stats_online_matches_batch;
          tc "histogram" test_stats_histogram;
          tc "linear fit" test_stats_linear_fit;
          tc "empty raises" test_stats_empty_raises;
        ] );
      ( "futil",
        [
          tc "approx_eq" test_futil_approx_eq;
          tc "clamp" test_futil_clamp;
          tc "linspace" test_futil_linspace;
          tc "kahan" test_futil_kahan;
          tc "argmin/argmax" test_futil_argmin_argmax;
          tc "db" test_futil_db;
        ] );
      ( "json",
        [
          tc "roundtrip" test_json_roundtrip;
          tc "parse literals" test_json_parse_literals;
          tc "parse errors" test_json_parse_errors;
          tc "accessors" test_json_accessors;
        ] );
    ]
