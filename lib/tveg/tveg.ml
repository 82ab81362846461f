open Tmedb_prelude

type link = { iv : Interval.t; dist : float }
type channel = [ `Static | `Rayleigh | `Nakagami of float | `Lognormal of float ]

(* One unordered pair's contact history.  [segs] is sorted by segment
   start; [prefmax.(k)] is the max segment end over segs.(0..k), which
   bounds the leftward scan in [covering_link] (overlapping segments
   are rare, so lookups are O(log L) in practice).  [presence] is the
   normalised union of the segment intervals, read by the
   earliest-arrival scan and the degree average. *)
type pair = { segs : link array; prefmax : float array; presence : Interval_set.t }

(* Sparse storage: only pairs with at least one contact exist.
   [adj.(i)] lists node i's contact partners ascending and
   [pairs.(i).(k)] is the history shared with [adj.(i).(k)] (the same
   physical record from both endpoints), so an all-neighbours loop
   reads its pairs in order and a single pair is a binary search of
   [adj.(i)]. *)
type t = {
  n : int;
  span : Interval.t;
  tau : float;
  adj : int array array;
  pairs : pair array array;
}

let check_pair_n n i j op =
  if i < 0 || j < 0 || i >= n || j >= n then
    invalid_arg ("Tveg." ^ op ^ ": node out of range");
  if i = j then invalid_arg ("Tveg." ^ op ^ ": self-loop")

let check_pair t i j op = check_pair_n t.n i j op
let sort_links links = List.sort (fun a b -> Interval.compare a.iv b.iv) links

let make_pair segs_list =
  let segs = Array.of_list segs_list in
  let prefmax = Array.make (Array.length segs) Float.neg_infinity in
  let m = ref Float.neg_infinity in
  Array.iteri
    (fun k s ->
      m := Float.max !m s.iv.Interval.hi;
      prefmax.(k) <- !m)
    segs;
  let presence = Interval_set.of_list (List.map (fun s -> s.iv) segs_list) in
  { segs; prefmax; presence }

(* Assemble the aligned store from [(i, j, pair)] with i < j, each
   unordered pair at most once. *)
let of_pairs ~n ~span ~tau entries =
  let deg = Array.make n [] in
  List.iter
    (fun (i, j, p) ->
      deg.(i) <- (j, p) :: deg.(i);
      deg.(j) <- (i, p) :: deg.(j))
    entries;
  let rows =
    Array.map
      (fun l ->
        let a = Array.of_list l in
        Array.sort (fun (a, _) (b, _) -> Int.compare a b) a;
        a)
      deg
  in
  { n; span; tau; adj = Array.map (Array.map fst) rows; pairs = Array.map (Array.map snd) rows }

let create ~n ~span ~tau entries =
  if n <= 0 then invalid_arg "Tveg.create: n <= 0";
  if tau < 0. then invalid_arg "Tveg.create: negative tau";
  if not (Float.is_finite tau) then invalid_arg "Tveg.create: non-finite tau";
  (* Bucket every link under its pair's lower endpoint, newest entry
     first. *)
  let lower = Array.make n [] in
  List.iter
    (fun (i, j, link) ->
      check_pair_n n i j "create";
      if not (Interval.contains span link.iv) then
        invalid_arg "Tveg.create: link outside the span";
      if link.dist <= 0. then invalid_arg "Tveg.create: non-positive distance";
      if not (Float.is_finite link.dist) then invalid_arg "Tveg.create: non-finite distance";
      if i < j then lower.(i) <- (j, link) :: lower.(i)
      else lower.(j) <- (i, link) :: lower.(j))
    entries;
  (* Split each bucket by upper endpoint, keeping each pair's links
     newest first: the stable start-time sort preserves that order
     among equal segments, and it decides which one covers. *)
  let links = Array.make n [] in
  let pairs = ref [] in
  Array.iteri
    (fun i row ->
      List.iter (fun (j, l) -> links.(j) <- l :: links.(j)) (List.rev row);
      List.iter
        (fun (j, _) ->
          match links.(j) with
          | [] -> ()
          | ls ->
              pairs := (i, j, make_pair (sort_links ls)) :: !pairs;
              links.(j) <- [])
        row)
    lower;
  of_pairs ~n ~span ~tau !pairs

let of_trace ~tau trace =
  let open Tmedb_trace in
  let entries =
    List.map
      (fun c -> (c.Contact.a, c.Contact.b, { iv = c.Contact.iv; dist = c.Contact.dist }))
      (Trace.contacts trace)
  in
  create ~n:(Trace.n trace) ~span:(Trace.span trace) ~tau entries

let n t = t.n
let span t = t.span
let tau t = t.tau

(* The pair stored beside [j] in node [i]'s row: a binary search of
   the sorted [adj.(i)]. *)
let find_pair t i j =
  let a = t.adj.(i) in
  let rec go lo hi =
    if lo > hi then None
    else begin
      let mid = (lo + hi) / 2 in
      if a.(mid) = j then Some t.pairs.(i).(mid)
      else if a.(mid) < j then go (mid + 1) hi
      else go lo (mid - 1)
    end
  in
  go 0 (Array.length a - 1)

let links t i j =
  if i = j then []
  else begin
    check_pair t i j "links";
    match find_pair t i j with None -> [] | Some p -> Array.to_list p.segs
  end

let neighbor_ids t i =
  if i < 0 || i >= t.n then invalid_arg "Tveg.neighbor_ids: node out of range";
  t.adj.(i)

let presence t i j =
  if i = j then Interval_set.empty
  else begin
    check_pair t i j "presence";
    match find_pair t i j with None -> Interval_set.empty | Some p -> p.presence
  end

(* Index of the first covering segment in segment-start order (as
   the dense representation's [List.find_opt] returned), or -1.
   Binary-search the rightmost segment starting at or before [time],
   then scan left while the prefix could still contain a cover
   (prefmax > time), keeping the lowest-index hit. *)
let covering_idx p time =
  let len = Array.length p.segs in
  if len = 0 || time < p.segs.(0).iv.Interval.lo then -1
  else begin
    let lo = ref 0 and hi = ref len in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if p.segs.(mid).iv.Interval.lo <= time then lo := mid else hi := mid
    done;
    let best = ref (-1) in
    let k = ref !lo and scanning = ref true in
    while !scanning do
      if Interval.mem p.segs.(!k).iv time then best := !k;
      if !k = 0 || p.prefmax.(!k - 1) <= time then scanning := false else decr k
    done;
    !best
  end

(* The covering segment when a transmission started at [time] also
   completes on it (ρ_τ), or -1. *)
let live_idx t p time =
  let k = covering_idx p time in
  if k >= 0 && time +. t.tau < p.segs.(k).iv.Interval.hi then k else -1

let covering_link t i j time =
  if i = j then None
  else begin
    check_pair t i j "covering_link";
    match find_pair t i j with
    | None -> None
    | Some p ->
        let k = covering_idx p time in
        if k < 0 then None else Some p.segs.(k)
  end

let rho_tau t i j time =
  match covering_link t i j time with
  | None -> false
  | Some l -> time +. t.tau < l.iv.Interval.hi

let dist_at t i j time =
  match covering_link t i j time with
  | Some l when time +. t.tau < l.iv.Interval.hi -> Some l.dist
  | Some _ | None -> None

let ed_at t ~phy ~channel i j time =
  let open Tmedb_channel in
  match dist_at t i j time with
  | None -> Ed_function.Absent
  | Some dist -> Ed_function.of_distance phy channel ~dist

let iter_neighbors_at t i time f =
  let adj = t.adj.(i) and pairs = t.pairs.(i) in
  for k = 0 to Array.length adj - 1 do
    let p = pairs.(k) in
    let s = live_idx t p time in
    if s >= 0 then f adj.(k) p.segs.(s).dist
  done

let neighbors_at t i time =
  let acc = ref [] in
  iter_neighbors_at t i time (fun j d -> acc := (j, d) :: !acc);
  List.rev !acc

let nth_dist_at t i k time =
  let p = t.pairs.(i).(k) in
  let s = live_idx t p time in
  if s < 0 then None else Some p.segs.(s).dist

(* Every segment lies inside the span ([create] checks it and
   [restrict] clips to the new span), so the points need no filter. *)
let adjacent_partition t i =
  let pts = ref [] in
  Array.iter
    (fun p ->
      Array.iter (fun l -> pts := l.iv.Interval.lo :: l.iv.Interval.hi :: !pts) p.segs)
    t.pairs.(i);
  Array.of_list (List.sort_uniq Float.compare (t.span.Interval.lo :: t.span.Interval.hi :: !pts))

let average_degree_over t ~window =
  let clip = Interval_set.single window in
  let total = ref 0. in
  for i = 0 to t.n - 1 do
    Array.iteri
      (fun k j ->
        if j > i then
          total :=
            !total +. Interval_set.total_length (Interval_set.inter t.pairs.(i).(k).presence clip))
      t.adj.(i)
  done;
  2. *. !total /. (float_of_int t.n *. Interval.length window)

let restrict t ~span:sub =
  if not (Interval.contains t.span sub) then invalid_arg "Tveg.restrict: span not contained";
  let kept = ref [] in
  for i = t.n - 1 downto 0 do
    Array.iteri
      (fun k j ->
        if j > i then begin
          let clipped =
            Array.to_list t.pairs.(i).(k).segs
            |> List.filter_map (fun l ->
                   match Interval.inter l.iv sub with
                   | None -> None
                   | Some iv -> Some { l with iv })
          in
          match clipped with [] -> () | _ :: _ -> kept := (i, j, make_pair clipped) :: !kept
        end)
      t.adj.(i)
  done;
  of_pairs ~n:t.n ~span:sub ~tau:t.tau !kept

(* Temporal Dijkstra over each pair's presence windows: from a node
   reached at time [a], a window [lo, hi) can be traversed departing at
   max(a, lo) provided the traversal fits before [hi]. *)
let earliest_arrival t ~src ~t0 =
  if src < 0 || src >= t.n then invalid_arg "Tveg.earliest_arrival: src out of range";
  let arrivals = Array.make t.n Float.infinity in
  let settled = Array.make t.n false in
  let queue = Pqueue.create () in
  arrivals.(src) <- t0;
  Pqueue.push queue t0 src;
  let relax i a =
    Array.iteri
      (fun k j ->
        Interval_set.iter
          (fun iv ->
            let lo = iv.Interval.lo and hi = iv.Interval.hi in
            let depart = Float.max a lo in
            if depart +. t.tau < hi then begin
              let arr = depart +. t.tau in
              if arr < arrivals.(j) then begin
                arrivals.(j) <- arr;
                Pqueue.push queue arr j
              end
            end)
          t.pairs.(i).(k).presence)
      t.adj.(i)
  in
  let rec drain () =
    match Pqueue.pop queue with
    | None -> ()
    | Some (a, i) ->
        if not settled.(i) then begin
          settled.(i) <- true;
          relax i a
        end;
        drain ()
  in
  drain ();
  arrivals

let pp ppf t =
  let count = ref 0 in
  for i = 0 to t.n - 1 do
    Array.iteri
      (fun k j -> if j > i then count := !count + Array.length t.pairs.(i).(k).segs)
      t.adj.(i)
  done;
  Format.fprintf ppf "tveg{n=%d span=%a tau=%g links=%d}" t.n Interval.pp t.span t.tau !count
