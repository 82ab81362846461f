open Tmedb_prelude

type link = { iv : Interval.t; dist : float }
type channel = [ `Static | `Rayleigh | `Nakagami of float | `Lognormal of float ]

(* One unordered pair's contact history in canonical form: [segs] are
   disjoint pieces sorted by start, each with the distance of the first
   record (in start order) covering its instants, and [run_hi.(k)] is
   the end of the maximal run of touching pieces containing segs.(k) —
   the pair is present throughout [t, run_hi.(k)) for t in that piece. *)
type pair = { segs : link array; run_hi : float array }

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

(* Canonical pieces of records sorted by start, newest first among
   equal intervals.  With [frontier] the largest end seen so far, a
   record ending past it owns [max lo frontier, hi): exactly the
   instants where it is the first record covering.  A record inside
   the frontier owns nothing.  Disjoint sorted pieces map to
   themselves, so [restrict] can rebuild from clipped pieces. *)
let make_pair records =
  let frontier = ref Float.neg_infinity in
  let segs =
    List.filter_map
      (fun l ->
        let hi = l.iv.Interval.hi in
        if hi <= !frontier then None
        else begin
          let piece =
            if l.iv.Interval.lo >= !frontier then l
            else { l with iv = Interval.make ~lo:!frontier ~hi }
          in
          frontier := hi;
          Some piece
        end)
      records
    |> Array.of_list
  in
  let len = Array.length segs in
  let run_hi = Array.make len 0. in
  for k = len - 1 downto 0 do
    let hi = segs.(k).iv.Interval.hi in
    run_hi.(k) <-
      (if k + 1 < len && Float.equal hi segs.(k + 1).iv.Interval.lo then run_hi.(k + 1) else hi)
  done;
  { segs; run_hi }

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
     among equal intervals, and [make_pair] gives the piece to the
     first of them. *)
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

(* The pair's history, or [None] for [i = j] or a pair with no
   contact. *)
let pair_opt t i j op =
  if i = j then None
  else begin
    check_pair t i j op;
    find_pair t i j
  end

let links t i j = match pair_opt t i j "links" with None -> [] | Some p -> Array.to_list p.segs

let neighbor_ids t i =
  if i < 0 || i >= t.n then invalid_arg "Tveg.neighbor_ids: node out of range";
  t.adj.(i)

(* The rightmost piece starting at or before [time], or -1. *)
let locate p time =
  let segs = p.segs in
  let len = Array.length segs in
  if len = 0 || time < segs.(0).iv.Interval.lo then -1
  else begin
    let lo = ref 0 and hi = ref len in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if segs.(mid).iv.Interval.lo <= time then lo := mid else hi := mid
    done;
    !lo
  end

(* The one contact rule: the piece containing [time] when a
   transmission started then completes, i.e. its run of touching
   pieces reaches past time + τ; else -1.  A [time] past the located
   piece's end lies in a gap, where that piece's run has ended too. *)
let live_idx t p time =
  let k = locate p time in
  if k >= 0 && time +. t.tau < p.run_hi.(k) then k else -1

(* The one departure rule: the earliest instant >= [after] at which
   the pair is live, or infinity.  A run [lo, run_hi) is live on
   [lo, run_hi - τ), so walk the pieces from the one located at
   [after] until one departs in time. *)
let depart_after t p after =
  let segs = p.segs in
  let rec go k =
    if k >= Array.length segs then Float.infinity
    else begin
      let d = Float.max after segs.(k).iv.Interval.lo in
      if d +. t.tau < p.run_hi.(k) then d else go (k + 1)
    end
  in
  go (Int.max 0 (locate p after))

let rho_tau t i j time =
  match pair_opt t i j "rho_tau" with None -> false | Some p -> live_idx t p time >= 0

let dist_at t i j time =
  match pair_opt t i j "dist_at" with
  | None -> None
  | Some p ->
      let k = live_idx t p time in
      if k < 0 then None else Some p.segs.(k).dist

let earliest_departure t i j ~after =
  match pair_opt t i j "earliest_departure" with
  | None -> Float.infinity
  | Some p -> depart_after t p after

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

let iter_live_spans t i f =
  let adj = t.adj.(i) and pairs = t.pairs.(i) in
  for k = 0 to Array.length adj - 1 do
    let p = pairs.(k) in
    Array.iteri
      (fun s l ->
        let lo = l.iv.Interval.lo and run_hi = p.run_hi.(s) in
        if lo +. t.tau < run_hi then f adj.(k) lo l.iv.Interval.hi run_hi l.dist)
      p.segs
  done

let neighbors_at t i time =
  let acc = ref [] in
  iter_neighbors_at t i time (fun j d -> acc := (j, d) :: !acc);
  List.rev !acc

let nth_dist_at t i k time =
  let p = t.pairs.(i).(k) in
  let s = live_idx t p time in
  if s < 0 then None else Some p.segs.(s).dist

let nth_live t i k time = live_idx t t.pairs.(i).(k) time >= 0

(* Every piece lies inside the span ([create] checks it and [restrict]
   clips to the new span), so the points need no filter. *)
let adjacent_partition t i =
  let pts = ref [] in
  Array.iter
    (fun p ->
      Array.iter (fun l -> pts := l.iv.Interval.lo :: l.iv.Interval.hi :: !pts) p.segs)
    t.pairs.(i);
  Array.of_list (List.sort_uniq Float.compare (t.span.Interval.lo :: t.span.Interval.hi :: !pts))

(* A pair's presence is the union of its runs; each run starts at a
   piece that does not touch its predecessor. *)
let average_degree_over t ~window =
  let total = ref 0. in
  for i = 0 to t.n - 1 do
    Array.iteri
      (fun k j ->
        if j > i then begin
          let p = t.pairs.(i).(k) in
          let present = ref 0. in
          Array.iteri
            (fun r s ->
              if r = 0 || p.segs.(r - 1).iv.Interval.hi < s.iv.Interval.lo then begin
                let lo = Float.max s.iv.Interval.lo window.Interval.lo in
                let hi = Float.min p.run_hi.(r) window.Interval.hi in
                if lo < hi then present := !present +. (hi -. lo)
              end)
            p.segs;
          total := !total +. !present
        end)
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

(* Temporal Dijkstra: from a node reached at time [a], each neighbour
   is reached at the pair's earliest departure after [a] plus τ. *)
let earliest_arrival t ~src ~t0 =
  if src < 0 || src >= t.n then invalid_arg "Tveg.earliest_arrival: src out of range";
  let arrivals = Array.make t.n Float.infinity in
  let settled = Array.make t.n false in
  let queue = Pqueue.create () in
  arrivals.(src) <- t0;
  Pqueue.push queue t0 src;
  let relax i a =
    let pairs = t.pairs.(i) in
    Array.iteri
      (fun k j ->
        let arr = depart_after t pairs.(k) a +. t.tau in
        if arr < arrivals.(j) then begin
          arrivals.(j) <- arr;
          Pqueue.push queue arr j
        end)
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
