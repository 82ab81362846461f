open Tmedb_prelude

let log_src = Logs.Src.create "tmedb.dts" ~doc:"Discrete time set construction"

module Log = (val Logs.src_log log_src : Logs.LOG)
module FloatSet = Set.Make (Float)

(* Telemetry: [dts.points] accumulates the total points of every
   computed DTS — with the auxiliary-graph counters it exposes how the
   discretisation scales (the paper's O(N^2 L) / O(N^3 L) bounds). *)
let c_computes = Tmedb_obs.Counter.make "dts.computes"
let c_points = Tmedb_obs.Counter.make "dts.points"
let t_compute = Tmedb_obs.Timer.make "dts.compute"

(* [arrival] is each node's earliest packet arrival from the source
   ([lo] everywhere when no source was given): {!view} needs it to
   tell the sentinel nodes of a smaller deadline apart. *)
type t = { deadline : float; lo : float; points : float array array; arrival : float array }

let base_points g ~deadline ~min_time i =
  Array.to_list (Tveg.adjacent_partition g i)
  |> List.filter (fun p -> p <= deadline && p >= min_time.(i))
  |> FloatSet.of_list

let compute ?(cap_per_node = 4000) ?source g ~deadline =
  Tmedb_obs.Counter.incr c_computes;
  let tc = Tmedb_obs.Timer.start t_compute in
  let span = Tveg.span g in
  if deadline > span.Interval.hi || deadline <= span.Interval.lo then
    invalid_arg "Dts.compute: deadline outside the graph span";
  let n = Tveg.n g in
  let tau = Tveg.tau g in
  (* Knowing the source lets us drop every point of a node that
     precedes its earliest possible packet arrival: the node cannot
     be informed there, so neither its status nor its usefulness as a
     relay can change.  This prunes nothing the optimal schedule could
     use and shrinks the auxiliary graph substantially. *)
  let min_time =
    match source with
    | None -> Array.make n span.Interval.lo
    | Some src -> Tveg.earliest_arrival g ~src ~t0:span.Interval.lo
  in
  let sets = Array.init n (fun i -> base_points g ~deadline ~min_time i) in
  begin
    (* Close the point sets under τ-propagation along possible
       transmissions, bounded by non-stop journey length.  With τ = 0
       this copies each point to the nodes reachable at that instant,
       so receive times are always points of the receiver. *)
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
          (* Once the cap has bitten, a full neighbour could only set
             [truncated] again: skip it before its contact lookup. *)
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
    if !truncated then
      Log.warn (fun m -> m "DTS propagation truncated at %d points per node" cap_per_node)
  end;
  (* Every node keeps at least one point so that it can serve as an
     auxiliary-graph terminal even when unreachable by the deadline. *)
  Array.iteri
    (fun i s -> if FloatSet.is_empty s then sets.(i) <- FloatSet.singleton span.Interval.lo)
    sets;
  let t =
    {
      deadline;
      lo = span.Interval.lo;
      points = Array.map (fun s -> Array.of_list (FloatSet.elements s)) sets;
      arrival = min_time;
    }
  in
  Tmedb_obs.Counter.add c_points
    (Array.fold_left (fun acc pts -> acc + Array.length pts) 0 t.points);
  Tmedb_obs.Timer.stop t_compute tc;
  t

let view t ~deadline =
  if deadline > t.deadline || deadline <= t.lo then
    invalid_arg "Dts.view: deadline outside (span start, closure deadline]";
  (* The [deadline]-clipped graph has the same contacts below the
     deadline, and ρ_τ is strict at interval ends: its closure points
     below the deadline are this closure's, a point at exactly the
     deadline (its clipped partition endpoint) never propagates, and
     an arrival at or past the deadline is no arrival at all. *)
  let points =
    Array.mapi
      (fun i pts ->
        if t.arrival.(i) >= deadline then [| t.lo |]
        else begin
          let k = ref 0 in
          while !k < Array.length pts && pts.(!k) < deadline do
            incr k
          done;
          Array.init (!k + 1) (fun l -> if l < !k then pts.(l) else deadline)
        end)
      t.points
  in
  { t with deadline; points }

let deadline t = t.deadline
let arrival t i = t.arrival.(i)
let node_points t i = t.points.(i)
let total_points t = Array.fold_left (fun acc pts -> acc + Array.length pts) 0 t.points
let num_nodes t = Array.length t.points

let latest_at_or_before t i time =
  let pts = t.points.(i) in
  let n = Array.length pts in
  if n = 0 || time < pts.(0) then None
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi > !lo do
      let mid = (!lo + !hi + 1) / 2 in
      if pts.(mid) <= time then lo := mid else hi := mid - 1
    done;
    Some pts.(!lo)
  end

let index_at_or_after t i time =
  let pts = t.points.(i) in
  let lo = ref 0 and hi = ref (Array.length pts) in
  while !hi > !lo do
    let mid = (!lo + !hi) / 2 in
    if pts.(mid) >= time then hi := mid else lo := mid + 1
  done;
  !lo

let earliest_at_or_after t i time =
  let k = index_at_or_after t i time in
  if k < Array.length t.points.(i) then Some t.points.(i).(k) else None

let index_of_point t i p =
  let pts = t.points.(i) in
  let rec search lo hi =
    if lo > hi then None
    else begin
      let mid = (lo + hi) / 2 in
      if Float.equal pts.(mid) p then Some mid
      else if pts.(mid) < p then search (mid + 1) hi
      else search lo (mid - 1)
    end
  in
  search 0 (Array.length pts - 1)

let pp ppf t =
  Format.fprintf ppf "dts{deadline=%g nodes=%d points=%d}" t.deadline (num_nodes t)
    (total_points t)
