open Tmedb_prelude

let log_src = Logs.Src.create "tmedb.dts" ~doc:"Discrete time set construction"

module Log = (val Logs.src_log log_src : Logs.LOG)

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

(* Node [i]'s depth-0 points: its adjacent partition, sorted and unique
   under [Float.compare], cut to [min_time.(i), deadline] — one
   contiguous run of it. *)
let base_points g ~deadline ~min_time i =
  let pts = Tveg.adjacent_partition g i in
  let len = Array.length pts in
  let a = ref 0 in
  while !a < len && not (pts.(!a) >= min_time.(i)) do
    incr a
  done;
  let b = ref !a in
  while !b < len && pts.(!b) <= deadline do
    incr b
  done;
  Array.sub pts !a (!b - !a)

(* Whether the sorted [pts] holds a point equal to [p] by
   [Float.compare] ([Float.equal]: -0 and 0 are one point, as in a
   [Set.Make (Float)]). *)
let mem_sorted (pts : float array) p =
  let lo = ref 0 and hi = ref (Array.length pts) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Float.compare pts.(mid) p < 0 then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length pts && Float.equal pts.(!lo) p

(* The propagated points in the order they were found, in parallel
   unboxed arrays grown by doubling.  They double as the membership
   set of propagated points: [slots] is an open-addressing table of
   queue positions (plus one; 0 is free) keyed by node and point, with
   points equal by [Float.compare] ([+. 0.] folds -0 onto 0 before
   hashing). *)
type queue = {
  mutable node : int array;
  mutable depth : int array;
  mutable time : float array;
  mutable len : int;
  mutable slots : int array;
}

let queue () = { node = [||]; depth = [||]; time = [||]; len = 0; slots = Array.make 16 0 }

let slot_of slots j p =
  let b = Int64.to_int (Int64.bits_of_float (p +. 0.)) in
  let h = ((b lxor (b lsr 29)) + j) * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 32)) land (Array.length slots - 1)

let mem_queued q j p =
  let slots = q.slots in
  let mask = Array.length slots - 1 in
  let s = ref (slot_of slots j p) and found = ref false in
  while (not !found) && slots.(!s) > 0 do
    let e = slots.(!s) - 1 in
    if q.node.(e) = j && Float.equal q.time.(e) p then found := true
    else s := (!s + 1) land mask
  done;
  !found

let index_slot slots q e =
  let mask = Array.length slots - 1 in
  let s = ref (slot_of slots q.node.(e) q.time.(e)) in
  while slots.(!s) > 0 do
    s := (!s + 1) land mask
  done;
  slots.(!s) <- e + 1

let push q j p depth =
  if q.len = Array.length q.node then begin
    let cap = max 16 (2 * q.len) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 q.len;
      b
    in
    q.node <- grow q.node 0;
    q.depth <- grow q.depth 0;
    q.time <- grow q.time 0.
  end;
  let e = q.len in
  q.node.(e) <- j;
  q.depth.(e) <- depth;
  q.time.(e) <- p;
  q.len <- e + 1;
  (* Keep the table at most half full. *)
  if 2 * q.len > Array.length q.slots then begin
    let slots = Array.make (2 * Array.length q.slots) 0 in
    for e' = 0 to e - 1 do
      index_slot slots q e'
    done;
    q.slots <- slots
  end;
  index_slot q.slots q e

(* The sorted union of two sorted arrays with no point in common. *)
let merge (a : float array) (b : float array) =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) 0. in
  let i = ref 0 and k = ref 0 in
  for o = 0 to la + lb - 1 do
    if !k >= lb || (!i < la && Float.compare a.(!i) b.(!k) < 0) then begin
      out.(o) <- a.(!i);
      incr i
    end
    else begin
      out.(o) <- b.(!k);
      incr k
    end
  done;
  out

(* Each node's points: its base run merged with the points propagated
   to it, sorted; a node with neither keeps [lo] alone. *)
let assemble ~lo base q =
  let n = Array.length base in
  let start = Array.make (n + 1) 0 in
  for e = 0 to q.len - 1 do
    start.(q.node.(e) + 1) <- start.(q.node.(e) + 1) + 1
  done;
  for j = 1 to n do
    start.(j) <- start.(j) + start.(j - 1)
  done;
  let fill = Array.sub start 0 n and prop = Array.make q.len 0. in
  for e = 0 to q.len - 1 do
    let j = q.node.(e) in
    prop.(fill.(j)) <- q.time.(e);
    fill.(j) <- fill.(j) + 1
  done;
  Array.mapi
    (fun j b ->
      let len = start.(j + 1) - start.(j) in
      if len = 0 then if Array.length b = 0 then [| lo |] else b
      else begin
        let mine = Array.sub prop start.(j) len in
        Array.sort Float.compare mine;
        merge b mine
      end)
    base

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
  let base = Array.init n (fun i -> base_points g ~deadline ~min_time i) in
  let q = queue () in
  begin
    (* Close the point sets under τ-propagation along possible
       transmissions, bounded by non-stop journey length.  With τ = 0
       this copies each point to the nodes reachable at that instant,
       so receive times are always points of the receiver.  The order
       is breadth-first: every node's depth-0 points, node by node,
       then the propagated points as they were found. *)
    let sizes = Array.map Array.length base in
    let below = ref 0 in
    Array.iter (fun size -> if size < cap_per_node then incr below) sizes;
    let truncated = ref false in
    (* Once the cap has bitten and no node is below it, every check
       fails the cap test: nothing can change any more. *)
    let settled () = !truncated && !below = 0 in
    let propagate depth i p =
      let p' = p +. tau in
      if depth < n - 1 && p' <= deadline then begin
        let nbrs = Tveg.neighbor_ids g i in
        let k = ref 0 in
        while !k < Array.length nbrs && not (settled ()) do
          let j = nbrs.(!k) in
          (* Once the cap has bitten, a full neighbour could only set
             [truncated] again: skip it before its contact lookup. *)
          if
            p' >= min_time.(j)
            && (not (!truncated && sizes.(j) >= cap_per_node))
            && Tveg.nth_live g i !k p
            && not (mem_sorted base.(j) p' || mem_queued q j p')
          then begin
            if sizes.(j) < cap_per_node then begin
              push q j p' (depth + 1);
              sizes.(j) <- sizes.(j) + 1;
              if sizes.(j) = cap_per_node then decr below
            end
            else truncated := true
          end;
          incr k
        done
      end
    in
    Array.iteri
      (fun i pts -> Array.iter (fun p -> if not (settled ()) then propagate 0 i p) pts)
      base;
    let head = ref 0 in
    while !head < q.len && not (settled ()) do
      propagate q.depth.(!head) q.node.(!head) q.time.(!head);
      incr head
    done;
    if !truncated then
      Log.warn (fun m -> m "DTS propagation truncated at %d points per node" cap_per_node)
  end;
  (* Every node keeps at least one point so that it can serve as an
     auxiliary-graph terminal even when unreachable by the deadline. *)
  let t =
    { deadline; lo = span.Interval.lo; points = assemble ~lo:span.Interval.lo base q; arrival = min_time }
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
