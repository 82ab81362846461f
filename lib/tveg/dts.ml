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

type t = { deadline : float; points : float array array }

let base_points g ~deadline ~min_time i =
  let pts = Tmedb_tvg.Partition.points (Tveg.adjacent_partition g i) in
  Array.to_list pts
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
  let t = { deadline; points = Array.map (fun s -> Array.of_list (FloatSet.elements s)) sets } in
  Tmedb_obs.Counter.add c_points
    (Array.fold_left (fun acc pts -> acc + Array.length pts) 0 t.points);
  Tmedb_obs.Timer.stop t_compute tc;
  t

module Stream = struct
  (* Telemetry mirrors the eager counters: [dts.stream_points] counts
     closure points actually generated (once per stream, however many
     deadlines view them) while [dts.stream_views] counts the per-
     deadline DTS snapshots assembled from the shared stream. *)
  let c_creates = Tmedb_obs.Counter.make "dts.stream_creates"
  let c_stream_points = Tmedb_obs.Counter.make "dts.stream_points"
  let c_views = Tmedb_obs.Counter.make "dts.stream_views"
  let t_advance = Tmedb_obs.Timer.make "dts.stream_advance"

  (* Minimal growable float array: points are appended in ascending
     time order, so each node's buffer stays sorted by construction. *)
  type grow = { mutable data : float array; mutable len : int }

  let grow_make () = { data = Array.make 8 nan; len = 0 }

  let grow_push gr x =
    if gr.len = Array.length gr.data then begin
      let d = Array.make (2 * gr.len) nan in
      Array.blit gr.data 0 d 0 gr.len;
      gr.data <- d
    end;
    gr.data.(gr.len) <- x;
    gr.len <- gr.len + 1

  (* Number of stored points strictly below [x]. *)
  let grow_below gr x =
    let lo = ref 0 and hi = ref gr.len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if gr.data.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo

  type stream = {
    g : Tveg.t;
    n : int;
    tau : float;
    span : Interval.t;
    cap : int;
    min_time : float array;
    base : (float * int) array;  (* (time, node), sorted by time then node *)
    mutable base_cursor : int;
    (* τ > 0 propagation leaves its bucket; generated arrival times are
       monotone in the generating bucket, so a FIFO stays time-sorted. *)
    arrivals : (float * int * int) Queue.t;  (* (time, node, depth) *)
    pts : grow array;
    mutable horizon : float;  (* every event at or before it is processed *)
    mutable truncated : bool;
    mutable warned : bool;
    (* per-bucket scratch (reset via the touched list after each bucket) *)
    frontier : int list array;
    depth_of : int array;
  }

  let create ?(cap_per_node = 4000) ?source g =
    Tmedb_obs.Counter.incr c_creates;
    let span = Tveg.span g in
    let n = Tveg.n g in
    let min_time =
      match source with
      | None -> Array.make n span.Interval.lo
      | Some src -> Tveg.earliest_arrival g ~src ~t0:span.Interval.lo
    in
    (* The per-deadline view re-adds the deadline itself (the clipped
       partition endpoint of the restricted graph), so the stream only
       carries base points strictly inside the span. *)
    let base =
      List.init n (fun i ->
          Tmedb_tvg.Partition.points (Tveg.adjacent_partition g i)
          |> Array.to_list
          |> List.filter (fun p -> p < span.Interval.hi && p >= min_time.(i))
          |> List.map (fun p -> (p, i)))
      |> List.concat
      |> List.sort (fun (pa, ia) (pb, ib) ->
             let c = Float.compare pa pb in
             if c <> 0 then c else Int.compare ia ib)
      |> Array.of_list
    in
    {
      g;
      n;
      tau = Tveg.tau g;
      span;
      cap = cap_per_node;
      min_time;
      base;
      base_cursor = 0;
      arrivals = Queue.create ();
      pts = Array.init n (fun _ -> grow_make ());
      horizon = Float.neg_infinity;
      truncated = false;
      warned = false;
      frontier = Array.make (Int.max n 1) [];
      depth_of = Array.make n (-1);
    }

  let has_point s i t =
    let gr = s.pts.(i) in
    gr.len > 0 && Float.equal gr.data.(gr.len - 1) t

  (* Base points bypass the cap, matching the eager construction where
     only τ-propagation is capped. *)
  let add_base s i t =
    if not (has_point s i t) then begin
      grow_push s.pts.(i) t;
      Tmedb_obs.Counter.incr c_stream_points
    end

  let add_closure s i t =
    if has_point s i t then true
    else if s.pts.(i).len < s.cap then begin
      grow_push s.pts.(i) t;
      Tmedb_obs.Counter.incr c_stream_points;
      true
    end
    else begin
      s.truncated <- true;
      false
    end

  (* One time bucket.  All of the bucket's base events and (τ > 0)
     queued arrivals are drained first; with τ = 0 the closure lives
     entirely inside the bucket (a layered BFS over the instant graph,
     which yields the same min-depth point set as the eager FIFO BFS),
     while with τ > 0 every propagation lands in a strictly later
     bucket, so the seeds only emit future arrivals. *)
  let process_bucket s t =
    let nbase = Array.length s.base in
    let base_nodes = ref [] in
    while
      s.base_cursor < nbase && Float.equal (fst s.base.(s.base_cursor)) t
    do
      base_nodes := snd s.base.(s.base_cursor) :: !base_nodes;
      s.base_cursor <- s.base_cursor + 1
    done;
    let base_nodes = List.rev !base_nodes in
    let arrival_seeds = ref [] in
    let draining = ref true in
    while !draining do
      match Queue.peek_opt s.arrivals with
      | Some (ta, j, d) when Float.equal ta t ->
          ignore (Queue.pop s.arrivals);
          arrival_seeds := (j, d) :: !arrival_seeds
      | _ -> draining := false
    done;
    let touched = ref [] in
    if Float.equal s.tau 0. then begin
      List.iter
        (fun i ->
          add_base s i t;
          if s.depth_of.(i) < 0 then begin
            s.depth_of.(i) <- 0;
            touched := i :: !touched;
            s.frontier.(0) <- i :: s.frontier.(0)
          end)
        base_nodes;
      for d = 0 to s.n - 1 do
        let layer = List.rev s.frontier.(d) in
        s.frontier.(d) <- [];
        if d < s.n - 1 then
          List.iter
            (fun i ->
              Tveg.iter_neighbors_at s.g i t (fun j _dist ->
                  if
                    t >= s.min_time.(j)
                    && (not (has_point s j t))
                    && s.depth_of.(j) < 0
                    && add_closure s j t
                  then begin
                    s.depth_of.(j) <- d + 1;
                    touched := j :: !touched;
                    s.frontier.(d + 1) <- j :: s.frontier.(d + 1)
                  end))
            layer
      done
    end
    else begin
      (* Base seeds first, at depth 0 — exactly as the eager BFS seeds
         every base point before processing any propagation — then the
         arrivals at their minimum depth over all generating buckets
         (the eager FIFO pops sources in depth order, so its first
         insertion carries that same minimum). *)
      List.iter
        (fun i ->
          add_base s i t;
          if s.depth_of.(i) < 0 then begin
            s.depth_of.(i) <- 0;
            touched := i :: !touched
          end)
        base_nodes;
      List.iter
        (fun (j, d) ->
          if s.depth_of.(j) < 0 then begin
            s.depth_of.(j) <- d;
            touched := j :: !touched
          end
          else if d < s.depth_of.(j) then s.depth_of.(j) <- d)
        (List.rev !arrival_seeds);
      List.iter
        (fun j ->
          let d = s.depth_of.(j) in
          if (has_point s j t || add_closure s j t) && d < s.n - 1 then
            Tveg.iter_neighbors_at s.g j t (fun k _dist ->
                let p' = t +. s.tau in
                if p' < s.span.Interval.hi && p' >= s.min_time.(k) then
                  Queue.add (p', k, d + 1) s.arrivals))
        (List.sort Int.compare !touched)
    end;
    List.iter (fun i -> s.depth_of.(i) <- -1) !touched

  let advance s ~horizon =
    if horizon > s.span.Interval.hi then
      invalid_arg "Dts.Stream.advance: horizon beyond the graph span";
    if horizon > s.horizon then begin
      let tc = Tmedb_obs.Timer.start t_advance in
      let next_time () =
        let bt =
          if s.base_cursor < Array.length s.base then
            Some (fst s.base.(s.base_cursor))
          else None
        in
        let at =
          match Queue.peek_opt s.arrivals with
          | Some (t, _, _) -> Some t
          | None -> None
        in
        match (bt, at) with
        | None, None -> None
        | (Some _ as t), None | None, (Some _ as t) -> t
        | Some a, Some b -> Some (Float.min a b)
      in
      let continue = ref true in
      while !continue do
        match next_time () with
        | Some t when t <= horizon -> process_bucket s t
        | _ -> continue := false
      done;
      s.horizon <- horizon;
      if s.truncated && not s.warned then begin
        s.warned <- true;
        Log.warn (fun m ->
            m "streaming DTS propagation truncated at %d points per node" s.cap)
      end;
      Tmedb_obs.Timer.stop t_advance tc
    end

  let dts_at s ~deadline =
    if deadline > s.span.Interval.hi || deadline <= s.span.Interval.lo then
      invalid_arg "Dts.Stream.dts_at: deadline outside the graph span";
    advance s ~horizon:deadline;
    Tmedb_obs.Counter.incr c_views;
    let points =
      Array.init s.n (fun i ->
          if s.min_time.(i) > deadline then [| s.span.Interval.lo |]
          else begin
            (* Strict prefix below the deadline, then the deadline
               itself: the restricted graph's partition always ends at
               its clipped span endpoint, and points at exactly the
               deadline never propagate (ρ_τ is strict), so this is
               precisely the eager restricted-graph point set. *)
            let gr = s.pts.(i) in
            let k = grow_below gr deadline in
            Array.init (k + 1) (fun l ->
                if l < k then gr.data.(l) else deadline)
          end)
    in
    { deadline; points }

  let min_time s i = s.min_time.(i)

  let generated s i =
    let gr = s.pts.(i) in
    Array.sub gr.data 0 gr.len

  let truncated s = s.truncated
  let horizon s = s.horizon
end

let deadline t = t.deadline
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

let earliest_at_or_after t i time =
  let pts = t.points.(i) in
  let n = Array.length pts in
  if n = 0 || time > pts.(n - 1) then None
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi > !lo do
      let mid = (!lo + !hi) / 2 in
      if pts.(mid) >= time then hi := mid else lo := mid + 1
    done;
    Some pts.(!lo)
  end

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
