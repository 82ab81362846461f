open Tmedb_prelude

type result = { dist : float array; pred : int array }

(* Telemetry: every (multi-source) run and warm restart is counted and
   timed; [dijkstra.settled] counts queue pops that survived the
   lazy-deletion check (the classic work measure of the algorithm). *)
let c_runs = Tmedb_obs.Counter.make "dijkstra.runs"
let c_settled = Tmedb_obs.Counter.make "dijkstra.settled"
let t_run = Tmedb_obs.Timer.make "dijkstra.run"
let h_relaxations = Tmedb_obs.Histogram.make "dijkstra.relaxations"

(* Early-termination bookkeeping: a bit per vertex marking the targets
   not yet settled, plus their count.  When the count reaches zero the
   drain may stop: settled vertices carry final distances and their
   predecessor chains consist of settled vertices only (pop order is
   nondecreasing with non-negative weights), so every read a caller is
   allowed to make — dist/pred at a target, or a pred walk from one —
   is identical to the full drain's. *)
type stop_set = { want : Bitset.t; mutable pending : int }

let stop_set_of n targets =
  match targets with
  | None -> None
  | Some ts ->
      let want = Bitset.create n in
      let pending = ref 0 in
      List.iter
        (fun v ->
          if v < 0 || v >= n then invalid_arg "Dijkstra: target out of range";
          if not (Bitset.mem want v) then begin
            Bitset.set want v;
            incr pending
          end)
        ts;
      Some { want; pending = !pending }

(* Lazy-deletion Dijkstra: stale queue entries are skipped by the
   distance check, which makes warm restarts (pushing extra sources
   into an already-relaxed state) sound with non-negative weights.
   With a stop set, the drain ends as soon as every target has been
   settled (or the queue empties first — unreachable targets degrade
   gracefully to a full drain).  Returns the number of successful
   relaxations (distance improvements), the per-run distribution
   measure.

   Nothing is allocated per pop: the relaxation closure is built once
   per drain and reads the vertex being settled from [u].  It reads
   that vertex's distance from [dist] rather than the popped key: the
   keys pushed for one vertex strictly decrease and the smallest pops
   first, so a settled entry's key always equals [dist.(u)], and
   relaxing [u]'s own edges (weights >= 0) cannot lower [dist.(u)]. *)
let drain ?stop (vw : Digraph.view) dist pred queue =
  let relaxed = ref 0 in
  let u = ref (-1) in
  let relax v w =
    let nd = dist.(!u) +. w in
    if nd < dist.(v) then begin
      dist.(v) <- nd;
      pred.(v) <- !u;
      incr relaxed;
      Pqueue.push queue nd v
    end
  in
  while
    (match stop with Some s -> s.pending > 0 | None -> true) && not (Pqueue.is_empty queue)
  do
    let d = Pqueue.min_prio queue in
    u := Pqueue.min_value queue;
    Pqueue.remove_min queue;
    if d <= dist.(!u) then begin
      Tmedb_obs.Counter.incr c_settled;
      (match stop with
      | Some s when Bitset.mem s.want !u ->
          Bitset.clear s.want !u;
          s.pending <- s.pending - 1
      | Some _ | None -> ());
      vw.Digraph.iter_succ !u relax
    end
  done;
  !relaxed

let run_multi_view ?targets (vw : Digraph.view) ~sources =
  Tmedb_obs.Counter.incr c_runs;
  let tr = Tmedb_obs.Timer.start t_run in
  let n = vw.Digraph.nv in
  if sources = [] then invalid_arg "Dijkstra.run_multi: empty sources";
  List.iter
    (fun src -> if src < 0 || src >= n then invalid_arg "Dijkstra.run_multi: src out of range")
    sources;
  let stop = stop_set_of n targets in
  let dist = Array.make n Float.infinity in
  let pred = Array.make n (-1) in
  let queue = Pqueue.create () in
  List.iter
    (fun src ->
      dist.(src) <- 0.;
      Pqueue.push queue 0. src)
    sources;
  Tmedb_obs.Histogram.observe h_relaxations (drain ?stop vw dist pred queue);
  Tmedb_obs.Timer.stop t_run tr;
  { dist; pred }

let run_multi ?targets g ~sources = run_multi_view ?targets (Digraph.view g) ~sources

let run_view ?targets vw ~src =
  if src < 0 || src >= vw.Digraph.nv then invalid_arg "Dijkstra.run: src out of range";
  run_multi_view ?targets vw ~sources:[ src ]

let run ?targets g ~src = run_view ?targets (Digraph.view g) ~src

let refine_view ?targets (vw : Digraph.view) r ~new_sources =
  Tmedb_obs.Counter.incr c_runs;
  let tr = Tmedb_obs.Timer.start t_run in
  let n = vw.Digraph.nv in
  let stop = stop_set_of n targets in
  let queue = Pqueue.create () in
  List.iter
    (fun src ->
      if src < 0 || src >= n then invalid_arg "Dijkstra.refine: src out of range";
      if r.dist.(src) > 0. then begin
        r.dist.(src) <- 0.;
        r.pred.(src) <- -1;
        Pqueue.push queue 0. src
      end)
    new_sources;
  Tmedb_obs.Histogram.observe h_relaxations (drain ?stop vw r.dist r.pred queue);
  Tmedb_obs.Timer.stop t_run tr

let refine ?targets g r ~new_sources = refine_view ?targets (Digraph.view g) r ~new_sources

let path r ~src ~dst =
  if not (Float.is_finite r.dist.(dst)) then None
  else begin
    let rec walk v acc =
      if v = src then Some (src :: acc)
      else begin
        let p = r.pred.(v) in
        if p < 0 then if v = src then Some (src :: acc) else None
        else walk p (v :: acc)
      end
    in
    (* A multi-source result may stop at a different source; accept
       any predecessor-root as the path head in that case. *)
    match walk dst [] with
    | Some p -> Some p
    | None ->
        let rec walk_any v acc =
          let p = r.pred.(v) in
          if p < 0 then Some (v :: acc) else walk_any p (v :: acc)
        in
        walk_any dst []
  end

let path_edges_view (vw : Digraph.view) r ~src ~dst =
  match path r ~src ~dst with
  | None -> None
  | Some vertices ->
      let rec pair = function
        | u :: (v :: _ as rest) -> (
            match Digraph.view_edge_weight vw u v with
            | Some w -> (
                match pair rest with Some tl -> Some ((u, v, w) :: tl) | None -> None)
            | None -> None)
        | _ -> Some []
      in
      pair vertices

let path_edges g r ~src ~dst = path_edges_view (Digraph.view g) r ~src ~dst
