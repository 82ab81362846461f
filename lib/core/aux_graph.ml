open Tmedb_tveg
open Tmedb_steiner

(* Telemetry: the auxiliary graph's size is the paper's main scaling
   quantity (Section VI-A); vertices/edges accumulate over builds so a
   sweep's totals land in one snapshot. *)
let c_builds = Tmedb_obs.Counter.make "aux_graph.builds"
let c_vertices = Tmedb_obs.Counter.make "aux_graph.vertices"
let c_edges = Tmedb_obs.Counter.make "aux_graph.edges"
let t_build = Tmedb_obs.Timer.make "aux_graph.build"
let h_point_edges = Tmedb_obs.Histogram.make "aux_graph.point_edges"

(* Lazy-expansion telemetry: the universe a lazy graph *would* have if
   built eagerly, versus the vertices/edges whose successors were
   actually generated.  The gap is the frontier cut. *)
let c_lazy_creates = Tmedb_obs.Counter.make "aux_graph.lazy_creates"
let c_lazy_nodes_total = Tmedb_obs.Counter.make "aux_graph.lazy_nodes_total"
let c_nodes_mat = Tmedb_obs.Counter.make "aux_graph.nodes_materialized"
let c_edges_mat = Tmedb_obs.Counter.make "aux_graph.edges_materialized"
let t_lazy_create = Tmedb_obs.Timer.make "aux_graph.lazy_create"

type vertex =
  | Wait of { node : int; point_idx : int; time : float }
  | Level of { node : int; point_idx : int; time : float; level_idx : int; cum_cost : float }

type t = {
  graph : Digraph.t;
  vertex : vertex array;
  source_vertex : int;
  terminals : int list;
  base : int array;
  problem : Problem.t;
}

let build_body (problem : Problem.t) dts =
  let g = problem.Problem.graph in
  let phy = problem.Problem.phy in
  let channel = problem.Problem.channel in
  let n = Tveg.n g in
  let tau = Tveg.tau g in
  let deadline = Dts.deadline dts in
  (* Wait vertices first, contiguous per node. *)
  let base = Array.make n 0 in
  let total_wait = ref 0 in
  for i = 0 to n - 1 do
    base.(i) <- !total_wait;
    total_wait := !total_wait + Array.length (Dts.node_points dts i)
  done;
  let vertices = ref [] (* level vertices, reversed *) in
  let next_id = ref !total_wait in
  let edges = ref [] in
  let edge_count = ref 0 in
  let add_edge u v w =
    incr edge_count;
    edges := (u, v, w) :: !edges
  in
  for i = 0 to n - 1 do
    let pts = Dts.node_points dts i in
    Array.iteri
      (fun l t ->
        let edges_before = !edge_count in
        (* Waiting chain. *)
        if l + 1 < Array.length pts then add_edge (base.(i) + l) (base.(i) + l + 1) 0.;
        (* Transmission level chain, when the transmission can finish. *)
        if t +. tau <= deadline then begin
          let levels = Dcs.marginals_at g ~phy ~channel ~node:i ~time:t in
          let prev_vertex = ref (base.(i) + l) in
          let prev_cost = ref 0. in
          List.iteri
            (fun level_idx { Dcs.cost; fresh } ->
              let x = !next_id in
              incr next_id;
              vertices :=
                Level { node = i; point_idx = l; time = t; level_idx; cum_cost = cost }
                :: !vertices;
              add_edge !prev_vertex x (cost -. !prev_cost);
              List.iter
                (fun j ->
                  let t_recv = t +. tau in
                  let target_idx =
                    match Dts.index_of_point dts j t_recv with
                    | Some f -> Some f
                    | None -> (
                        (* The exact receive instant fell to the DTS
                           propagation cap: round forward, which only
                           delays j's informed time — sound, possibly
                           suboptimal. *)
                        match Dts.earliest_at_or_after dts j t_recv with
                        | Some p -> Dts.index_of_point dts j p
                        | None -> None)
                  in
                  match target_idx with
                  | Some f -> add_edge x (base.(j) + f) 0.
                  | None -> ())
                fresh;
              prev_vertex := x;
              prev_cost := cost)
            levels
        end;
        Tmedb_obs.Histogram.observe h_point_edges (!edge_count - edges_before))
      pts
  done;
  let vertex = Array.make !next_id (Wait { node = 0; point_idx = 0; time = 0. }) in
  for i = 0 to n - 1 do
    Array.iteri
      (fun l t -> vertex.(base.(i) + l) <- Wait { node = i; point_idx = l; time = t })
      (Dts.node_points dts i)
  done;
  List.iteri
    (fun k v -> vertex.(!next_id - 1 - k) <- v)
    !vertices;
  let graph = Digraph.of_edges ~n:!next_id !edges in
  let source_vertex = base.(problem.Problem.source) in
  let terminals =
    List.filter_map
      (fun i ->
        if i = problem.Problem.source then None
        else begin
          let len = Array.length (Dts.node_points dts i) in
          if len = 0 then None else Some (base.(i) + len - 1)
        end)
      (List.init n (fun i -> i))
  in
  { graph; vertex; source_vertex; terminals; base; problem }

let build problem dts =
  Tmedb_obs.Counter.incr c_builds;
  let t0 = Tmedb_obs.Timer.start t_build in
  let t =
    Tmedb_obs.Span.with_ "aux_graph.build" (fun () -> build_body problem dts)
  in
  Tmedb_obs.Timer.stop t_build t0;
  Tmedb_obs.Counter.add c_vertices (Digraph.n t.graph);
  Tmedb_obs.Counter.add c_edges (Digraph.m t.graph);
  t

let wait_vertex t ~node ~point_idx =
  (* Wait vertices are contiguous per node starting at [base.(node)],
     so the lookup is one offset add instead of an O(V) scan. *)
  if node < 0 || node >= Array.length t.base || point_idx < 0 then None
  else begin
    let id = t.base.(node) + point_idx in
    if id >= Array.length t.vertex then None
    else
      match t.vertex.(id) with
      | Wait w when w.node = node && w.point_idx = point_idx -> Some id
      | Wait _ | Level _ -> None
  end

(* Neighbours served by [node] transmitting at [time] up to DCS level
   [level_idx]: the union of the per-level marginals (ascending id). *)
let covered_up_to t ~node ~time ~level_idx =
  let p = t.problem in
  Dcs.marginals_at p.Problem.graph ~phy:p.Problem.phy ~channel:p.Problem.channel ~node ~time
  |> List.filteri (fun i _ -> i <= level_idx)
  |> List.concat_map (fun m -> m.Dcs.fresh)
  |> List.sort_uniq Int.compare

(* Shared schedule extraction: the eager graph describes a vertex by
   array lookup, the lazy one by id arithmetic plus a memoised block;
   [covered] recomputes a chosen level's covered-neighbour set for
   provenance.  Everything else — deepest-level choice, deterministic
   key order, emitted events — is common and must stay identical for
   the eager/lazy digest equivalence. *)
let extract_schedule_with ~describe ~covered (tree : Dst.tree) =
  (* Deepest chosen level per (node, DTS point), remembering the tree
     edge that reached it (the provenance witness). *)
  let best = Hashtbl.create 16 in
  let note id edge =
    match describe id with
    | Wait _ -> ()
    | Level { node; point_idx; time; level_idx; cum_cost } -> (
        let key = (node, point_idx) in
        match Hashtbl.find_opt best key with
        | Some (c, _, _, _) when c >= cum_cost -> ()
        | Some _ | None -> Hashtbl.replace best key (cum_cost, (node, time), level_idx, edge))
  in
  List.iter
    (fun (u, v, _) ->
      note u (u, v);
      note v (u, v))
    tree.Dst.edges;
  (* Extract in (node, point) key order so the transmission list never
     depends on hash-bucket layout (lint rule R1); [of_transmissions]
     re-sorts by (time, relay, cost), which cannot distinguish exact
     duplicates. *)
  let chosen =
    List.sort compare (Hashtbl.fold (fun key payload acc -> (key, payload) :: acc) best [])
  in
  if Tmedb_report.Provenance.enabled () then
    List.iter
      (fun ((node, point_idx), (cost, (_, time), level_idx, edge)) ->
        Tmedb_report.Provenance.emit
          (Tmedb_report.Provenance.Schedule_entry
             {
               node;
               time;
               cost;
               point_idx;
               level_idx;
               covered = covered ~node ~time ~level_idx;
               tree_edge = Some edge;
             }))
      chosen;
  let txs =
    List.map (fun (_, (cost, (relay, time), _, _)) -> { Schedule.relay; time; cost }) chosen
  in
  Schedule.of_transmissions txs

let extract_schedule t tree =
  extract_schedule_with
    ~describe:(fun id -> t.vertex.(id))
    ~covered:(fun ~node ~time ~level_idx -> covered_up_to t ~node ~time ~level_idx)
    tree

let num_wait_vertices t =
  Array.fold_left
    (fun acc v -> match v with Wait _ -> acc + 1 | Level _ -> acc)
    0 t.vertex

let num_level_vertices t = Array.length t.vertex - num_wait_vertices t

(* Covered-neighbour recomputation shared by the eager and lazy
   extractors (provenance only — never on the solve path). *)
let covered_from_problem (p : Problem.t) ~node ~time ~level_idx =
  Dcs.marginals_at p.Problem.graph ~phy:p.Problem.phy ~channel:p.Problem.channel ~node ~time
  |> List.filteri (fun i _ -> i <= level_idx)
  |> List.concat_map (fun m -> m.Dcs.fresh)
  |> List.sort_uniq Int.compare

module Lazy = struct
  open Tmedb_prelude

  (* Memoised per-(node, point) transmission block: the DCS marginals
     of one wait vertex, reshaped for O(1) level access.  The
     neighbour-to-level index only serves reverse queries, so it is
     built by the first one (forward-only scans never pay for it). *)
  type block = {
    costs : float array;  (* cumulative clamped level costs, ascending *)
    fresh : int array array;  (* newly covered neighbours per level, ascending *)
    mutable level_of : int array option;
        (* [j * nlev + k] for each neighbour j first covered at level k,
           ascending: ordered by neighbour, the level in the residue *)
  }

  type t = {
    problem : Problem.t;
    dts : Dts.t;
    tau : float;
    base : int array;  (* wait-vertex base id per node *)
    total_wait : int;
    level_off : int array;  (* per-block level-id prefix, length total_wait+1 *)
    first_cost : float array;
        (* per block, its first level's cost (the wait -> level-0 edge),
           recorded by the sizing pass so no block is built to read it *)
    nv : int;
    edge_bound : int;  (* edges the eager build would emit, at most *)
    source_vertex : int;
    terminals : int list;
    marginals : node:int -> time:float -> Dcs.marginal list;
        (* DCS source for block materialisation: a direct query on the
           instance by default, a shared-state memo under
           [create_with] — both must describe the same universe as the
           sizing pass that fixed [level_off]. *)
    blocks : (int, block) Hashtbl.t;  (* keyed by wait/block id *)
    touched : Bitset.t;  (* vertices expanded in either direction *)
    gen_fwd : Bitset.t;  (* vertices whose forward succs were generated *)
    gen_rev : Bitset.t;  (* vertices whose reverse succs were generated *)
    mutable nodes_materialized : int;
    mutable edges_materialized : int;
  }

  (* Steiner terminals: each non-source node's last wait vertex. *)
  let terminals_of (problem : Problem.t) dts base =
    List.filter_map
      (fun i ->
        if i = problem.Problem.source then None
        else begin
          let len = Array.length (Dts.node_points dts i) in
          if len = 0 then None else Some (base.(i) + len - 1)
        end)
      (List.init (Tveg.n problem.Problem.graph) (fun i -> i))

  (* The exact-count pass: per (node, point) block, the number of DCS
     levels the eager build would create — [Dcs.marginals_at] is the
     single source of truth, so lazy vertex ids are *identical* to the
     eager compact ids (wait ids first, then level ids in block order). *)
  let create_body (problem : Problem.t) dts =
    let g = problem.Problem.graph in
    let phy = problem.Problem.phy in
    let channel = problem.Problem.channel in
    let n = Tveg.n g in
    let tau = Tveg.tau g in
    let deadline = Dts.deadline dts in
    let base = Array.make n 0 in
    let total_wait = ref 0 in
    for i = 0 to n - 1 do
      base.(i) <- !total_wait;
      total_wait := !total_wait + Array.length (Dts.node_points dts i)
    done;
    let total_wait = !total_wait in
    let level_off = Array.make (total_wait + 1) 0 in
    let first_cost = Array.make total_wait 0. in
    let edge_bound = ref 0 in
    for i = 0 to n - 1 do
      let pts = Dts.node_points dts i in
      Array.iteri
        (fun l t ->
          let bid = base.(i) + l in
          let margs =
            if t +. tau <= deadline then Dcs.marginals_at g ~phy ~channel ~node:i ~time:t
            else []
          in
          let nlev, cov = Dcs.level_stats margs in
          (match margs with m :: _ -> first_cost.(bid) <- m.Dcs.cost | [] -> ());
          level_off.(bid + 1) <- level_off.(bid) + nlev;
          edge_bound := !edge_bound + nlev + cov;
          if l + 1 < Array.length pts then incr edge_bound)
        pts
    done;
    let nv = total_wait + level_off.(total_wait) in
    {
      problem;
      dts;
      tau;
      base;
      total_wait;
      level_off;
      first_cost;
      nv;
      edge_bound = !edge_bound;
      source_vertex = base.(problem.Problem.source);
      terminals = terminals_of problem dts base;
      marginals =
        (fun ~node ~time -> Dcs.marginals_at g ~phy ~channel ~node ~time);
      blocks = Hashtbl.create 64;
      touched = Bitset.create nv;
      gen_fwd = Bitset.create nv;
      gen_rev = Bitset.create nv;
      nodes_materialized = 0;
      edges_materialized = 0;
    }

  let with_create_telemetry body =
    Tmedb_obs.Counter.incr c_lazy_creates;
    let t0 = Tmedb_obs.Timer.start t_lazy_create in
    let t = Tmedb_obs.Span.with_ "aux_graph.lazy_create" body in
    Tmedb_obs.Timer.stop t_lazy_create t0;
    Tmedb_obs.Counter.add c_lazy_nodes_total t.nv;
    t

  let create problem dts = with_create_telemetry (fun () -> create_body problem dts)

  (* Same graph as [create], but the id layout arrives precomputed (a
     shared {!Solve_state} assembles it by offset arithmetic over the
     memoised per-block level counts) and the DCS marginals come from
     the given provider: no block is built at creation time, and the
     first-level costs are read off the provider's (memoised) lists. *)
  let create_with ~(marginals : node:int -> time:float -> Dcs.marginal list) ~base ~level_off
      ~edge_bound (problem : Problem.t) dts =
    with_create_telemetry @@ fun () ->
    let n = Tveg.n problem.Problem.graph in
    let total_wait = base.(n - 1) + Array.length (Dts.node_points dts (n - 1)) in
    let nv = total_wait + level_off.(total_wait) in
    let first_cost = Array.make total_wait 0. in
    for i = 0 to n - 1 do
      Array.iteri
        (fun l time ->
          let bid = base.(i) + l in
          if level_off.(bid + 1) > level_off.(bid) then
            match marginals ~node:i ~time with
            | m :: _ -> first_cost.(bid) <- m.Dcs.cost
            | [] -> ())
        (Dts.node_points dts i)
    done;
    {
      problem;
      dts;
      tau = Tveg.tau problem.Problem.graph;
      base;
      total_wait;
      level_off;
      first_cost;
      nv;
      edge_bound;
      source_vertex = base.(problem.Problem.source);
      terminals = terminals_of problem dts base;
      marginals;
      blocks = Hashtbl.create 64;
      touched = Bitset.create nv;
      gen_fwd = Bitset.create nv;
      gen_rev = Bitset.create nv;
      nodes_materialized = 0;
      edges_materialized = 0;
    }

  (* Node owning wait/block id [id]: rightmost i with base.(i) <= id
     (bases are strictly increasing — every node has >= 1 DTS point). *)
  let node_of_wait t id =
    let base = t.base in
    let lo = ref 0 and hi = ref (Array.length base - 1) in
    while !hi > !lo do
      let mid = (!lo + !hi + 1) / 2 in
      if base.(mid) <= id then lo := mid else hi := mid - 1
    done;
    !lo

  (* Level vertex id -> (block id, level index): rightmost block whose
     level-id prefix starts at or before the rank.  Empty blocks share
     their successor's offset and can never own a rank. *)
  let locate_level t id =
    let r = id - t.total_wait in
    let off = t.level_off in
    let lo = ref 0 and hi = ref (t.total_wait - 1) in
    while !hi > !lo do
      let mid = (!lo + !hi + 1) / 2 in
      if off.(mid) <= r then lo := mid else hi := mid - 1
    done;
    (!lo, r - off.(!lo))

  let block t bid =
    match Hashtbl.find_opt t.blocks bid with
    | Some b -> b
    | None ->
        let nlev = t.level_off.(bid + 1) - t.level_off.(bid) in
        let b =
          if nlev = 0 then { costs = [||]; fresh = [||]; level_of = None }
          else begin
            let node = node_of_wait t bid in
            let l = bid - t.base.(node) in
            let time = (Dts.node_points t.dts node).(l) in
            let margs = t.marginals ~node ~time in
            assert (List.length margs = nlev);
            let costs = Array.make nlev 0. in
            let fresh = Array.make nlev [||] in
            List.iteri
              (fun k { Dcs.cost; fresh = fr } ->
                costs.(k) <- cost;
                fresh.(k) <- Array.of_list fr)
              margs;
            { costs; fresh; level_of = None }
          end
        in
        Hashtbl.replace t.blocks bid b;
        b

  let level_index b =
    match b.level_of with
    | Some idx -> idx
    | None ->
        let nlev = Array.length b.fresh in
        let keys = ref [] in
        Array.iteri (fun k fr -> Array.iter (fun j -> keys := ((j * nlev) + k) :: !keys) fr) b.fresh;
        let idx = Array.of_list !keys in
        Array.sort Int.compare idx;
        b.level_of <- Some idx;
        idx

  (* Level first covering neighbour [j]: the key in [j * nlev, (j + 1)
     * nlev), if any. *)
  let level_of_neighbour b j =
    let nlev = Array.length b.fresh in
    let idx = level_index b in
    let rec go lo hi =
      if lo > hi then None
      else begin
        let mid = (lo + hi) / 2 in
        let nj = idx.(mid) / nlev in
        if nj = j then Some (idx.(mid) - (j * nlev))
        else if nj < j then go (mid + 1) hi
        else go lo (mid - 1)
      end
    in
    go 0 (Array.length idx - 1)

  (* First successor generation of a vertex in a given direction:
     record it, bump the materialisation counters on first touch in
     either direction, and answer whether edge emissions should count. *)
  let note_gen t gen id =
    if Bitset.mem gen id then false
    else begin
      Bitset.set gen id;
      if not (Bitset.mem t.touched id) then begin
        Bitset.set t.touched id;
        t.nodes_materialized <- t.nodes_materialized + 1;
        Tmedb_obs.Counter.incr c_nodes_mat
      end;
      true
    end

  let counted t f v w =
    t.edges_materialized <- t.edges_materialized + 1;
    Tmedb_obs.Counter.incr c_edges_mat;
    f v w

  (* Forward successors, in the exact CSR adjacency order of the eager
     build (reverse emission order — the Steiner scans break priority
     ties by operation sequence, so order is result-determining). *)
  let iter_fwd t u f =
    let f = if note_gen t t.gen_fwd u then counted t f else f in
    if u < t.total_wait then begin
      let node = node_of_wait t u in
      let l = u - t.base.(node) in
      let pts = Dts.node_points t.dts node in
      if t.level_off.(u + 1) - t.level_off.(u) > 0 then
        f (t.total_wait + t.level_off.(u)) t.first_cost.(u);
      if l + 1 < Array.length pts then f (u + 1) 0.
    end
    else begin
      let bid, k = locate_level t u in
      let b = block t bid in
      let node = node_of_wait t bid in
      let l = bid - t.base.(node) in
      let time = (Dts.node_points t.dts node).(l) in
      if k + 1 < Array.length b.costs then f (u + 1) (b.costs.(k + 1) -. b.costs.(k));
      let fr = b.fresh.(k) in
      let t_recv = time +. t.tau in
      for q = Array.length fr - 1 downto 0 do
        let j = fr.(q) in
        let target =
          match Dts.index_of_point t.dts j t_recv with
          | Some fi -> Some fi
          | None -> (
              match Dts.earliest_at_or_after t.dts j t_recv with
              | Some pt -> Dts.index_of_point t.dts j pt
              | None -> None)
        in
        match target with Some fi -> f (t.base.(j) + fi) 0. | None -> ()
      done
    end

  (* Reverse successors (= predecessors), in the exact adjacency order
     of [Digraph.reverse] on the eager graph: descending source id.
     Predecessors of a wait vertex (j, f) are the level vertices whose
     coverage edge rounds forward to exactly this point — blocks (i, l)
     with t_{j,f-1} < t_{i,l} + tau <= t_{j,f} and j reachable from i
     at t_{i,l} within w_max — plus j's previous wait vertex. *)
  let iter_rev t v f =
    let f = if note_gen t t.gen_rev v then counted t f else f in
    if v < t.total_wait then begin
      let j = node_of_wait t v in
      let fj = v - t.base.(j) in
      let p = t.problem in
      let g = p.Problem.graph in
      let phy = p.Problem.phy in
      let channel = p.Problem.channel in
      let pts_j = Dts.node_points t.dts j in
      let t_jf = pts_j.(fj) in
      let prev_t = if fj > 0 then pts_j.(fj - 1) else Float.neg_infinity in
      let nbrs = Tveg.neighbor_ids g j in
      for idx = Array.length nbrs - 1 downto 0 do
        let i = nbrs.(idx) in
        let pts_i = Dts.node_points t.dts i in
        let len = Array.length pts_i in
        (* Largest l with pts_i.(l) + tau <= t_jf, or -1. *)
        let hi_l =
          if len = 0 || pts_i.(0) +. t.tau > t_jf then -1
          else begin
            let lo = ref 0 and hi = ref (len - 1) in
            while !hi > !lo do
              let mid = (!lo + !hi + 1) / 2 in
              if pts_i.(mid) +. t.tau <= t_jf then lo := mid else hi := mid - 1
            done;
            !lo
          end
        in
        (* Smallest l in [0, hi_l] with pts_i.(l) + tau > prev_t. *)
        let lo_l =
          if hi_l < 0 || fj = 0 then 0
          else if pts_i.(hi_l) +. t.tau <= prev_t then hi_l + 1
          else begin
            let lo = ref 0 and hi = ref hi_l in
            while !hi > !lo do
              let mid = (!lo + !hi) / 2 in
              if pts_i.(mid) +. t.tau > prev_t then hi := mid else lo := mid + 1
            done;
            !lo
          end
        in
        for l = hi_l downto lo_l do
          match Tveg.nth_dist_at g j idx pts_i.(l) with
          | Some dist
            when Dcs.neighbour_cost ~phy ~channel ~dist <= phy.Tmedb_channel.Phy.w_max -> (
              let bid = t.base.(i) + l in
              let b = block t bid in
              match level_of_neighbour b j with
              | Some k -> f (t.total_wait + t.level_off.(bid) + k) 0.
              | None -> ())
          | Some _ | None -> ()
        done
      done;
      if fj > 0 then f (v - 1) 0.
    end
    else begin
      let bid, k = locate_level t v in
      if k = 0 then f bid t.first_cost.(bid)
      else begin
        let b = block t bid in
        f (v - 1) (b.costs.(k) -. b.costs.(k - 1))
      end
    end

  let view t = { Digraph.nv = t.nv; iter_succ = (fun u f -> iter_fwd t u f) }
  let rev_view t = { Digraph.nv = t.nv; iter_succ = (fun v f -> iter_rev t v f) }

  let describe t id =
    if id < 0 || id >= t.nv then invalid_arg "Aux_graph.Lazy.describe: id out of range";
    if id < t.total_wait then begin
      let node = node_of_wait t id in
      let point_idx = id - t.base.(node) in
      Wait { node; point_idx; time = (Dts.node_points t.dts node).(point_idx) }
    end
    else begin
      let bid, level_idx = locate_level t id in
      let b = block t bid in
      let node = node_of_wait t bid in
      let point_idx = bid - t.base.(node) in
      Level
        {
          node;
          point_idx;
          time = (Dts.node_points t.dts node).(point_idx);
          level_idx;
          cum_cost = b.costs.(level_idx);
        }
    end

  let wait_vertex t ~node ~point_idx =
    if node < 0 || node >= Array.length t.base || point_idx < 0 then None
    else if point_idx < Array.length (Dts.node_points t.dts node) then
      Some (t.base.(node) + point_idx)
    else None

  let extract_schedule t tree =
    extract_schedule_with
      ~describe:(fun id -> describe t id)
      ~covered:(fun ~node ~time ~level_idx ->
        covered_from_problem t.problem ~node ~time ~level_idx)
      tree

  let num_vertices t = t.nv
  let num_wait_vertices t = t.total_wait
  let num_level_vertices t = t.nv - t.total_wait
  let edge_bound t = t.edge_bound
  let source_vertex t = t.source_vertex
  let terminals t = t.terminals
  let nodes_materialized t = t.nodes_materialized
  let edges_materialized t = t.edges_materialized
end
