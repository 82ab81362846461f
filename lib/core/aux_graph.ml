open Tmedb_tveg
open Tmedb_steiner

(* Telemetry: the auxiliary graph's size is the paper's main scaling
   quantity (Section VI-A); vertices/edges accumulate over forced
   graphs so a sweep's totals land in one snapshot. *)
let c_builds = Tmedb_obs.Counter.make "aux_graph.builds"
let c_vertices = Tmedb_obs.Counter.make "aux_graph.vertices"
let c_edges = Tmedb_obs.Counter.make "aux_graph.edges"
let t_build = Tmedb_obs.Timer.make "aux_graph.build"

(* Lazy-expansion telemetry: the vertex universe of each created graph,
   versus the vertices/edges whose forward successors were actually
   generated.  The gap is the frontier cut. *)
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
   [level_idx]: the union of the per-level marginals (ascending id).
   Provenance only — never on the solve path. *)
let covered_from_problem (p : Problem.t) ~node ~time ~level_idx =
  Dcs.marginals_at p.Problem.graph ~phy:p.Problem.phy ~channel:p.Problem.channel ~node ~time
  |> List.filteri (fun i _ -> i <= level_idx)
  |> List.concat_map (fun m -> m.Dcs.fresh)
  |> List.sort_uniq Int.compare

(* Shared schedule extraction: the forced graph describes a vertex by
   array lookup, the lazy one by id arithmetic plus a memoised block;
   [covered] recomputes a chosen level's covered-neighbour set for
   provenance.  Everything else — deepest-level choice, deterministic
   key order, emitted events — is common. *)
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
    ~covered:(covered_from_problem t.problem)
    tree

let num_wait_vertices t =
  Array.fold_left
    (fun acc v -> match v with Wait _ -> acc + 1 | Level _ -> acc)
    0 t.vertex

let num_level_vertices t = Array.length t.vertex - num_wait_vertices t

(* The forced graph, as the lazy graph memoises it. *)
type forced = t

module Lazy = struct
  open Tmedb_prelude

  (* One wait vertex's transmission block: its DCS marginals, reshaped
     for O(1) level access.  Its owner and instant are not stored: a
     lazy scan may hold most blocks at once, so they stay this small. *)
  type block = {
    costs : float array;  (* cumulative clamped level costs, ascending *)
    fresh : int array array;  (* newly covered neighbours per level, ascending *)
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
    edge_bound : int;  (* edges the forced graph has, at most *)
    source_vertex : int;
    terminals : int list;
    marginals : int -> node:int -> time:float -> Dcs.marginal list;
        (* DCS source for block materialisation, by block id, node and
           time: a direct query on the instance by default, the sizing
           pass's own lists under [build], a shared-state memo under
           [create_with] — all must describe the same universe as the
           sizing pass that fixed [level_off]. *)
    blocks : (int, block) Hashtbl.t;
        (* by block id, built on first use.  A flat [block option]
           array indexed by block id measured a 17 % higher peak heap
           over three N = 500 lazy SPT solves, so the memo stays a
           table. *)
    gen_fwd : Bitset.t;  (* vertices whose forward succs were generated *)
    mutable forced : forced option;
    mutable reversed : Digraph.t option;  (* the forced CSR, transposed *)
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

  let with_create_telemetry body =
    Tmedb_obs.Counter.incr c_lazy_creates;
    let t0 = Tmedb_obs.Timer.start t_lazy_create in
    let t = Tmedb_obs.Span.with_ "aux_graph.lazy_create" body in
    Tmedb_obs.Timer.stop t_lazy_create t0;
    Tmedb_obs.Counter.add c_lazy_nodes_total t.nv;
    t

  let make (problem : Problem.t) dts ~base ~level_off ~first_cost ~edge_bound ~marginals =
    let total_wait = Array.length first_cost in
    let nv = total_wait + level_off.(total_wait) in
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
      gen_fwd = Bitset.create nv;
      forced = None;
      reversed = None;
      nodes_materialized = 0;
      edges_materialized = 0;
    }

  (* The exact-count pass: per (node, point) block, the number of DCS
     levels — [Dcs.marginals_at] is the single source of truth — which
     fixes the id layout: wait ids first, then level ids in block
     order.  With [keep_marginals] the lists are kept for the forcing
     pass, so a graph forced at once queries each block's DCS only
     once. *)
  let create_body ~keep_marginals (problem : Problem.t) dts =
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
    let kept = if keep_marginals then Array.make total_wait [] else [||] in
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
          if keep_marginals then kept.(bid) <- margs;
          level_off.(bid + 1) <- level_off.(bid) + nlev;
          edge_bound := !edge_bound + nlev + cov;
          if l + 1 < Array.length pts then incr edge_bound)
        pts
    done;
    let marginals =
      if keep_marginals then fun bid ~node:_ ~time:_ -> kept.(bid)
      else fun _ ~node ~time -> Dcs.marginals_at g ~phy ~channel ~node ~time
    in
    make problem dts ~base ~level_off ~first_cost ~edge_bound:!edge_bound ~marginals

  let create problem dts = with_create_telemetry (fun () -> create_body ~keep_marginals:false problem dts)

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
    make problem dts ~base ~level_off ~first_cost ~edge_bound
      ~marginals:(fun _ ~node ~time -> marginals ~node ~time)

  (* First wait/block id past node [i]'s. *)
  let node_end t i = if i + 1 < Array.length t.base then t.base.(i + 1) else t.total_wait

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

  (* Transmission instant of block [bid], owned by [node]. *)
  let block_time t ~node bid = (Dts.node_points t.dts node).(bid - t.base.(node))

  let make_block t ~node ~time bid =
    let nlev = t.level_off.(bid + 1) - t.level_off.(bid) in
    let margs = t.marginals bid ~node ~time in
    assert (List.length margs = nlev);
    let costs = Array.make nlev 0. in
    let fresh = Array.make nlev [||] in
    List.iteri
      (fun k { Dcs.cost; fresh = fr } ->
        costs.(k) <- cost;
        fresh.(k) <- Array.of_list fr)
      margs;
    { costs; fresh }

  let block t ~node ~time bid =
    match Hashtbl.find_opt t.blocks bid with
    | Some b -> b
    | None ->
        let b = make_block t ~node ~time bid in
        Hashtbl.replace t.blocks bid b;
        b

  let wait_desc t ~node u =
    let point_idx = u - t.base.(node) in
    Wait { node; point_idx; time = (Dts.node_points t.dts node).(point_idx) }

  let level_desc t b ~node ~time bid k =
    Level { node; point_idx = bid - t.base.(node); time; level_idx = k; cum_cost = b.costs.(k) }

  (* The successor rule — the only code that decides a vertex's edges,
     for the lazy view and the forcing pass alike.  Emission order is
     result-determining (the Steiner scans break priority ties by
     operation sequence) and pinned by the tests. *)

  (* Wait vertex [u]: its level-0 vertex at the first level's cost,
     then, unless [u] is its node's [last] point, the 0-weight wait
     chain. *)
  let wait_succs t ~last u f =
    if t.level_off.(u + 1) > t.level_off.(u) then
      f (t.total_wait + t.level_off.(u)) t.first_cost.(u);
    if not last then f (u + 1) 0.

  (* Level vertex [u], level [k] of block [b] transmitting at [time]:
     the next level at the incremental cost, then a 0-weight coverage
     edge per neighbour first covered at [k], in descending neighbour
     order, onto its DTS point at time + τ.  A receive instant that fell to the DTS cap
     rounds forward, which only delays the neighbour (sound, possibly
     suboptimal); one past the deadline drops the edge. *)
  let level_succs t b ~time k u f =
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

  (* Forward successors of any vertex, located by id search.  The first
     generation of a vertex bumps the materialisation counters. *)
  let iter_fwd t u f =
    let f =
      if Bitset.mem t.gen_fwd u then f
      else begin
        Bitset.set t.gen_fwd u;
        t.nodes_materialized <- t.nodes_materialized + 1;
        Tmedb_obs.Counter.incr c_nodes_mat;
        fun v w ->
          t.edges_materialized <- t.edges_materialized + 1;
          Tmedb_obs.Counter.incr c_edges_mat;
          f v w
      end
    in
    if u < t.total_wait then wait_succs t ~last:(u + 1 = node_end t (node_of_wait t u)) u f
    else begin
      let bid, k = locate_level t u in
      let node = node_of_wait t bid in
      let time = block_time t ~node bid in
      level_succs t (block t ~node ~time bid) ~time k u f
    end

  (* The forcing pass: the successor rule over every vertex, straight
     into CSR rows, with each vertex described on the way.  Ids are
     walked in order — wait vertices node by node, then level vertices
     block by block — so no vertex pays an id search, and each block is
     built once and dropped. *)
  let force_body t =
    let vertex = Array.make t.nv (Wait { node = 0; point_idx = 0; time = 0. }) in
    let node = ref 0 in
    let bnode = ref 0 and bid = ref 0 and blevels_end = ref 0 and btime = ref 0. in
    let b = ref { costs = [||]; fresh = [||] } in
    let succ u add =
      if u < t.total_wait then begin
        while u >= node_end t !node do incr node done;
        vertex.(u) <- wait_desc t ~node:!node u;
        wait_succs t ~last:(u + 1 = node_end t !node) u add
      end
      else begin
        let r = u - t.total_wait in
        if r >= !blevels_end then begin
          while t.level_off.(!bid + 1) <= r do incr bid done;
          while !bid >= node_end t !bnode do incr bnode done;
          btime := block_time t ~node:!bnode !bid;
          b := make_block t ~node:!bnode ~time:!btime !bid;
          blevels_end := t.level_off.(!bid + 1)
        end;
        let k = r - t.level_off.(!bid) in
        vertex.(u) <- level_desc t !b ~node:!bnode ~time:!btime !bid k;
        level_succs t !b ~time:!btime k u add
      end
    in
    let graph = Digraph.of_succ ~n:t.nv ~m:t.edge_bound succ in
    {
      graph;
      vertex;
      source_vertex = t.source_vertex;
      terminals = t.terminals;
      base = t.base;
      problem = t.problem;
    }

  let force t =
    match t.forced with
    | Some g -> g
    | None ->
        Tmedb_obs.Counter.incr c_builds;
        let t0 = Tmedb_obs.Timer.start t_build in
        let g = Tmedb_obs.Span.with_ "aux_graph.build" (fun () -> force_body t) in
        Tmedb_obs.Timer.stop t_build t0;
        let m = Digraph.m g.graph in
        Tmedb_obs.Counter.add c_vertices t.nv;
        Tmedb_obs.Counter.add c_edges m;
        (* Forcing generated every vertex's successors. *)
        Tmedb_obs.Counter.add c_nodes_mat (t.nv - t.nodes_materialized);
        Tmedb_obs.Counter.add c_edges_mat (m - t.edges_materialized);
        t.nodes_materialized <- t.nv;
        t.edges_materialized <- m;
        t.forced <- Some g;
        g

  let view t =
    {
      Digraph.nv = t.nv;
      iter_succ =
        (fun u f ->
          match t.forced with
          | Some g -> Digraph.iter_succ g.graph u f
          | None -> iter_fwd t u f);
    }

  let reversed t =
    match t.reversed with
    | Some r -> r
    | None ->
        let r = Digraph.reverse (force t).graph in
        t.reversed <- Some r;
        r

  let rev_view t = { Digraph.nv = t.nv; iter_succ = (fun v f -> Digraph.iter_succ (reversed t) v f) }

  let describe t id =
    if id < 0 || id >= t.nv then invalid_arg "Aux_graph.Lazy.describe: id out of range";
    match t.forced with
    | Some g -> g.vertex.(id)
    | None when id < t.total_wait -> wait_desc t ~node:(node_of_wait t id) id
    | None ->
        let bid, k = locate_level t id in
        let node = node_of_wait t bid in
        let time = block_time t ~node bid in
        level_desc t (block t ~node ~time bid) ~node ~time bid k

  let wait_vertex t ~node ~point_idx =
    if node < 0 || node >= Array.length t.base || point_idx < 0 then None
    else if point_idx < Array.length (Dts.node_points t.dts node) then
      Some (t.base.(node) + point_idx)
    else None

  let extract_schedule t tree =
    extract_schedule_with ~describe:(describe t) ~covered:(covered_from_problem t.problem) tree

  let num_vertices t = t.nv
  let num_wait_vertices t = t.total_wait
  let num_level_vertices t = t.nv - t.total_wait
  let edge_bound t = t.edge_bound
  let source_vertex t = t.source_vertex
  let terminals t = t.terminals
  let nodes_materialized t = t.nodes_materialized
  let edges_materialized t = t.edges_materialized
end

let force = Lazy.force
let build problem dts =
  force (Lazy.with_create_telemetry (fun () -> Lazy.create_body ~keep_marginals:true problem dts))
