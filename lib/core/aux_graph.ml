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
   array lookup, the lazy one by id arithmetic plus a table read;
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

  (* One node's DCS levels, block after block: a block's levels are
     consecutive rows, and a block whose marginals are physically the
     same list as an earlier block's reuses that block's rows. *)
  type rows = {
    cost : float array;  (* per row: the level's clamped cost *)
    fresh_off : int array;  (* per row, plus one: its first fresh neighbour in [fresh] *)
    fresh : int array;  (* newly covered neighbours, row by row, ascending within a row *)
  }

  type t = {
    problem : Problem.t;
    dts : Dts.t;
    tau : float;
    base : int array;  (* wait-vertex base id per node *)
    total_wait : int;
    owner : int array;  (* per wait/block id, its node *)
    level_off : int array;  (* per-block level-id prefix, length total_wait+1 *)
    coarse : int array;  (* per 2^coarse_bits level ranks, the block owning the first *)
    row : int array;  (* per block, the row of its first level in its node's [rows] *)
    rows : rows array;  (* per node: the level table, the only DCS data kept *)
    nv : int;
    edge_bound : int;  (* edges the forced graph has, at most *)
    source_vertex : int;
    terminals : int list;
    gen_fwd : Bitset.t;  (* vertices whose forward succs were generated *)
    mutable forced : forced option;
    mutable reversed : Digraph.t option;  (* the forced CSR, transposed *)
    mutable nodes_materialized : int;
    mutable edges_materialized : int;
  }

  (* A node's rows while they are appended: grown by doubling, copied
     out at exact size when the node is done, then reused for the next
     node, so the table never holds slack and no buffer spans the
     graph. *)
  type staging = {
    mutable s_cost : float array;
    mutable s_off : int array;
    mutable s_fresh : int array;
    mutable s_rows : int;
    mutable s_fresh_len : int;
  }

  let staging () = { s_cost = [||]; s_off = [| 0 |]; s_fresh = [||]; s_rows = 0; s_fresh_len = 0 }

  let grow a need fill =
    if Array.length a >= need then a
    else begin
      let b = Array.make (max need (2 * Array.length a)) fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    end

  (* [Array.blit] on a major-heap array pays a write barrier per
     element; a typed int loop needs none. *)
  let int_blit (src : int array) src_pos (dst : int array) dst_pos len =
    for q = 0 to len - 1 do
      dst.(dst_pos + q) <- src.(src_pos + q)
    done

  (* Room for [rows] more rows and [fresh] more fresh neighbours. *)
  let reserve st ~rows ~fresh =
    st.s_cost <- grow st.s_cost (st.s_rows + rows) 0.;
    st.s_off <- grow st.s_off (st.s_rows + rows + 1) 0;
    st.s_fresh <- grow st.s_fresh (st.s_fresh_len + fresh) 0

  (* The [levels] levels a {!Dcs.sweep} step left in [sc]. *)
  let push_scratch st (sc : Dcs.scratch) levels =
    let served = sc.Dcs.level_start.(levels) in
    reserve st ~rows:levels ~fresh:served;
    Array.blit sc.Dcs.level_cost 0 st.s_cost st.s_rows levels;
    int_blit sc.Dcs.ids 0 st.s_fresh st.s_fresh_len served;
    for k = 1 to levels do
      st.s_off.(st.s_rows + k) <- st.s_fresh_len + sc.Dcs.level_start.(k)
    done;
    st.s_rows <- st.s_rows + levels;
    st.s_fresh_len <- st.s_fresh_len + served

  let push_marginals st margs =
    List.iter
      (fun { Dcs.cost; fresh } ->
        let nfresh = List.length fresh in
        reserve st ~rows:1 ~fresh:nfresh;
        List.iteri (fun q j -> st.s_fresh.(st.s_fresh_len + q) <- j) fresh;
        st.s_cost.(st.s_rows) <- cost;
        st.s_rows <- st.s_rows + 1;
        st.s_fresh_len <- st.s_fresh_len + nfresh;
        st.s_off.(st.s_rows) <- st.s_fresh_len)
      margs

  let take st =
    let int_sub a len =
      let b = Array.make len 0 in
      int_blit a 0 b 0 len;
      b
    in
    let rows =
      {
        cost = Array.sub st.s_cost 0 st.s_rows;
        fresh_off = int_sub st.s_off (st.s_rows + 1);
        fresh = int_sub st.s_fresh st.s_fresh_len;
      }
    in
    st.s_rows <- 0;
    st.s_fresh_len <- 0;
    rows

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

  (* Level ranks per entry of the coarse rank -> block index: a lookup
     starts at its entry's block and scans forward over the blocks
     that own ranks of the same entry (and empty blocks between). *)
  let coarse_bits = 6

  let make (problem : Problem.t) dts ~base ~level_off ~row ~rows ~edge_bound =
    let total_wait = Array.length row in
    let levels = level_off.(total_wait) in
    let nv = total_wait + levels in
    let owner = Array.make total_wait 0 in
    Array.iteri
      (fun i b ->
        let stop = if i + 1 < Array.length base then base.(i + 1) else total_wait in
        Array.fill owner b (stop - b) i)
      base;
    let coarse = Array.make ((levels lsr coarse_bits) + 1) 0 in
    let b = ref 0 in
    Array.iteri
      (fun q _ ->
        let r = q lsl coarse_bits in
        while !b + 1 < total_wait && level_off.(!b + 1) <= r do
          incr b
        done;
        coarse.(q) <- !b)
      coarse;
    {
      problem;
      dts;
      tau = Tveg.tau problem.Problem.graph;
      base;
      total_wait;
      owner;
      level_off;
      coarse;
      row;
      rows;
      nv;
      edge_bound;
      source_vertex = base.(problem.Problem.source);
      terminals = terminals_of problem dts base;
      gen_fwd = Bitset.create nv;
      forced = None;
      reversed = None;
      nodes_materialized = 0;
      edges_materialized = 0;
    }

  (* The one-shot sizing pass: one {!Dcs.sweep} per node, stepped to
     each of its blocks that can finish by the deadline, fixes the id
     layout — wait ids first, then level ids in block order — and fills
     the level table, so neither the lazy view nor the forcing pass
     queries the DCS again. *)
  let create (problem : Problem.t) dts =
    with_create_telemetry @@ fun () ->
    let g = problem.Problem.graph in
    let pricing = Dcs.pricing ~phy:problem.Problem.phy ~channel:problem.Problem.channel in
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
    let row = Array.make total_wait 0 in
    let edge_bound = ref 0 in
    let sc = Dcs.scratch () and st = staging () in
    let rows =
      Array.init n (fun i ->
          let pts = Dts.node_points dts i in
          let next = Dcs.sweep sc g pricing ~node:i in
          Array.iteri
            (fun l t ->
              let bid = base.(i) + l in
              row.(bid) <- st.s_rows;
              if t +. tau <= deadline then begin
                let levels = next t in
                push_scratch st sc levels;
                level_off.(bid + 1) <- level_off.(bid) + levels;
                edge_bound := !edge_bound + levels + sc.Dcs.level_start.(levels)
              end
              else level_off.(bid + 1) <- level_off.(bid);
              if l + 1 < Array.length pts then incr edge_bound)
            pts;
          take st)
    in
    make problem dts ~base ~level_off ~row ~rows ~edge_bound:!edge_bound

  (* Same graph as [create], but the id layout arrives precomputed (a
     shared {!Solve_state} assembles it by offset arithmetic over the
     memoised per-block level counts) and the table is filled from the
     provider's lists, one per block the layout gives levels.  A list
     handed out again for a later block of the same node (the memo's
     runs of equal points) is converted once: the blocks share rows. *)
  let create_with ~(marginals : node:int -> time:float -> Dcs.marginal list) ~base ~level_off
      ~edge_bound (problem : Problem.t) dts =
    with_create_telemetry @@ fun () ->
    let n = Tveg.n problem.Problem.graph in
    let total_wait = base.(n - 1) + Array.length (Dts.node_points dts (n - 1)) in
    let row = Array.make total_wait 0 in
    let st = staging () in
    let rows =
      Array.init n (fun i ->
          let last = ref [] and last_row = ref 0 in
          Array.iteri
            (fun l time ->
              let bid = base.(i) + l in
              let levels = level_off.(bid + 1) - level_off.(bid) in
              if levels > 0 then begin
                let margs = marginals ~node:i ~time in
                if margs != [] && margs == !last then row.(bid) <- !last_row
                else begin
                  row.(bid) <- st.s_rows;
                  push_marginals st margs;
                  assert (st.s_rows - row.(bid) = levels);
                  last := margs;
                  last_row := row.(bid)
                end
              end)
            (Dts.node_points dts i);
          take st)
    in
    make problem dts ~base ~level_off ~row ~rows ~edge_bound

  (* First wait/block id past node [i]'s. *)
  let node_end t i = if i + 1 < Array.length t.base then t.base.(i + 1) else t.total_wait

  (* Level vertex id -> (block id, level index): the block whose
     level-id range holds the rank, found from the coarse entry by a
     forward scan.  Empty blocks share their successor's offset and
     can never own a rank. *)
  let locate_level t id =
    let r = id - t.total_wait in
    let off = t.level_off in
    let b = ref t.coarse.(r lsr coarse_bits) in
    while off.(!b + 1) <= r do
      incr b
    done;
    (!b, r - off.(!b))

  (* Transmission instant of block [bid], owned by [node]. *)
  let block_time t ~node bid = (Dts.node_points t.dts node).(bid - t.base.(node))

  let wait_desc t ~node u =
    let point_idx = u - t.base.(node) in
    Wait { node; point_idx; time = (Dts.node_points t.dts node).(point_idx) }

  let level_desc t ~node ~time bid k =
    let cum_cost = t.rows.(node).cost.(t.row.(bid) + k) in
    Level { node; point_idx = bid - t.base.(node); time; level_idx = k; cum_cost }

  (* The successor rule — the only code that decides a vertex's edges,
     for the lazy view and the forcing pass alike.  Emission order is
     result-determining (the Steiner scans break priority ties by
     operation sequence) and pinned by the tests. *)

  (* Wait vertex [u] of [node]: its level-0 vertex at the first level's
     cost, then, unless [u] is its node's [last] point, the 0-weight
     wait chain. *)
  let wait_succs t ~node ~last u f =
    if t.level_off.(u + 1) > t.level_off.(u) then
      f (t.total_wait + t.level_off.(u)) t.rows.(node).cost.(t.row.(u));
    if not last then f (u + 1) 0.

  (* Level vertex [u], level [k] of block [bid] of [node] transmitting
     at [time]: the next level at the incremental cost, then a 0-weight
     coverage edge per neighbour first covered at [k], in descending
     neighbour order, onto its first DTS point at or after time + τ.
     That is the receive instant itself, unless it fell to the DTS cap:
     rounding forward only delays the neighbour (sound, possibly
     suboptimal); past the neighbour's last point the edge is dropped. *)
  let level_succs t ~node ~time bid k u f =
    let rows = t.rows.(node) in
    let r = t.row.(bid) + k in
    if k + 1 < t.level_off.(bid + 1) - t.level_off.(bid) then
      f (u + 1) (rows.cost.(r + 1) -. rows.cost.(r));
    let t_recv = time +. t.tau in
    for q = rows.fresh_off.(r + 1) - 1 downto rows.fresh_off.(r) do
      let j = rows.fresh.(q) in
      let fi = Dts.index_at_or_after t.dts j t_recv in
      if t.base.(j) + fi < node_end t j then f (t.base.(j) + fi) 0.
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
    if u < t.total_wait then begin
      let node = t.owner.(u) in
      wait_succs t ~node ~last:(u + 1 = node_end t node) u f
    end
    else begin
      let bid, k = locate_level t u in
      let node = t.owner.(bid) in
      level_succs t ~node ~time:(block_time t ~node bid) bid k u f
    end

  (* The forcing pass: the successor rule over every vertex, straight
     into CSR rows, with each vertex described on the way.  Ids are
     walked in order — wait vertices node by node, then level vertices
     block by block — so no vertex pays an id search. *)
  let force_body t =
    let vertex = Array.make t.nv (Wait { node = 0; point_idx = 0; time = 0. }) in
    let node = ref 0 in
    let bnode = ref 0 and bid = ref 0 and blevels_end = ref 0 and btime = ref 0. in
    let succ u add =
      if u < t.total_wait then begin
        while u >= node_end t !node do incr node done;
        vertex.(u) <- wait_desc t ~node:!node u;
        wait_succs t ~node:!node ~last:(u + 1 = node_end t !node) u add
      end
      else begin
        let r = u - t.total_wait in
        if r >= !blevels_end then begin
          while t.level_off.(!bid + 1) <= r do incr bid done;
          while !bid >= node_end t !bnode do incr bnode done;
          btime := block_time t ~node:!bnode !bid;
          blevels_end := t.level_off.(!bid + 1)
        end;
        let k = r - t.level_off.(!bid) in
        vertex.(u) <- level_desc t ~node:!bnode ~time:!btime !bid k;
        level_succs t ~node:!bnode ~time:!btime !bid k u add
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
    | None when id < t.total_wait -> wait_desc t ~node:t.owner.(id) id
    | None ->
        let bid, k = locate_level t id in
        let node = t.owner.(bid) in
        level_desc t ~node ~time:(block_time t ~node bid) bid k

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
let build problem dts = force (Lazy.create problem dts)
