open Tmedb_prelude

type tree = { edges : (int * int * float) list; cost : float; covered : int list }
type outcome = { tree : tree; uncovered : int list }

(* Telemetry: [dst.expansions] counts greedy rounds that realized a
   candidate into the partial tree (the outer-loop work measure of the
   recursive-greedy algorithm); [dst.level2_scans] counts full
   candidate-table sweeps; [dst.tie_fallbacks] counts the terminals
   whose exact reverse Dijkstra a next-hop tie had to run. *)
let c_solves = Tmedb_obs.Counter.make "dst.solves"
let c_expansions = Tmedb_obs.Counter.make "dst.expansions"
let c_level2_scans = Tmedb_obs.Counter.make "dst.level2_scans"
let c_tie_fallbacks = Tmedb_obs.Counter.make "dst.tie_fallbacks"
let t_solve = Tmedb_obs.Timer.make "dst.solve"
let t_terminal_maps = Tmedb_obs.Timer.make "dst.terminal_maps"
let h_expansion_rounds = Tmedb_obs.Histogram.make "dst.expansion_rounds"

(* Edge sets keyed by u*n+v, keeping the cheapest parallel weight. *)
module Edge_set = struct
  type t = { n : int; table : (int, float) Hashtbl.t }

  let create n = { n; table = Hashtbl.create 64 }

  let add t (u, v, w) =
    let key = (u * t.n) + v in
    match Hashtbl.find_opt t.table key with
    | Some w0 when w0 <= w -> ()
    | Some _ | None -> Hashtbl.replace t.table key w

  let add_list t es = List.iter (add t) es

  (* Key-sorted bindings: bucket order must not leak into edge lists
     or float summation order (lint rule R1). *)
  let bindings t =
    List.sort
      (fun (k1, _) (k2, _) -> Int.compare k1 k2)
      (Hashtbl.fold (fun key w acc -> (key, w) :: acc) t.table [])

  let cost t = List.fold_left (fun acc (_, w) -> acc +. w) 0. (bindings t)
  let to_list t = List.map (fun (key, w) -> (key / t.n, key mod t.n, w)) (bindings t)
end

let tree_cost edges =
  let module S = Set.Make (struct
    type t = int * int

    let compare = Stdlib.compare
  end) in
  let _, total =
    List.fold_left
      (fun (seen, total) (u, v, w) ->
        if S.mem (u, v) seen then (seen, total) else (S.add (u, v) seen, total +. w))
      (S.empty, 0.) edges
  in
  total

(* Every vertex's distance to each of the k terminals in one flat
   table, [dist.(v * k + ti)], equal bit for bit to what a reverse
   Dijkstra from terminal ti ([Dijkstra.run_view rev ~src]) computes.

   The pass visits the forward graph's strongly connected components
   sinks first (an iterative Tarjan), so every edge that leaves a
   component lands in one whose distances are final.  A vertex starts
   from the k-vector minimum of [d.(x) +. w] over its edges that leave
   its component (a terminal's own entry is 0); a component of more
   than one vertex is then settled by a FIFO label-correcting pass
   over k-vectors along the [rev] edges that stay inside it (at worst
   Bellman-Ford's bound, one round over the component's edges per
   vertex in it).  On the auxiliary graph at tau = 0 the cycles stay
   inside one instant, so sinks first is the time order and no
   component spans two instants; the sizes and pop counts measured on
   the benchmark graphs are in EXPERIMENTS.md ("One pass for the
   terminal distances").

   Why the distances are Dijkstra's, bit for bit.  Every entry is the
   float sum of some path, added from the terminal outward as Dijkstra
   adds ([d.(x) +. w]), and Dijkstra's value is at most any such sum
   (by induction along the path: rounding is monotone).  At the
   fixpoint every edge v -> x satisfies d(v) <= d(x) +. w, so by
   induction along Dijkstra's own pred chain every entry is also at
   most Dijkstra's value.  Hence the two are equal.

   Why the next hops are Dijkstra's.  Dijkstra sets pred(v) only on a
   strict improvement, so pred(v) is the first popped successor x that
   achieves d(x) +. w = d(v).  Pops come in nondecreasing distance, so
   an achiever with the unique smallest d(x) is popped first: that is
   [next_hop]'s rule.  Only distinct achievers tied on that smallest
   d(x) depend on the heap's operation order; for those the walk reads
   the pred of the terminal's exact reverse Dijkstra, run once per
   terminal on demand.  Parallel edges to one x are one successor, and
   a self-loop never achieves (its relaxation is not strict). *)
type terminal_maps = {
  ids : int array;  (* terminal vertex ids *)
  dist : float array;  (* dist.(v * k + ti): distance v -> terminal ti *)
  rev : Digraph.view;
  exact_pred : int array option array;  (* tie fallback: reverse Dijkstra preds *)
}

let build_terminal_maps ~fwd ~rev terminals =
  let tm = Tmedb_obs.Timer.start t_terminal_maps in
  let ids = Array.of_list terminals in
  let k = Array.length ids and nv = fwd.Digraph.nv in
  let dist = Array.make (nv * k) Float.infinity in
  Array.iteri (fun ti term -> dist.((term * k) + ti) <- 0.) ids;
  (* Tarjan state: [comp.(v)] is v's component id once the component
     is emitted, -1 before; emitted ids count up sinks first. *)
  let index = Array.make nv (-1) and low = Array.make nv 0 and comp = Array.make nv (-1) in
  let stack = Array.make nv 0 and sp = ref 0 and visited = ref 0 and ncomp = ref 0 in
  (* DFS frames.  Frame f's vertex has its successors in slots
     [fstart.(f), fend.(f)) of one buffer, the next unexplored at
     [fpos.(f)]; a child's slots follow its parent's and are dropped
     when the child closes. *)
  let fv = Array.make nv 0 and fstart = Array.make nv 0 and fpos = Array.make nv 0 in
  let fend = Array.make nv 0 and fsp = ref 0 in
  let bx = ref (Array.make 256 0) and bw = ref (Array.make 256 0.) and blen = ref 0 in
  let push_succ x w =
    if !blen = Array.length !bx then begin
      bx := Array.append !bx (Array.make !blen 0);
      bw := Array.append !bw (Array.make !blen 0.)
    end;
    !bx.(!blen) <- x;
    !bw.(!blen) <- w;
    incr blen
  in
  let open_frame v =
    index.(v) <- !visited;
    low.(v) <- !visited;
    incr visited;
    stack.(!sp) <- v;
    incr sp;
    let f = !fsp in
    fv.(f) <- v;
    fstart.(f) <- !blen;
    fpos.(f) <- !blen;
    fwd.Digraph.iter_succ v push_succ;
    fend.(f) <- !blen;
    incr fsp
  in
  (* When v's frame closes, each successor is either emitted (final) or
     in v's own component, still on the stack. *)
  let relax_exits v f =
    let bv = v * k in
    for j = fstart.(f) to fend.(f) - 1 do
      let x = !bx.(j) in
      if comp.(x) >= 0 then begin
        let w = !bw.(j) and bxk = x * k in
        for ti = 0 to k - 1 do
          let nd = dist.(bxk + ti) +. w in
          if nd < dist.(bv + ti) then dist.(bv + ti) <- nd
        done
      end
    done
  in
  (* FIFO label correcting inside component [!cur] (the vertices
     [ring.(0 .. size-1)]): each vertex is queued at most once. *)
  let queued = Bitset.create nv and ring = Array.make nv 0 in
  let cur = ref (-1) and size = ref 0 and head = ref 0 and count = ref 0 and u = ref (-1) in
  let relax x w =
    if comp.(x) = !cur then begin
      let bu = !u * k and bxk = x * k in
      let improved = ref false in
      for ti = 0 to k - 1 do
        let nd = dist.(bu + ti) +. w in
        if nd < dist.(bxk + ti) then begin
          dist.(bxk + ti) <- nd;
          improved := true
        end
      done;
      if !improved && not (Bitset.mem queued x) then begin
        Bitset.set queued x;
        ring.((!head + !count) mod !size) <- x;
        incr count
      end
    end
  in
  let settle lo =
    size := !sp - lo;
    Array.blit stack lo ring 0 !size;
    for i = 0 to !size - 1 do
      Bitset.set queued ring.(i)
    done;
    head := 0;
    count := !size;
    while !count > 0 do
      u := ring.(!head);
      head := (!head + 1) mod !size;
      decr count;
      Bitset.clear queued !u;
      rev.Digraph.iter_succ !u relax
    done
  in
  for s = 0 to nv - 1 do
    if index.(s) < 0 then begin
      open_frame s;
      while !fsp > 0 do
        let f = !fsp - 1 in
        let v = fv.(f) in
        if fpos.(f) < fend.(f) then begin
          let x = !bx.(fpos.(f)) in
          fpos.(f) <- fpos.(f) + 1;
          if index.(x) < 0 then open_frame x
          else if comp.(x) < 0 then low.(v) <- Int.min low.(v) index.(x)
        end
        else begin
          relax_exits v f;
          blen := fstart.(f);
          decr fsp;
          if !fsp > 0 then begin
            let p = fv.(!fsp - 1) in
            low.(p) <- Int.min low.(p) low.(v)
          end;
          if low.(v) = index.(v) then begin
            let lo = ref (!sp - 1) in
            while stack.(!lo) <> v do
              decr lo
            done;
            cur := !ncomp;
            incr ncomp;
            for i = !lo to !sp - 1 do
              comp.(stack.(i)) <- !cur
            done;
            if !sp - !lo > 1 then settle !lo;
            sp := !lo
          end
        end
      done
    end
  done;
  Tmedb_obs.Timer.stop t_terminal_maps tm;
  { ids; dist; rev; exact_pred = Array.make k None }

(* The successor of [u] on its shortest path to terminal [ti] that the
   terminal's reverse Dijkstra records (see the argument above). *)
let next_hop fwd maps ~ti u =
  let k = Array.length maps.ids in
  let du = maps.dist.((u * k) + ti) in
  let best = ref (-1) and best_d = ref Float.infinity and tied = ref false in
  fwd.Digraph.iter_succ u (fun x w ->
      let dx = maps.dist.((x * k) + ti) in
      if x <> u && Float.equal (dx +. w) du then
        if dx < !best_d then begin
          best := x;
          best_d := dx;
          tied := false
        end
        else if Float.equal dx !best_d && x <> !best then tied := true);
  if not !tied then !best
  else begin
    let pred =
      match maps.exact_pred.(ti) with
      | Some pred -> pred
      | None ->
          Tmedb_obs.Counter.incr c_tie_fallbacks;
          let pred = (Dijkstra.run_view maps.rev ~src:maps.ids.(ti)).Dijkstra.pred in
          maps.exact_pred.(ti) <- Some pred;
          pred
    in
    pred.(u)
  end

(* Edges of the shortest path v -> terminal ti, following next hops.
   A simple path has fewer than nv edges: a longer walk means a wrong
   next-hop rule cycling on a zero-weight tie. *)
let path_to_terminal fwd maps ~ti ~v =
  let term = maps.ids.(ti) in
  let rec walk u steps acc =
    if u = term then List.rev acc
    else if steps >= fwd.Digraph.nv then
      invalid_arg "Dst: next-hop walk did not reach its terminal"
    else begin
      let nxt = next_hop fwd maps ~ti u in
      if nxt < 0 then List.rev acc (* v = term handled above; unreachable defended in callers *)
      else begin
        match Digraph.view_edge_weight fwd u nxt with
        | Some w -> walk nxt (steps + 1) ((u, nxt, w) :: acc)
        | None -> List.rev acc
      end
    end
  in
  walk v 0 []

(* Per-vertex terminal distances in ascending (distance, terminal
   index) order: row v holds entries [v * k, v * k + k) of two flat
   unboxed arrays (this table dominates the level-2 scan's memory
   traffic).  Only candidate vertices' rows are filled. *)
type terminal_table = { k : int; term_dist : float array; term_id : int array }

let build_table maps ~nv candidates =
  let k = Array.length maps.ids in
  let term_dist = Array.make (nv * k) 0. and term_id = Array.make (nv * k) 0 in
  Array.iter
    (fun v ->
      let base = v * k in
      (* Insertion sort on (distance, terminal index).  Indices arrive
         ascending, so a new entry moves past exactly the entries with
         a strictly larger distance: the order [Array.sort compare]
         gives on the (distinct) pairs. *)
      for ti = 0 to k - 1 do
        let d = maps.dist.(base + ti) in
        let j = ref (base + ti) in
        while !j > base && term_dist.(!j - 1) > d do
          term_dist.(!j) <- term_dist.(!j - 1);
          term_id.(!j) <- term_id.(!j - 1);
          decr j
        done;
        term_dist.(!j) <- d;
        term_id.(!j) <- ti
      done)
    candidates;
  { k; term_dist; term_id }

type candidate = { cand_edges : (int * int * float) list; cand_cost : float; cand_terms : int list }

(* A_1: shortest paths from v to the [need] nearest remaining terminals,
   read off v's table row. *)
let a1_candidate fwd maps ~table ~need ~v ~remaining =
  let base = v * table.k in
  let chosen = ref [] and taken = ref 0 and j = ref 0 in
  while !taken < need && !j < table.k && Float.is_finite table.term_dist.(base + !j) do
    let ti = table.term_id.(base + !j) in
    if remaining.(ti) then begin
      chosen := ti :: !chosen;
      incr taken
    end;
    incr j
  done;
  let chosen = List.rev !chosen in
  if chosen = [] then None
  else begin
    let set = Edge_set.create fwd.Digraph.nv in
    List.iter (fun ti -> Edge_set.add_list set (path_to_terminal fwd maps ~ti ~v)) chosen;
    Some { cand_edges = Edge_set.to_list set; cand_cost = Edge_set.cost set; cand_terms = chosen }
  end

(* Fast level-2 scan: for every candidate intermediate vertex u and
   every count cnt <= need, the density of [path tree->u] + [A_1(cnt,
   u)] using plain distance sums; returns the best (u, cnt). *)
let scan_level2 ~candidates ~dist_v ~remaining ~need ~table =
  Tmedb_obs.Counter.incr c_level2_scans;
  let best_density = ref Float.infinity in
  let best = ref None in
  let ncand = Array.length candidates in
  let k = table.k in
  for c = 0 to ncand - 1 do
    let u = candidates.(c) in
    let du = dist_v.(u) in
    if Float.is_finite du then begin
      let base = u * k in
      let sum = ref du in
      let cnt = ref 0 in
      let j = ref 0 in
      let continue = ref true in
      while !continue && !j < k do
        let d = table.term_dist.(base + !j) in
        if not (Float.is_finite d) then continue := false
        else begin
          if remaining.(table.term_id.(base + !j)) then begin
            sum := !sum +. d;
            incr cnt;
            let density = !sum /. float_of_int !cnt in
            if density < !best_density then begin
              best_density := density;
              best := Some (density, u, !cnt)
            end;
            if !cnt >= need then continue := false
          end;
          incr j
        end
      done
    end
  done;
  !best

(* Tree-growing recursive greedy: each round connects the best-density
   (intermediate vertex, terminal count) candidate to the *current*
   partial tree (multi-source Dijkstra), not only to the call root —
   a strict improvement over connecting every pick at [v] since merged
   path segments are paid once and inform later picks. *)
let rec build_candidate fwd maps ~candidates ~targets ~table ~level ~need ~v ~remaining ~rounds =
  if level <= 1 then a1_candidate fwd maps ~table ~need ~v ~remaining
  else begin
    let remaining = Array.copy remaining in
    let set = Edge_set.create fwd.Digraph.nv in
    let tree_members = Hashtbl.create 64 in
    Hashtbl.replace tree_members v ();
    let covered = ref [] in
    let still_needed = ref need in
    let progress = ref true in
    (* Distances from the growing tree, warm-restarted as members are
       added (distances only decrease).  Only candidate vertices are
       ever read from this result (the scans and the connect walk), so
       the relaxation may stop once all candidates are settled. *)
    let tree_dist = Dijkstra.run_multi_view fwd ~sources:[ v ] ?targets in
    while !still_needed > 0 && !progress do
      let dist_v = tree_dist.Dijkstra.dist and pred_v = tree_dist.Dijkstra.pred in
      let pick =
        if level = 2 then begin
          match scan_level2 ~candidates ~dist_v ~remaining ~need:!still_needed ~table with
          | None -> None
          | Some (_, u, cnt) -> (
              match a1_candidate fwd maps ~table ~need:cnt ~v:u ~remaining with
              | None -> None
              | Some sub -> Some (u, sub))
        end
        else begin
          (* Exhaustive recursive scan, only for small instances. *)
          let best = ref None in
          Array.iter
            (fun u ->
              if Float.is_finite dist_v.(u) then
              for cnt = 1 to !still_needed do
                match
                  build_candidate fwd maps ~candidates ~targets ~table ~level:(level - 1)
                    ~need:cnt ~v:u ~remaining ~rounds
                with
                | None -> ()
                | Some sub ->
                    let density =
                      (dist_v.(u) +. sub.cand_cost) /. float_of_int (List.length sub.cand_terms)
                    in
                    let better =
                      match !best with Some (d, _, _) -> density < d | None -> true
                    in
                    if better then best := Some (density, u, sub)
              done)
            candidates;
          match !best with None -> None | Some (_, u, sub) -> Some (u, sub)
        end
      in
      match pick with
      | None -> progress := false
      | Some (u, sub) ->
          Tmedb_obs.Counter.incr c_expansions;
          incr rounds;
          if Tmedb_report.Provenance.enabled () then
            Tmedb_report.Provenance.emit
              (Tmedb_report.Provenance.Expansion
                 { vertex = u; terminals = List.length sub.cand_terms });
          (* Realize the connecting path tree -> u plus the subtree. *)
          let rec connect x acc =
            if pred_v.(x) < 0 then acc
            else begin
              let p = pred_v.(x) in
              match Digraph.view_edge_weight fwd p x with
              | Some w -> connect p ((p, x, w) :: acc)
              | None -> acc
            end
          in
          let fresh = ref [] in
          let note_edges es =
            Edge_set.add_list set es;
            List.iter
              (fun (a, b, _) ->
                if not (Hashtbl.mem tree_members a) then begin
                  Hashtbl.replace tree_members a ();
                  fresh := a :: !fresh
                end;
                if not (Hashtbl.mem tree_members b) then begin
                  Hashtbl.replace tree_members b ();
                  fresh := b :: !fresh
                end)
              es
          in
          note_edges (connect u []);
          note_edges sub.cand_edges;
          Dijkstra.refine_view fwd tree_dist ~new_sources:!fresh ?targets;
          List.iter
            (fun ti ->
              if remaining.(ti) then begin
                remaining.(ti) <- false;
                covered := ti :: !covered;
                decr still_needed
              end)
            sub.cand_terms
    done;
    if !covered = [] then None
    else Some { cand_edges = Edge_set.to_list set; cand_cost = Edge_set.cost set; cand_terms = !covered }
  end

let solve_body ~level ~candidates ~rounds ~fwd ~rev ~root ~terminals =
  if level < 1 then invalid_arg "Dst.solve: level < 1";
  let nv = fwd.Digraph.nv in
  if root < 0 || root >= nv then invalid_arg "Dst.solve: root out of range";
  List.iter
    (fun t -> if t < 0 || t >= nv then invalid_arg "Dst.solve: terminal out of range")
    terminals;
  let terminals = List.filter (fun t -> t <> root) (List.sort_uniq Int.compare terminals) in
  (* The tree search stops once the candidates are settled.  Without a
     restriction there is no stop set at all: one over every vertex
     fires only when all are settled, after which every queued entry
     is stale, so the full drain is identical. *)
  let candidates, targets =
    match candidates with
    | None -> (Array.init nv (fun v -> v), None)
    | Some cs ->
        List.iter
          (fun c -> if c < 0 || c >= nv then invalid_arg "Dst.solve: candidate out of range")
          cs;
        (* The root and the terminals must stay eligible. *)
        let cs = List.sort_uniq Int.compare ((root :: terminals) @ cs) in
        (Array.of_list cs, Some cs)
  in
  let maps = build_terminal_maps ~fwd ~rev terminals in
  let k = Array.length maps.ids in
  let table = build_table maps ~nv candidates in
  let remaining = Array.make k true in
  let result =
    build_candidate fwd maps ~candidates ~targets ~table ~level ~need:k ~v:root ~remaining
      ~rounds
  in
  let covered_tis = match result with None -> [] | Some c -> c.cand_terms in
  let covered = List.sort Int.compare (List.map (fun ti -> maps.ids.(ti)) covered_tis) in
  (* Both lists are id-sorted: a linear merge instead of the former
     O(k²) List.mem filter. *)
  let rec diff_sorted xs ys =
    match (xs, ys) with
    | [], _ -> []
    | xs, [] -> xs
    | x :: xt, y :: yt ->
        if x < y then x :: diff_sorted xt ys
        else if x > y then diff_sorted xs yt
        else diff_sorted xt yt
  in
  let uncovered = diff_sorted terminals covered in
  let edges, cost =
    match result with None -> ([], 0.) | Some c -> (c.cand_edges, c.cand_cost)
  in
  { tree = { edges; cost; covered }; uncovered }

let solve_views ?(level = 2) ?candidates ~fwd ~rev ~root ~terminals () =
  Tmedb_obs.Counter.incr c_solves;
  Tmedb_obs.Span.with_ "dst.solve"
    ~args:
      [
        ("vertices", string_of_int fwd.Digraph.nv);
        ("terminals", string_of_int (List.length terminals));
        ("level", string_of_int level);
      ]
    (fun () ->
      (* Expansion depth of this solve through a local counter (not a
         registry-counter delta): concurrent solves on other domains
         must not leak into this solve's observation. *)
      let rounds = ref 0 in
      let outcome =
        Tmedb_obs.Timer.time t_solve (fun () ->
            solve_body ~level ~candidates ~rounds ~fwd ~rev ~root ~terminals)
      in
      Tmedb_obs.Histogram.observe h_expansion_rounds !rounds;
      outcome)

let solve ?level ?candidates g ~root ~terminals =
  solve_views ?level ?candidates ~fwd:(Digraph.view g)
    ~rev:(Digraph.view (Digraph.reverse g)) ~root ~terminals ()

let prune_within ~nv ~root tree =
  let sub = Digraph.of_edges ~n:nv tree.edges in
  (* Only the covered terminals' paths are extracted below. *)
  let r = Dijkstra.run sub ~src:root ~targets:tree.covered in
  let set = Edge_set.create nv in
  List.iter
    (fun term ->
      match Dijkstra.path_edges sub r ~src:root ~dst:term with
      | Some es -> Edge_set.add_list set es
      | None -> ())
    tree.covered;
  let edges = Edge_set.to_list set in
  { edges; cost = Edge_set.cost set; covered = tree.covered }

let prune g ~root tree = prune_within ~nv:(Digraph.n g) ~root tree
