open Tmedb_prelude

type tree = { edges : (int * int * float) list; cost : float; covered : int list }
type outcome = { tree : tree; uncovered : int list }

(* Telemetry: [dst.expansions] counts greedy rounds that realized a
   candidate into the partial tree (the outer-loop work measure of the
   recursive-greedy algorithm); [dst.level2_scans] counts level-2
   greedy rounds; [dst.density_evals] counts the exact density
   evaluations those rounds made (each round's threshold vertex
   included), and [dst.rows_sorted] the vertices whose terminal row was
   sorted, once each, on first use; [dst.tie_fallbacks] counts the
   terminals whose exact reverse Dijkstra a next-hop tie had to run. *)
let c_solves = Tmedb_obs.Counter.make "dst.solves"
let c_expansions = Tmedb_obs.Counter.make "dst.expansions"
let c_level2_scans = Tmedb_obs.Counter.make "dst.level2_scans"
let c_density_evals = Tmedb_obs.Counter.make "dst.density_evals"
let c_rows_sorted = Tmedb_obs.Counter.make "dst.rows_sorted"
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

  (* The edges in key order and their cost, summed in that order. *)
  let contents t =
    let bs = bindings t in
    ( List.map (fun (key, w) -> (key / t.n, key mod t.n, w)) bs,
      List.fold_left (fun acc (_, w) -> acc +. w) 0. bs )
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
   Dijkstra from terminal ti ([Dijkstra.run rg ~src]) computes.

   The pass visits the forward graph's strongly connected components
   sinks first (an iterative Tarjan whose DFS frames each hold one
   cursor into their vertex's CSR row), so every edge that leaves a
   component lands in one whose distances are final.  A vertex starts
   from the k-vector minimum of [d.(x) +. w] over its edges that leave
   its component (a terminal's own entry is 0); a component of more
   than one vertex is then settled by a FIFO label-correcting pass
   over k-vectors along the reversed edges that stay inside it (at
   worst Bellman-Ford's bound, one round over the component's edges
   per vertex in it).  On the auxiliary graph at tau = 0 the cycles
   stay inside one instant, so sinks first is the time order and no
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
  g : Digraph.t;  (* the forward graph *)
  rg : Digraph.t;  (* its reverse *)
  ids : int array;  (* terminal vertex ids *)
  dist : float array;  (* dist.(v * k + ti): distance v -> terminal ti *)
  exact_pred : int array option array;  (* tie fallback: reverse Dijkstra preds *)
}

let build_terminal_maps g rg terminals =
  let tm = Tmedb_obs.Timer.start t_terminal_maps in
  let ids = Array.of_list terminals in
  let k = Array.length ids and nv = Digraph.n g in
  let row = g.Digraph.row and dst = g.Digraph.dst and weight = g.Digraph.weight in
  let dist = Array.make (nv * k) Float.infinity in
  Array.iteri (fun ti term -> dist.((term * k) + ti) <- 0.) ids;
  (* Tarjan state: [comp.(v)] is v's component id once the component
     is emitted, -1 before; emitted ids count up sinks first. *)
  let index = Array.make nv (-1) and low = Array.make nv 0 and comp = Array.make nv (-1) in
  let stack = Array.make nv 0 and sp = ref 0 and visited = ref 0 and ncomp = ref 0 in
  (* DFS frames: frame f's vertex and the index of its next unexplored
     edge in the CSR arrays. *)
  let fv = Array.make nv 0 and fpos = Array.make nv 0 and fsp = ref 0 in
  let open_frame v =
    index.(v) <- !visited;
    low.(v) <- !visited;
    incr visited;
    stack.(!sp) <- v;
    incr sp;
    fv.(!fsp) <- v;
    fpos.(!fsp) <- row.(v);
    incr fsp
  in
  (* When v's frame closes, each successor is either emitted (final) or
     in v's own component, still on the stack. *)
  let relax_exits v =
    let bv = v * k in
    for e = row.(v) to row.(v + 1) - 1 do
      let x = dst.(e) in
      if comp.(x) >= 0 then begin
        let w = weight.(e) and bxk = x * k in
        for ti = 0 to k - 1 do
          let nd = dist.(bxk + ti) +. w in
          if nd < dist.(bv + ti) then dist.(bv + ti) <- nd
        done
      end
    done
  in
  (* FIFO label correcting inside component [cur] (the vertices
     [stack.(lo .. !sp-1)]): each vertex is queued at most once. *)
  let rrow = rg.Digraph.row and rdst = rg.Digraph.dst and rweight = rg.Digraph.weight in
  let queued = Bitset.create nv and ring = Array.make nv 0 in
  let settle lo cur =
    let size = !sp - lo in
    Array.blit stack lo ring 0 size;
    for i = 0 to size - 1 do
      Bitset.set queued ring.(i)
    done;
    let head = ref 0 and count = ref size in
    while !count > 0 do
      let u = ring.(!head) in
      head := (!head + 1) mod size;
      decr count;
      Bitset.clear queued u;
      let bu = u * k in
      for e = rrow.(u) to rrow.(u + 1) - 1 do
        let x = rdst.(e) in
        if comp.(x) = cur then begin
          let w = rweight.(e) and bxk = x * k in
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
            ring.((!head + !count) mod size) <- x;
            incr count
          end
        end
      done
    done
  in
  for s = 0 to nv - 1 do
    if index.(s) < 0 then begin
      open_frame s;
      while !fsp > 0 do
        let f = !fsp - 1 in
        let v = fv.(f) and e = fpos.(f) in
        if e < row.(v + 1) then begin
          fpos.(f) <- e + 1;
          let x = dst.(e) in
          if index.(x) < 0 then open_frame x
          else if comp.(x) < 0 then low.(v) <- Int.min low.(v) index.(x)
        end
        else begin
          relax_exits v;
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
            let cur = !ncomp in
            incr ncomp;
            for i = !lo to !sp - 1 do
              comp.(stack.(i)) <- cur
            done;
            if !sp - !lo > 1 then settle !lo cur;
            sp := !lo
          end
        end
      done
    end
  done;
  Tmedb_obs.Timer.stop t_terminal_maps tm;
  { g; rg; ids; dist; exact_pred = Array.make k None }

(* The successor of [u] on its shortest path to terminal [ti] that the
   terminal's reverse Dijkstra records (see the argument above). *)
let next_hop maps ~ti u =
  let k = Array.length maps.ids and g = maps.g and dist = maps.dist in
  let du = dist.((u * k) + ti) in
  let best = ref (-1) and best_d = ref Float.infinity and tied = ref false in
  for e = g.Digraph.row.(u) to g.Digraph.row.(u + 1) - 1 do
    let x = g.Digraph.dst.(e) in
    let dx = dist.((x * k) + ti) in
    if x <> u && Float.equal (dx +. g.Digraph.weight.(e)) du then
      if dx < !best_d then begin
        best := x;
        best_d := dx;
        tied := false
      end
      else if Float.equal dx !best_d && x <> !best then tied := true
  done;
  if not !tied then !best
  else begin
    let pred =
      match maps.exact_pred.(ti) with
      | Some pred -> pred
      | None ->
          Tmedb_obs.Counter.incr c_tie_fallbacks;
          let pred = (Dijkstra.run maps.rg ~src:maps.ids.(ti)).Dijkstra.pred in
          maps.exact_pred.(ti) <- Some pred;
          pred
    in
    pred.(u)
  end

(* Edges of the shortest path v -> terminal ti, following next hops.
   A simple path has fewer than nv edges: a longer walk means a wrong
   next-hop rule cycling on a zero-weight tie. *)
let path_to_terminal maps ~ti ~v =
  let term = maps.ids.(ti) and nv = Digraph.n maps.g in
  let rec walk u steps acc =
    if u = term then List.rev acc
    else if steps >= nv then invalid_arg "Dst: next-hop walk did not reach its terminal"
    else begin
      let nxt = next_hop maps ~ti u in
      if nxt < 0 then List.rev acc (* v = term handled above; unreachable defended in callers *)
      else begin
        match Digraph.edge_weight maps.g u nxt with
        | Some w -> walk nxt (steps + 1) ((u, nxt, w) :: acc)
        | None -> List.rev acc
      end
    end
  in
  walk v 0 []

(* The greedy rounds' state for one solve.

   Rows.  A candidate's terminal row is its finite terminal distances
   in ascending (distance, terminal index) order.  It is sorted the
   first time a round or an A_1 pick reads it, into [pool]: the row of
   v starts at [row_at.(v)] (-1 before) with its length, followed by
   that many terminal indices; the distances stay in [maps.dist].

   Keys.  A level-2 round picks the lexicographic minimum of (density,
   candidate position, count) over every candidate u with a finite
   tree distance du and every count c of u's nearest remaining
   terminals, where the density is [(du +. d_1 +. ... +. d_c) /. c],
   summed left to right along u's filtered row.  Each candidate carries
   a key, a proven lower bound on its best density this round:

   - Cached.  If u was evaluated earlier in the same level-2 call
     ([stamp.(u) = epoch]) and du is bitwise the distance it had then
     ([seen_du.(u)]), the key is the density found then.  Within one
     call terminals only leave [remaining] and [need] only falls, so
     the j-th entry of u's filtered row can only grow, and the counts
     allowed are a subset of the earlier ones; float addition and
     division are monotone in each operand, so every partial density
     is at least the earlier one, and so is their minimum.  Another
     call (a level >= 3 round runs one per vertex and count) brings
     another root and remaining set: the epoch is bumped per call.
   - Bound.  Otherwise the key is [raw *. shrink] with
     [raw = du /. need +. dmin.(u)], dmin the smallest distance from u
     to any terminal.  In reals, each density is >= du/c + dmin >=
     du/need + dmin = R.  With unit roundoff eps = 2^-53, the c <= k
     additions of non-negative terms and the division lose at most a
     factor (1 - eps)^(k+1) >= 1 - (k+1) eps, while [raw] overshoots
     R by at most (1 + eps)^2 and the product by (1 + eps) more;
     [shrink = 1 - (k+8) 2^-52] rounds to at most 1 - (2k+15.5) eps,
     so the key stays below R (1 - (2k+12) eps), under the computed
     density.  Below 2^-1000 a density can be subnormal, where the
     relative bound fails: the key is then 0.  (Above it, a subnormal
     [du /. need] is off by at most 2^-1075, far inside the margin.)
     A vertex with no finite terminal distance has an infinite key and
     no density at all.

   A round first evaluates the candidate with the smallest key (the
   first one on a tie), whose density is the threshold.  It then walks
   the candidates in position order and evaluates only those whose key
   is <= the threshold and < the running best density, keeping a
   candidate only on a strictly smaller density.  A skipped candidate
   either has key > threshold >= the minimum, so its density cannot
   reach the minimum, or key >= an earlier position's density, so it
   cannot beat that position even on a tie.  A candidate whose key
   equals the threshold must still be evaluated: it may tie with the
   threshold vertex from an earlier position.  The pick is therefore
   the same (density, position, count) minimum a full scan finds, and
   the cached densities and counts are exact. *)
type search = {
  maps : terminal_maps;
  k : int;
  candidates : int array;
  targets : int list option;  (* the tree search's stop set, when restricted *)
  row_at : int array;
  mutable pool : int array;
  mutable pool_len : int;
  dmin : float array;
  shrink : float;
  keys : float array;  (* by candidate position, rewritten every round *)
  mutable epoch : int;
  stamp : int array;
  seen_du : float array;
  density : float array;  (* best density and its count at the last evaluation *)
  count : int array;
  mutable evals : int;
  mutable rows_sorted : int;
}

let make_search maps ~candidates ~targets =
  let k = Array.length maps.ids and nv = Digraph.n maps.g in
  let dmin = Array.make nv Float.infinity in
  Array.iter
    (fun u ->
      let m = ref Float.infinity in
      for ti = 0 to k - 1 do
        let d = maps.dist.((u * k) + ti) in
        if d < !m then m := d
      done;
      dmin.(u) <- !m)
    candidates;
  {
    maps;
    k;
    candidates;
    targets;
    row_at = Array.make nv (-1);
    pool = Array.make (Int.min nv 256 * (k + 1)) 0;
    pool_len = 0;
    dmin;
    shrink = 1. -. (float_of_int (k + 8) *. epsilon_float);
    keys = Array.make (Array.length candidates) Float.infinity;
    epoch = 0;
    stamp = Array.make nv 0;
    seen_du = Array.make nv Float.nan;
    density = Array.make nv Float.infinity;
    count = Array.make nv 0;
    evals = 0;
    rows_sorted = 0;
  }

(* Offset of v's sorted row in [s.pool], sorting it on first use.
   Insertion sort: indices arrive ascending, so an entry moves past
   exactly those with a strictly larger distance. *)
let sorted_row s v =
  let at = s.row_at.(v) in
  if at >= 0 then at
  else begin
    let k = s.k and off = s.pool_len in
    if off + k + 1 > Array.length s.pool then
      s.pool <- Array.append s.pool (Array.make (Int.max (Array.length s.pool) (k + 1)) 0);
    let pool = s.pool and dist = s.maps.dist and base = v * k in
    let len = ref 0 in
    for ti = 0 to k - 1 do
      let d = dist.(base + ti) in
      if Float.is_finite d then begin
        let j = ref (off + 1 + !len) in
        while !j > off + 1 && dist.(base + pool.(!j - 1)) > d do
          pool.(!j) <- pool.(!j - 1);
          decr j
        done;
        pool.(!j) <- ti;
        incr len
      end
    done;
    pool.(off) <- !len;
    s.pool_len <- off + 1 + !len;
    s.row_at.(v) <- off;
    s.rows_sorted <- s.rows_sorted + 1;
    off
  end

type candidate = { cand_edges : (int * int * float) list; cand_cost : float; cand_terms : int list }

(* A_1: shortest paths from v to the [need] nearest remaining terminals,
   read off v's sorted row. *)
let a1_candidate s ~need ~v ~remaining =
  let off = sorted_row s v in
  let pool = s.pool in
  let len = pool.(off) in
  let chosen = ref [] and taken = ref 0 and j = ref 0 in
  while !taken < need && !j < len do
    let ti = pool.(off + 1 + !j) in
    if remaining.(ti) then begin
      chosen := ti :: !chosen;
      incr taken
    end;
    incr j
  done;
  let chosen = List.rev !chosen in
  if chosen = [] then None
  else begin
    let set = Edge_set.create (Digraph.n s.maps.g) in
    List.iter (fun ti -> Edge_set.add_list set (path_to_terminal s.maps ~ti ~v)) chosen;
    let cand_edges, cand_cost = Edge_set.contents set in
    Some { cand_edges; cand_cost; cand_terms = chosen }
  end

(* u's exact best density this round and the smallest count reaching
   it, stored as u's cache entry for [epoch]. *)
let evaluate s ~epoch ~remaining ~need u du =
  s.evals <- s.evals + 1;
  let off = sorted_row s u in
  let pool = s.pool and dist = s.maps.dist and base = u * s.k in
  let len = pool.(off) in
  let sum = ref du and cnt = ref 0 and j = ref 0 in
  let best = ref Float.infinity and best_cnt = ref 0 in
  while !cnt < need && !j < len do
    let ti = pool.(off + 1 + !j) in
    if remaining.(ti) then begin
      sum := !sum +. dist.(base + ti);
      incr cnt;
      let density = !sum /. float_of_int !cnt in
      if density < !best then begin
        best := density;
        best_cnt := !cnt
      end
    end;
    incr j
  done;
  s.stamp.(u) <- epoch;
  s.seen_du.(u) <- du;
  s.density.(u) <- !best;
  s.count.(u) <- !best_cnt

(* One level-2 round: the best (vertex, count) by density over the
   candidates, evaluating only those the keys cannot rule out (see
   [search]). *)
let level2_round s ~epoch ~dist_v ~remaining ~need =
  Tmedb_obs.Counter.incr c_level2_scans;
  let cands = s.candidates and keys = s.keys in
  let needf = float_of_int need and shrink = s.shrink in
  let first = ref (-1) and first_key = ref Float.infinity in
  for c = 0 to Array.length cands - 1 do
    let u = cands.(c) in
    let du = dist_v.(u) in
    let key =
      if not (Float.is_finite du) then Float.infinity
      else if s.stamp.(u) = epoch && Float.equal s.seen_du.(u) du then s.density.(u)
      else begin
        let dmin = s.dmin.(u) in
        let raw = (du /. needf) +. dmin in
        if not (Float.is_finite dmin) then Float.infinity
        else if raw >= 0x1p-1000 && Float.is_finite raw then raw *. shrink
        else 0.
      end
    in
    keys.(c) <- key;
    if key < !first_key then begin
      first := c;
      first_key := key
    end
  done;
  if !first < 0 then None
  else begin
    let t = !first in
    let tu = cands.(t) in
    evaluate s ~epoch ~remaining ~need tu dist_v.(tu);
    let threshold = s.density.(tu) in
    let best = ref (-1) and best_density = ref Float.infinity in
    for c = 0 to Array.length cands - 1 do
      let key = keys.(c) in
      if key <= threshold && key < !best_density then begin
        let u = cands.(c) in
        if c <> t then evaluate s ~epoch ~remaining ~need u dist_v.(u);
        if s.density.(u) < !best_density then begin
          best := u;
          best_density := s.density.(u)
        end
      end
    done;
    if !best < 0 then None else Some (!best, s.count.(!best))
  end

(* Tree-growing recursive greedy: each round connects the best-density
   (intermediate vertex, terminal count) candidate to the *current*
   partial tree (multi-source Dijkstra), not only to the call root —
   a strict improvement over connecting every pick at [v] since merged
   path segments are paid once and inform later picks. *)
let rec build_candidate s ~level ~need ~v ~remaining ~rounds =
  if level <= 1 then a1_candidate s ~need ~v ~remaining
  else begin
    let g = s.maps.g and targets = s.targets in
    let nv = Digraph.n g in
    let remaining = Array.copy remaining in
    (* A new call: no cached key of an earlier call holds here. *)
    s.epoch <- s.epoch + 1;
    let epoch = s.epoch in
    let set = Edge_set.create nv in
    let tree_members = Bitset.create nv in
    Bitset.set tree_members v;
    let covered = ref [] in
    let still_needed = ref need in
    let progress = ref true in
    (* Distances from the growing tree, warm-restarted as members are
       added (distances only decrease).  Only candidate vertices are
       ever read from this result (the rounds and the connect walk), so
       the relaxation may stop once all candidates are settled. *)
    let tree_dist = Dijkstra.run_multi g ~sources:[ v ] ?targets in
    while !still_needed > 0 && !progress do
      let dist_v = tree_dist.Dijkstra.dist and pred_v = tree_dist.Dijkstra.pred in
      let pick =
        if level = 2 then begin
          match level2_round s ~epoch ~dist_v ~remaining ~need:!still_needed with
          | None -> None
          | Some (u, cnt) -> (
              match a1_candidate s ~need:cnt ~v:u ~remaining with
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
                  build_candidate s ~level:(level - 1) ~need:cnt ~v:u ~remaining ~rounds
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
            s.candidates;
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
              match Digraph.edge_weight g p x with
              | Some w -> connect p ((p, x, w) :: acc)
              | None -> acc
            end
          in
          let fresh = ref [] in
          let note x =
            if not (Bitset.mem tree_members x) then begin
              Bitset.set tree_members x;
              fresh := x :: !fresh
            end
          in
          let note_edges es =
            Edge_set.add_list set es;
            List.iter
              (fun (a, b, _) ->
                note a;
                note b)
              es
          in
          note_edges (connect u []);
          note_edges sub.cand_edges;
          Dijkstra.refine g tree_dist ~new_sources:!fresh ?targets;
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
    else begin
      let cand_edges, cand_cost = Edge_set.contents set in
      Some { cand_edges; cand_cost; cand_terms = !covered }
    end
  end

let check_args ~level ~nv ~root ~terminals ~candidates =
  if level < 1 then invalid_arg "Dst.solve: level < 1";
  if root < 0 || root >= nv then invalid_arg "Dst.solve: root out of range";
  List.iter
    (fun t -> if t < 0 || t >= nv then invalid_arg "Dst.solve: terminal out of range")
    terminals;
  Option.iter
    (List.iter (fun c ->
         if c < 0 || c >= nv then invalid_arg "Dst.solve: candidate out of range"))
    candidates

let solve_body ~level ~candidates ~rounds g rg ~root ~terminals =
  let nv = Digraph.n g in
  let terminals = List.filter (fun t -> t <> root) (List.sort_uniq Int.compare terminals) in
  (* The tree search stops once the candidates are settled.  Without a
     restriction there is no stop set at all: one over every vertex
     fires only when all are settled, after which every queued entry
     is stale, so the full drain is identical. *)
  let candidates, targets =
    match candidates with
    | None -> (Array.init nv (fun v -> v), None)
    | Some cs ->
        (* The root and the terminals must stay eligible. *)
        let cs = List.sort_uniq Int.compare ((root :: terminals) @ cs) in
        (Array.of_list cs, Some cs)
  in
  let maps = build_terminal_maps g rg terminals in
  let k = Array.length maps.ids in
  let s = make_search maps ~candidates ~targets in
  let remaining = Array.make k true in
  let result = build_candidate s ~level ~need:k ~v:root ~remaining ~rounds in
  Tmedb_obs.Counter.add c_density_evals s.evals;
  Tmedb_obs.Counter.add c_rows_sorted s.rows_sorted;
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

(* [graphs ()] gives the forward graph and its reverse; it runs inside
   the solve's timer, after the arguments are checked. *)
let run ~level ~candidates ~nv ~root ~terminals graphs =
  Tmedb_obs.Counter.incr c_solves;
  Tmedb_obs.Span.with_ "dst.solve"
    ~args:
      [
        ("vertices", string_of_int nv);
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
            check_args ~level ~nv ~root ~terminals ~candidates;
            let g, rg = graphs () in
            solve_body ~level ~candidates ~rounds g rg ~root ~terminals)
      in
      Tmedb_obs.Histogram.observe h_expansion_rounds !rounds;
      outcome)

let solve_views ?(level = 2) ?candidates ~fwd ~rev ~root ~terminals () =
  run ~level ~candidates ~nv:fwd.Digraph.nv ~root ~terminals (fun () ->
      let g = Digraph.of_succ ~n:fwd.Digraph.nv fwd.Digraph.iter_succ in
      (g, Digraph.of_succ ~n:rev.Digraph.nv ~m:(Digraph.m g) rev.Digraph.iter_succ))

let solve ?(level = 2) ?candidates g ~root ~terminals =
  let rg = Digraph.reverse g in
  run ~level ~candidates ~nv:(Digraph.n g) ~root ~terminals (fun () -> (g, rg))

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
  let edges, cost = Edge_set.contents set in
  { edges; cost; covered = tree.covered }

let prune g ~root tree = prune_within ~nv:(Digraph.n g) ~root tree
