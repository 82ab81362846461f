(** Directed Steiner tree by recursive greedy (Charikar et al.), the
    engine behind the paper's O(N^ε)-approximate MEMT step (Section
    VI-A; Liang's reduction [3]).

    [level] trades quality for time exactly like the paper's ε = 1/i:
    level 1 is the shortest-path-tree greedy (ratio O(k)), level 2 the
    default recursive greedy (ratio O(√k)·log k family), level ≥ 3 is
    exponentially slower and only sensible on small instances.

    Implementation note: levels ≥ 2 use the tree-growing variant —
    each greedy pick connects to the nearest vertex of the current
    partial tree (multi-source Dijkstra) instead of the call root.
    Every candidate Charikar's analysis considers is still considered
    at no worse density, so the approximation guarantee is kept while
    shared trunks are paid once. *)

type tree = {
  edges : (int * int * float) list;  (** Deduplicated edge triples. *)
  cost : float;  (** Sum of the deduplicated edge weights. *)
  covered : int list;  (** Terminals reached, ascending. *)
}

type outcome = {
  tree : tree;
  uncovered : int list;  (** Terminals unreachable from the root. *)
}

val solve :
  ?level:int -> ?candidates:int list -> Digraph.t -> root:int -> terminals:int list -> outcome
(** @raise Invalid_argument on [level < 1], out-of-range root,
    terminals or candidates.  Terminals equal to the root are
    considered covered for free.

    [candidates] restricts the intermediate vertices the greedy rounds
    may branch from (the root and terminals are always kept eligible).
    Paths realised by each pick still run through every vertex; the
    restriction prunes the density scan, and every Dijkstra of the
    solve stops once the candidates are settled.  No TMEDB planner
    passes it: [Eedcb] solves with every vertex a candidate, so its
    searches drain the whole graph.  Passing every vertex gives the
    same result as passing none. *)

val solve_views :
  ?level:int ->
  ?candidates:int list ->
  fwd:Digraph.view ->
  rev:Digraph.view ->
  root:int ->
  terminals:int list ->
  unit ->
  outcome
(** {!solve} over successor-generator views: [fwd] enumerates forward
    edges, [rev] the reversed graph's.  The two views must describe
    the same edge set with matching deterministic orders — the solver
    is exactly {!solve} when both come from {!Digraph.view} of one
    graph and its {!Digraph.reverse}.  With a lazy view only the
    vertices the Dijkstra scans actually pop are ever expanded. *)

val prune : Digraph.t -> root:int -> tree -> tree
(** Restrict the tree to shortest paths (within the tree's own edges)
    from the root to its covered terminals.  Result is an arborescence
    with cost ≤ the input cost covering the same terminals. *)

val prune_within : nv:int -> root:int -> tree -> tree
(** {!prune} without a host graph: the tree's own edges are the only
    input, [nv] bounds its vertex ids (the host graph's vertex count).
    [prune g ~root tree = prune_within ~nv:(Digraph.n g) ~root tree]. *)

val tree_cost : (int * int * float) list -> float
(** Deduplicated cost of an edge list. *)
