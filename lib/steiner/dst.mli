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
    shared trunks are paid once.

    Every vertex's distance to each terminal comes from one pass over
    the graph's strongly connected components, sinks first, walking
    the CSR arrays directly: O(V + E·k) plus a label-correcting pass
    inside each component of more than one vertex, at worst
    Bellman-Ford's bound on that component.  Distances and next hops
    equal, bit for bit, those of a reverse Dijkstra from each terminal
    (the argument is in dst.ml); where two successors tie on a next
    hop, that terminal's reverse Dijkstra is run once and decides.

    A level-2 greedy round costs O(C) over the C candidates for their
    keys (proven lower bounds on each candidate's best density: its
    exact density from an earlier round of the same call while its
    tree distance is unchanged, else a bound from that distance and
    its nearest terminal), plus O(k) for each candidate it evaluates
    exactly: the smallest key, then only those whose key the best
    density found so far does not exceed.  A candidate's terminal row
    is sorted once, in O(k²) at worst, the first time it is read.
    The pick equals a full scan's lowest (density, candidate, count),
    so the trees are those of evaluating every candidate every round;
    the counters [dst.density_evals] and [dst.rows_sorted] record how
    many evaluations and sorts a solve made. *)

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
    It bounds the rounds' keys and evaluations and the tree search,
    which stops once the candidates are settled; it does not bound the
    terminal-distance pass, which reads the whole graph, or the paths
    realised by each pick, which still run through every vertex.  No
    TMEDB planner passes it: [Eedcb] solves with every vertex a
    candidate, so its searches drain the whole graph.  Passing every
    vertex gives the same result as passing none. *)

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
    graph and its {!Digraph.reverse}.  Each view is asked for every
    vertex's successors exactly once, in ascending vertex order, and
    materialised into CSR arrays ({!Digraph.of_succ}) inside the
    solve's timer; the solve then runs {!solve}'s code on them, so a
    lazy view is forced in full.  [rev] serves the distance pass's
    relaxations inside a strongly connected component and the reverse
    Dijkstra of a terminal whose next hop is tied. *)

val prune : Digraph.t -> root:int -> tree -> tree
(** Restrict the tree to shortest paths (within the tree's own edges)
    from the root to its covered terminals.  Result is an arborescence
    with cost ≤ the input cost covering the same terminals. *)

val prune_within : nv:int -> root:int -> tree -> tree
(** {!prune} without a host graph: the tree's own edges are the only
    input, [nv] bounds its vertex ids (the host graph's vertex count).
    [prune g ~root tree = prune_within ~nv:(Digraph.n g) ~root tree]. *)

val tree_cost : (int * int * float) list -> float
(** Deduplicated cost of an edge list: the first weight listed for
    each (u, v) pair, summed in list order.  O(m log m) for m edges. *)
