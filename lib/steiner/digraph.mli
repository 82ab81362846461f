(** Immutable weighted digraphs in compressed-sparse-row form.

    The auxiliary graphs of paper Section VI-A are forced once and then
    traversed heavily by Dijkstra and the Steiner solver; CSR keeps
    traversal allocation-free. *)

type t = private {
  n : int;  (** Number of vertices. *)
  row : int array;
      (** [row.(u) .. row.(u+1) - 1] index u's edges in {!iter_succ}
          order; [n + 1] entries. *)
  dst : int array;  (** Edge heads; may carry spare capacity past [row.(n)]. *)
  weight : float array;  (** Edge weights, indexed like [dst]. *)
}
(** Read-only CSR arrays, so that a hot loop can walk a vertex's edges
    without a closure per edge (as [Dst]'s terminal pass does).  Only
    this module builds values. *)

val of_edges : n:int -> (int * int * float) list -> t
(** Parallel edges are kept (harmless for shortest paths: the cheaper
    one wins).  @raise Invalid_argument on out-of-range endpoints or
    negative weights. *)

val of_succ : n:int -> ?m:int -> (int -> (int -> float -> unit) -> unit) -> t
(** [of_succ ~n succ] calls [succ u add] exactly once for each
    u = 0 .. n-1, in ascending order; each [add v w] appends the edge
    u→v of weight w, so every vertex keeps its successors in emission
    order.  The CSR arrays are filled directly, with no edge list;
    [m] (an edge-count estimate, ideally an upper bound) sizes them up
    front.  @raise Invalid_argument on [n <= 0], out-of-range
    endpoints or negative weights. *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of edges. *)

val iter_succ : t -> int -> (int -> float -> unit) -> unit
(** [iter_succ g u f] calls [f v w] for every edge u→v of weight w. *)

val fold_succ : t -> int -> ('a -> int -> float -> 'a) -> 'a -> 'a
val out_degree : t -> int -> int
val reverse : t -> t
(** Transposed graph (weights preserved).  Vertex v's reversed edges
    are ordered by descending source, and edges from one source in
    reverse {!iter_succ} order.  O(n + m), no edge list. *)

val edge_weight : t -> int -> int -> float option
(** Minimum weight among parallel u→v edges, if any. *)

type view = {
  nv : int;  (** Number of vertices ([0 .. nv-1]). *)
  iter_succ : int -> (int -> float -> unit) -> unit;
      (** [iter_succ u f] calls [f v w] for every edge u→v of weight
          w.  The enumeration order must be deterministic: the
          traversal algorithms break priority ties by operation
          sequence, so callers providing generated views must emit
          successors in a fixed order. *)
}
(** A graph exposed as an on-demand successor generator: the common
    face of a materialised CSR digraph and a lazily expanded one (see
    [Tmedb.Aux_graph.Lazy]).  Traversals that only ever ask for
    successors of the vertices they actually reach run on a view
    without the graph ever being built in full. *)

val view : t -> view
(** The CSR digraph as a view (same successor order as {!iter_succ}).
    O(1). *)

val view_edge_weight : view -> int -> int -> float option
(** Minimum weight among parallel u→v edges of the view, if any —
    {!edge_weight} generalised.  O(out-degree of u). *)

val pp : Format.formatter -> t -> unit
