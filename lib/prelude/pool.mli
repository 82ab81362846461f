(** Fixed-size domain pool with per-worker work-stealing deques.

    The experiment sweeps (figures 4–7) and Monte-Carlo trial loops are
    independent tasks; this pool runs them across OCaml 5 domains with
    no external dependency.  Design notes:

    - A pool of [num_domains] logical workers spawns [num_domains - 1]
      domains; the calling domain itself executes tasks while it waits
      for a batch, so a 1-worker pool is exactly sequential execution
      with zero synchronisation overhead.
    - Each worker owns a deque; batch submission spreads jobs over the
      deques round-robin.  A worker pops its own deque from the back
      (newest first) and, when empty, steals from the other deques'
      fronts in a deterministic cyclic scan — no randomised victim
      selection, so the scheduler consumes no RNG stream.
    - Chunked maps size their chunks adaptively: each chunk measures
      its per-element cost into a per-pool estimate, and later batches
      aim for a few milliseconds of work per scheduled job (tiny
      batches run inline on the caller); an explicit [?chunk] argument
      pins the chunk size instead.  Chunk sizing only steers
      scheduling — results never depend on it.
    - Nested use is safe: a task may call {!parallel_map} on the same
      pool.  The inner call's tasks are drained by the blocked caller
      (and any idle worker), so the pool never deadlocks.
    - Determinism is the caller's contract: each task writes only its
      own result slot, so [parallel_map pool f a] equals
      [Array.map f a] whenever [f] is pure per element (callers split
      RNG streams per task up front — see {!Rng.split}).
    - The first exception raised by a task is re-raised in the caller
      (with its backtrace) after the batch drains; remaining unstarted
      tasks of that batch are skipped.
    - Telemetry ({!Tmedb_obs}): [pool.tasks] counts logical elements
      dispatched through {!parallel_map}/{!parallel_map_chunked}/
      {!parallel_init} and their option-dispatch wrappers {!map}/
      {!map_chunked} (the same total at any worker count, including no
      pool); [pool.batches]/[pool.run_batch] count and time batch
      submissions, [pool.steals] counts takes from a deque the taker
      does not own, and [pool.chunk_size] records the chunk each
      chunked batch was scheduled with (all of these depend on the pool
      size, chunking and timing — they are scheduler diagnostics, not
      results). *)

type t

val default_num_domains : unit -> int
(** Worker-count heuristic: the [TMEDB_JOBS] environment variable when
    set to a positive integer, otherwise
    [Domain.recommended_domain_count ()].  Clamped to [1, 128]. *)

val create : ?num_domains:int -> unit -> t
(** [create ()] sizes the pool with {!default_num_domains}.  The pool
    holds [num_domains - 1] spawned domains until {!shutdown}.

    Multi-domain pools also enlarge the minor heap of every
    participating domain to 1M words (8 MB; the caller's is restored
    by {!shutdown}): the OCaml 5 minor GC is a stop-the-world
    handshake across domains, and with the stock 256k-word heap that
    handshake alone makes two allocation-heavy domains on a shared
    core slower than one.  The size is a measured compromise, not a
    setting: a minor heap that allocation cycles through is resident
    in full on every domain, so a larger one costs peak RSS (2M words
    added ~16 MB to a 2-domain [pareto] run).  GC sizing cannot
    affect results.
    @raise Invalid_argument if [num_domains < 1]. *)

val num_domains : t -> int
(** Logical worker count (spawned domains + the calling domain). *)

val shutdown : t -> unit
(** Join all worker domains.  Idempotent.  Outstanding batches must
    have completed; submitting after shutdown raises
    [Invalid_argument]. *)

val with_pool : ?num_domains:int -> (t -> 'a) -> 'a
(** Scoped {!create}/{!shutdown}. *)

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map pool f a] is [Array.map f a] computed by the pool,
    one task per element.  Result order matches input order. *)

val parallel_map_chunked : ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** Like {!parallel_map} but one task per contiguous chunk of [chunk]
    elements, for cheap per-element work where per-task overhead would
    dominate.  [chunk] defaults to the adaptive heuristic (observed
    per-element cost targeting a few ms per job).
    @raise Invalid_argument if [chunk < 1]. *)

val parallel_init : t -> int -> (int -> 'a) -> 'a array
(** [parallel_init pool n f] is [Array.init n f] computed by the pool. *)

val run_sequential : ('a -> 'b) -> 'a array -> 'b array
(** [Array.map], named: the [?pool:None] fallback used by callers that
    thread an optional pool. *)

val map : t option -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f a] dispatches to {!parallel_map} or [Array.map]
    according to [pool] — the one-liner every [?pool] caller wants. *)

val map_chunked : ?chunk:int -> t option -> ('a -> 'b) -> 'a array -> 'b array
(** Likewise for {!parallel_map_chunked}: the right dispatch for large
    arrays of cheap tasks (Monte-Carlo trials). *)
