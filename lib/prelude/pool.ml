(* Telemetry: logical tasks are counted per element regardless of how
   they are chunked onto scheduled jobs (so totals match at any pool
   size); batches count batch submissions, steals count takes from a
   deque the taker does not own, and chunk_size records the chunk the
   adaptive heuristic (or an explicit [?chunk]) picked for each chunked
   batch. *)
let c_tasks = Tmedb_obs.Counter.make "pool.tasks"
let c_batches = Tmedb_obs.Counter.make "pool.batches"
let c_steals = Tmedb_obs.Counter.make "pool.steals"
let t_batch = Tmedb_obs.Timer.make "pool.run_batch"
let h_chunk = Tmedb_obs.Histogram.make "pool.chunk_size"

(* Span-context propagation.  Each scheduled job runs inside a
   ["pool.task"] span whose ["ctx"] attribute carries the submitter's
   logical span path, so the profiler can re-root work executed on a
   worker (or drain-helping caller) domain under the span that
   submitted it — making attribution independent of --jobs.  The DLS
   slot holds the logical path of the innermost task executing on this
   domain, so a nested submission (a task that itself fans out)
   propagates its own logical path rather than the raw domain stack.
   Scheduling metadata only — never read by any algorithm. *)
let task_ctx_key =
  (Domain.DLS.new_key (fun () -> ([] : string list))
  [@lint.allow "toplevel-mutable-state"])

(* Logical span path at a submission point: the names open on this
   domain, with pool frames made transparent — everything up to and
   including the innermost ["pool.task"] is replaced by that task's
   propagated logical path. *)
let submission_ctx () =
  match Tmedb_obs.Span.current_names () with
  | [] -> []
  | names ->
      let saw_task = ref false in
      let suffix =
        List.fold_left
          (fun acc n ->
            if String.equal n "pool.task" then begin
              saw_task := true;
              []
            end
            else if String.equal n "pool.steal" then acc
            else n :: acc)
          [] names
        |> List.rev
      in
      if !saw_task then Domain.DLS.get task_ctx_key @ suffix else suffix

(* A mutex-protected ring-buffer deque.  The owner pushes and pops at
   the back (newest first, keeping nested batches cache-warm); thieves
   steal at the front (oldest first, the work the owner is least likely
   to reach soon).  A plain mutex per deque is plenty here: jobs are
   chunk-sized by construction, so deque traffic is rare relative to
   work, and the scheduler stays obviously correct under OCaml 5's
   memory model. *)
module Deque = struct
  type t = {
    lock : Mutex.t;
    mutable buf : (unit -> unit) array;
    mutable head : int;  (* index of the oldest job *)
    mutable len : int;
  }

  let dummy () = ()
  let create () = { lock = Mutex.create (); buf = Array.make 64 dummy; head = 0; len = 0 }

  let grow t =
    let cap = Array.length t.buf in
    let buf = Array.make (2 * cap) dummy in
    for i = 0 to t.len - 1 do
      buf.(i) <- t.buf.((t.head + i) mod cap)
    done;
    t.buf <- buf;
    t.head <- 0

  let push_back t job =
    Mutex.lock t.lock;
    if t.len = Array.length t.buf then grow t;
    let cap = Array.length t.buf in
    t.buf.((t.head + t.len) mod cap) <- job;
    t.len <- t.len + 1;
    Mutex.unlock t.lock

  let pop_back t =
    Mutex.lock t.lock;
    let r =
      if t.len = 0 then None
      else begin
        let i = (t.head + t.len - 1) mod Array.length t.buf in
        let job = t.buf.(i) in
        t.buf.(i) <- dummy;
        t.len <- t.len - 1;
        Some job
      end
    in
    Mutex.unlock t.lock;
    r

  let steal_front t =
    Mutex.lock t.lock;
    let r =
      if t.len = 0 then None
      else begin
        let job = t.buf.(t.head) in
        t.buf.(t.head) <- dummy;
        t.head <- (t.head + 1) mod Array.length t.buf;
        t.len <- t.len - 1;
        Some job
      end
    in
    Mutex.unlock t.lock;
    r
end

type t = {
  size : int;  (* logical workers: spawned domains + caller *)
  deques : Deque.t array;  (* one per worker; slot [size - 1] is the caller's *)
  rr : int Atomic.t;  (* round-robin submission cursor *)
  sleep_mutex : Mutex.t;
  work_available : Condition.t;
  epoch : int Atomic.t;  (* bumped on every submission; the wake signal *)
  stopping : bool Atomic.t;
  mutable domains : unit Domain.t list;
  est_ns : int Atomic.t;  (* EWMA of observed per-element cost; 0 = unknown *)
  caller_minor : int option;  (* caller's minor heap before create enlarged it *)
}

let default_num_domains () =
  let requested =
    match Sys.getenv_opt "TMEDB_JOBS" with
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some k when k >= 1 -> k
        | Some _ | None -> Domain.recommended_domain_count ())
    | None -> Domain.recommended_domain_count ()
  in
  Stdlib.max 1 (Stdlib.min 128 requested)

(* Every OCaml 5 minor collection is a stop-the-world handshake across
   all running domains, so with the stock 256k-word minor heap two
   allocation-heavy domains stall each other thousands of times per
   second — on a time-shared core that alone makes `--jobs 2` ~2x
   *slower* than sequential.  The pool therefore enlarges the minor
   heap of every participating domain (workers at spawn, the caller at
   create): fewer, larger collections amortize the handshake, and GC
   sizing cannot affect results.  The target is a measured compromise:
   a minor heap that allocation cycles through is resident in full on
   every domain, so each extra word costs peak RSS.  On a shared
   2-vCPU host, 2M words added ~16 MB to a 2-domain `pareto` run, and
   the stock heap slowed the caller-side set-up of an in-process
   figure sweep; 1M words avoided both (EXPERIMENTS.md, "Search
   core"). *)
let minor_heap_target_words = 1024 * 1024

(* Returns the previous size when it actually grew the heap (the
   caller restores it at shutdown); never shrinks a larger setting. *)
let enlarge_minor_heap target =
  let g = Gc.get () in
  if target > g.Gc.minor_heap_size then begin
    Gc.set { g with Gc.minor_heap_size = target };
    Some g.Gc.minor_heap_size
  end
  else None

let num_domains t = t.size

(* Take work: own deque first, then a deterministic cyclic scan of the
   other deques (no RNG — victim order must not consume any random
   stream).  Steals are counted only when the victim differs from
   [home]. *)
let try_take t ~home =
  match Deque.pop_back t.deques.(home) with
  | Some job -> Some job
  | None ->
      let n = Array.length t.deques in
      let rec scan k =
        if k >= n then None
        else begin
          match Deque.steal_front t.deques.((home + k) mod n) with
          | Some job ->
              Tmedb_obs.Counter.incr c_steals;
              (* A visible ["pool.steal"] frame around stolen work so
                 the per-worker timeline can render steal lanes; the
                 profiler treats pool frames as transparent. *)
              Some (fun () -> Tmedb_obs.Span.with_ "pool.steal" job)
          | None -> scan (k + 1)
        end
      in
      scan 1

(* Workers run until shutdown: take (or steal) until every deque scans
   empty, then sleep until the submission epoch moves.  The epoch is
   read before the scan and re-checked under the mutex, so a submission
   racing with the scan can never be missed. *)
let rec worker_loop t ~home =
  let seen = Atomic.get t.epoch in
  match try_take t ~home with
  | Some job ->
      job ();
      worker_loop t ~home
  | None ->
      if not (Atomic.get t.stopping) then begin
        Mutex.lock t.sleep_mutex;
        while Atomic.get t.epoch = seen && not (Atomic.get t.stopping) do
          Condition.wait t.work_available t.sleep_mutex
        done;
        Mutex.unlock t.sleep_mutex;
        worker_loop t ~home
      end

let create ?num_domains () =
  let size =
    match num_domains with
    | None -> default_num_domains ()
    | Some k when k >= 1 -> Stdlib.min 128 k
    | Some k -> invalid_arg (Printf.sprintf "Pool.create: num_domains %d < 1" k)
  in
  let t =
    {
      size;
      deques = Array.init size (fun _ -> Deque.create ());
      rr = Atomic.make 0;
      sleep_mutex = Mutex.create ();
      work_available = Condition.create ();
      epoch = Atomic.make 0;
      stopping = Atomic.make false;
      domains = [];
      est_ns = Atomic.make 0;
      caller_minor = (if size > 1 then enlarge_minor_heap minor_heap_target_words else None);
    }
  in
  (* Minor heap sizes are per-domain and not inherited across spawn:
     each worker enlarges its own before entering the loop. *)
  t.domains <-
    List.init (size - 1) (fun i ->
        Domain.spawn (fun () ->
            ignore (enlarge_minor_heap minor_heap_target_words);
            worker_loop t ~home:i));
  t

let shutdown t =
  Mutex.lock t.sleep_mutex;
  Atomic.set t.stopping true;
  Condition.broadcast t.work_available;
  Mutex.unlock t.sleep_mutex;
  let ds = t.domains in
  t.domains <- [];
  List.iter Domain.join ds;
  match t.caller_minor with
  | Some words -> Gc.set { (Gc.get ()) with Gc.minor_heap_size = words }
  | None -> ()

let with_pool ?num_domains f =
  let t = create ?num_domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Run [count] task indices through [run_one].  Jobs are spread
   round-robin over the worker deques; the caller then helps drain
   (its own deque first, stealing otherwise) until its batch completes.
   While helping it may execute tasks of *other* batches (nested
   parallel_map), which is what makes nesting deadlock-free. *)
let run_batch t ~count run_one =
  Tmedb_obs.Counter.incr c_batches;
  let tb = Tmedb_obs.Timer.start t_batch in
  (* Capture the submitter's logical span path once per batch (only
     when something is recording — the disabled path stays a flag
     check) and wrap each job in a ["pool.task"] span carrying it. *)
  let recording = Tmedb_obs.enabled () || Tmedb_obs.Flight.armed () in
  let run_task =
    if not recording then run_one
    else begin
      let ctx = submission_ctx () in
      let args = match ctx with [] -> [] | _ -> [ ("ctx", String.concat ";" ctx) ] in
      fun i ->
        Tmedb_obs.Span.with_ "pool.task" ~args (fun () ->
            let saved = Domain.DLS.get task_ctx_key in
            Domain.DLS.set task_ctx_key ctx;
            Fun.protect
              ~finally:(fun () -> Domain.DLS.set task_ctx_key saved)
              (fun () -> run_one i))
    end
  in
  let remaining = Atomic.make count in
  let error = Atomic.make None in
  let done_mutex = Mutex.create () in
  let batch_done = Condition.create () in
  let job i () =
    (match Atomic.get error with
    | Some _ -> () (* batch already failed: skip the work, still count down *)
    | None -> (
        try run_task i
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set error None (Some (e, bt)))));
    if Atomic.fetch_and_add remaining (-1) = 1 then begin
      Mutex.lock done_mutex;
      Condition.broadcast batch_done;
      Mutex.unlock done_mutex
    end
  in
  if Atomic.get t.stopping then invalid_arg "Pool: submitted to a shut-down pool";
  let nd = Array.length t.deques in
  for i = 0 to count - 1 do
    let slot = Atomic.fetch_and_add t.rr 1 mod nd in
    Deque.push_back t.deques.(slot) (job i)
  done;
  Mutex.lock t.sleep_mutex;
  Atomic.incr t.epoch;
  Condition.broadcast t.work_available;
  Mutex.unlock t.sleep_mutex;
  let home = t.size - 1 in
  let rec drain () =
    if Atomic.get remaining > 0 then begin
      match try_take t ~home with
      | Some job ->
          job ();
          drain ()
      | None ->
          (* Every deque scanned empty, so every task of this batch is
             done or in flight on another domain: sleep until the last
             one signals, instead of burning a timeslice spinning. *)
          Mutex.lock done_mutex;
          while Atomic.get remaining > 0 do
            Condition.wait batch_done done_mutex
          done;
          Mutex.unlock done_mutex
    end
  in
  drain ();
  Tmedb_obs.Timer.stop t_batch tb;
  match Atomic.get error with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let parallel_init t n f =
  if n < 0 then invalid_arg "Pool.parallel_init: negative length";
  Tmedb_obs.Counter.add c_tasks n;
  if n = 0 then [||]
  else if t.size <= 1 || n = 1 then Array.init n f
  else begin
    let results = Array.make n None in
    run_batch t ~count:n (fun i -> results.(i) <- Some (f i));
    Array.map (function Some r -> r | None -> assert false) results
  end

let parallel_map t f a = parallel_init t (Array.length a) (fun i -> f a.(i))

(* ------------------------------------------------------------------ *)
(* Adaptive chunking.  Chunked batches measure their own per-element
   cost (a scheduling heuristic only — the measurement steers chunk
   sizes of *later* batches, never any result) and fold it into a
   per-pool EWMA.  The next chunked batch sizes its chunks so each job
   carries ~[target_ns] of work, capped for load balance; when the
   whole batch is cheaper than [serial_cutoff_ns] the caller runs it
   inline, because waking a second domain costs more than it buys. *)

let target_ns = 5_000_000 (* ~5 ms of work per scheduled job *)
let serial_cutoff_ns = 500_000 (* below ~0.5 ms total, stay sequential *)

let now_ns () =
  int_of_float ((Unix.gettimeofday () [@lint.allow "wall-clock"]) *. 1e9)

let note_cost t ~elements ~elapsed_ns =
  if elements > 0 && elapsed_ns >= 0 then begin
    let sample = elapsed_ns / elements in
    let old = Atomic.get t.est_ns in
    (* Racy read-modify-write on purpose: the EWMA is a heuristic and
       any interleaving yields a plausible estimate. *)
    Atomic.set t.est_ns (if old <= 0 then sample else ((3 * old) + sample) / 4)
  end

let adaptive_chunk t n =
  let est = Atomic.get t.est_ns in
  if est <= 0 then Stdlib.max 1 (n / (4 * t.size))
  else if n * est < serial_cutoff_ns then n
  else begin
    let ideal = Stdlib.max 1 (target_ns / est) in
    let balance_cap = Stdlib.max 1 ((n + (2 * t.size) - 1) / (2 * t.size)) in
    Stdlib.min ideal balance_cap
  end

let parallel_map_chunked ?chunk t f a =
  let n = Array.length a in
  Tmedb_obs.Counter.add c_tasks n;
  let chunk =
    match chunk with
    | Some c when c >= 1 -> c
    | Some c -> invalid_arg (Printf.sprintf "Pool.parallel_map_chunked: chunk %d < 1" c)
    | None -> adaptive_chunk t n
  in
  if n = 0 then [||]
  else if t.size <= 1 || n <= chunk then begin
    let t0 = now_ns () in
    let r = Array.map f a in
    note_cost t ~elements:n ~elapsed_ns:(now_ns () - t0);
    r
  end
  else begin
    Tmedb_obs.Histogram.observe h_chunk chunk;
    let nchunks = (n + chunk - 1) / chunk in
    let results = Array.make n None in
    run_batch t ~count:nchunks (fun c ->
        let lo = c * chunk in
        let hi = Stdlib.min n (lo + chunk) - 1 in
        let t0 = now_ns () in
        for i = lo to hi do
          results.(i) <- Some (f a.(i))
        done;
        note_cost t ~elements:(hi - lo + 1) ~elapsed_ns:(now_ns () - t0));
    Array.map (function Some r -> r | None -> assert false) results
  end

let run_sequential f a =
  Tmedb_obs.Counter.add c_tasks (Array.length a);
  Array.map f a

let map pool f a =
  match pool with Some t -> parallel_map t f a | None -> run_sequential f a

let map_chunked ?chunk pool f a =
  match pool with Some t -> parallel_map_chunked ?chunk t f a | None -> run_sequential f a
