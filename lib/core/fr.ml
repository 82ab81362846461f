open Tmedb_prelude
open Tmedb_channel
open Tmedb_tveg
open Tmedb_nlp

type backbone = [ `Eedcb | `Greedy | `Random ]

(* Telemetry: stage-2 allocations (the NLP plus repair/polish) are the
   FR pipeline's dominant cost besides the backbone itself. *)
let c_allocations = Tmedb_obs.Counter.make "fr.allocations"
let c_row_evals = Tmedb_obs.Counter.make "fr.row_evals"
let t_allocate = Tmedb_obs.Timer.make "fr.allocate"
let t_fr_run = Tmedb_obs.Timer.make "fr.run"

type allocation = Planner.Outcome.allocation = {
  costs : float array;
  nlp_feasible : bool;
  repaired : bool;
  unsatisfiable : int list;
  outer_iterations : int;
}

(* log φ(β, w) for the fading ED-functions.  The row kernel in
   [allocate] writes the Rayleigh case inline, keeping exp(−β/w) for
   its derivative; Nakagami and log-normal derivatives are central
   differences of this function. *)
let log_failure channel ~beta w =
  if w <= 0. then 0.
  else
    match channel with
    | `Rayleigh ->
        let y = -.exp (-.beta /. w) in
        if y <= -1. then -1e300 else Float.log1p y
    | `Nakagami m -> Float.log (Float.max 1e-300 (Specfun.gammp ~a:m ~x:(m *. beta /. w)))
    | `Lognormal sigma ->
        Float.log (Float.max 1e-300 (Specfun.normal_cdf (log (beta /. w) /. sigma)))
    | `Static -> assert false

let dlog_failure_numeric channel ~beta w =
  if w <= 0. then 0.
  else begin
    let h = 1e-6 *. Float.max w 1e-15 in
    (log_failure channel ~beta (w +. h) -. log_failure channel ~beta (w -. h)) /. (2. *. h)
  end

(* The allocation's rows, one per protected node: Σ_k log φ_k(w_k) ≤
   log ε over the row's member transmissions (paper Eq. 15 for plain
   nodes, Eq. 16 for relays), in one CSR.  A transmission covers a
   node at most once, so a row's members are distinct. *)
type rows = {
  about : int array;  (** Node each row protects. *)
  start : int array;  (** Row r's members sit at [start.(r)] .. [start.(r+1) − 1]. *)
  member : int array;  (** Member transmission indices, *)
  beta : float array;  (** and their β, position-aligned with [member]. *)
}

(* Firing order of backbone transmissions under Eq. 6 with the
   backbone's own costs: the global sequence in which relays actually
   become able to transmit.  Same-instant groups release in fixpoint
   rounds (τ = 0 chains), so the order is acyclic by construction;
   [None] marks transmissions whose relay can never fire.  Constraint
   (16) below is restricted to earlier-firing transmissions — the
   paper's "t_k ≤ t_j" read as a causal order, which is what keeps the
   NLP from relying on same-instant mutual coverage cycles. *)
let firing_ranks (problem : Problem.t) arr =
  let phy = problem.Problem.phy in
  (* Backbone costs sit exactly on φ = ε; a hair of slack keeps float
     round-off from blocking a release (this only orders transmissions,
     the allocation itself carries its own safety margin). *)
  let eps = phy.Phy.eps *. (1. +. 1e-6) in
  let p = Array.make (Tveg.n problem.Problem.graph) 1. in
  p.(problem.Problem.source) <- 0.;
  let rank = Array.make (Array.length arr) None in
  let next_rank = ref 0 in
  let (_ : int list) =
    Feasibility.replay problem arr
      ~ready:(fun relay _ -> p.(relay) <= eps)
      ~hear:(fun tx dist ->
        Ed_function.failure_prob
          (Ed_function.of_distance phy problem.Problem.channel ~dist)
          ~w:tx.Schedule.cost)
      ~receive:(fun node _ factor -> p.(node) <- p.(node) *. factor)
      ~fire:(fun k ->
        rank.(k) <- Some !next_rank;
        incr next_rank)
  in
  rank

(* The rows with members, node rows first, and the nodes of the rows
   without any (no cost assignment can serve them), ascending. *)
let build_rows problem txs =
  let g = problem.Problem.graph in
  let phy = problem.Problem.phy in
  let tau = Tveg.tau g in
  let arr = Array.of_list txs in
  let ranks = firing_ranks problem arr in
  let coverage k =
    let tx = arr.(k) in
    List.map
      (fun (j, dist) -> (j, Phy.beta phy ~dist))
      (Tveg.neighbors_at g tx.Schedule.relay tx.Schedule.time)
  in
  let coverages = Array.init (Array.length arr) coverage in
  let node_members = Array.make (Tveg.n g) [] in
  Array.iteri
    (fun k cov ->
      (* Unranked transmissions never fire: they inform nobody. *)
      if ranks.(k) <> None then
        List.iter (fun (j, beta) -> node_members.(j) <- (k, beta) :: node_members.(j)) cov)
    coverages;
  (* Eq. 15: every non-source node must end up informed. *)
  let node_rows =
    List.filter_map
      (fun j -> if j = problem.Problem.source then None else Some (j, node_members.(j)))
      (List.init (Tveg.n g) (fun j -> j))
  in
  (* Eq. 16: each relay informed before it transmits — members are the
     τ-respecting, strictly earlier-firing transmissions covering it. *)
  let relay_rows =
    Array.to_list arr
    |> List.mapi (fun k' tx ->
           let r = tx.Schedule.relay in
           if r = problem.Problem.source then None
           else begin
             let members =
               List.filter
                 (fun (k, _) ->
                   k <> k'
                   && arr.(k).Schedule.time +. tau <= tx.Schedule.time
                   &&
                   match (ranks.(k), ranks.(k')) with
                   | Some rk, Some rk' -> rk < rk'
                   | Some _, None -> true
                   | None, (Some _ | None) -> false)
                 node_members.(r)
             in
             Some (r, members)
           end)
    |> List.filter_map Fun.id
  in
  let all = node_rows @ relay_rows in
  let unsatisfiable =
    List.filter_map (fun (j, members) -> if members = [] then Some j else None) all
    |> List.sort_uniq Int.compare
  in
  let live = Array.of_list (List.filter (fun (_, members) -> members <> []) all) in
  let start = Array.make (Array.length live + 1) 0 in
  Array.iteri (fun r (_, members) -> start.(r + 1) <- start.(r) + List.length members) live;
  let member = Array.make start.(Array.length live) 0 in
  let beta = Array.make start.(Array.length live) 0. in
  Array.iteri
    (fun r (_, members) ->
      List.iteri
        (fun i (k, b) ->
          member.(start.(r) + i) <- k;
          beta.(start.(r) + i) <- b)
        members)
    live;
  ({ about = Array.map fst live; start; member; beta }, unsatisfiable, coverages)

(* Row [r]'s value at costs [w]: its terms summed in member order,
   minus log ε. *)
let row_value channel ~log_eps rows r w =
  let acc = ref 0. in
  for p = rows.start.(r) to rows.start.(r + 1) - 1 do
    acc := !acc +. log_failure channel ~beta:rows.beta.(p) w.(rows.member.(p))
  done;
  !acc -. log_eps

let same_bits a b =
  let rec from i =
    i = Array.length a || (Int64.bits_of_float a.(i) = Int64.bits_of_float b.(i) && from (i + 1))
  in
  from 0

(* The NLP of Eqs. 14–17 over x_k = w_k / scale_k, read from [rows]
   with no closure per term.  Within one allocation the kernel keeps
   its last complete evaluation: every row's value, each Rayleigh
   member's exp(−β/w) and a copy of that x.  The gradient and
   [max_violation] read them at a bitwise-equal x (Projgrad asks for
   the gradient at the try it just accepted) and evaluate the rows
   afresh otherwise.  [row_evals] counts the rows evaluated. *)
let penalty_problem channel ~log_eps rows ~scale ~lower ~upper ~row_evals =
  let nvars = Array.length scale in
  let nrows = Array.length rows.about in
  let rayleigh =
    match channel with `Rayleigh -> true | `Nakagami _ | `Lognormal _ | `Static -> false
  in
  let scale_sum = Array.fold_left ( +. ) 0. scale in
  (* Σ w_k / Σ scale_k, Kahan-summed in index order. *)
  let objective x =
    let sum = ref 0. and comp = ref 0. in
    for k = 0 to nvars - 1 do
      let y = (scale.(k) *. x.(k)) -. !comp in
      let t = !sum +. y in
      comp := t -. !sum -. y;
      sum := t
    done;
    !sum /. scale_sum
  in
  let objective_grad = Array.map (fun s -> s /. scale_sum) scale in
  let value = Array.make nrows 0. in
  let decay = Array.make (Array.length rows.member) 0. in
  let at = Array.make nvars 0. in
  (* [value] and [decay] hold every row at [at]. *)
  let complete = ref false in
  (* The row that stopped the last early exit, or −1. *)
  let reject = ref (-1) in
  let eval_row r x =
    incr row_evals;
    let acc = ref 0. in
    for p = rows.start.(r) to rows.start.(r + 1) - 1 do
      let k = rows.member.(p) in
      let w = scale.(k) *. x.(k) in
      let term =
        if not rayleigh then log_failure channel ~beta:rows.beta.(p) w
        else if w <= 0. then 0.
        else begin
          let e = exp (-.rows.beta.(p) /. w) in
          decay.(p) <- e;
          let y = -.e in
          if y <= -1. then -1e300 else Float.log1p y
        end
      in
      acc := !acc +. term
    done;
    value.(r) <- !acc -. log_eps
  in
  let record x =
    Array.blit x 0 at 0 nvars;
    complete := true
  in
  let refresh x =
    if not (!complete && same_bits x at) then begin
      for r = 0 to nrows - 1 do
        eval_row r x
      done;
      record x
    end
  in
  (* objective + mu·Σ max(0, g_r)², summed in row order.  Every term
     is >= 0 and Nlp.solve passes mu > 0, and round-to-nearest
     addition and multiplication are monotone, so each partial value
     bounds the full value from below, and so does objective + mu·v²
     for any one row: the running sum after that row is >= v².  A try
     first evaluates the row that stopped the previous early exit; if
     that alone is past [bound], so is the full value, and any value
     past [bound] meets Projgrad's bound contract (a rejected try's
     value is never used).  Otherwise the rows run in order, reusing
     that row's value, and stop once a partial value is past [bound].
     A value that never passes it is the full in-order sum,
     bit-identical to an unbounded evaluation. *)
  let penalized ~mu ~bound x =
    let objective = objective x in
    complete := false;
    let quick = !reject in
    let result = ref 0. and stopped = ref false in
    if quick >= 0 then begin
      eval_row quick x;
      let v = Float.max 0. value.(quick) in
      let lower_bound = objective +. (mu *. (v *. v)) in
      if lower_bound > bound then begin
        result := lower_bound;
        stopped := true
      end
    end;
    let violation_sq = ref 0. and r = ref 0 in
    while (not !stopped) && !r < nrows do
      if !r <> quick then eval_row !r x;
      let v = Float.max 0. value.(!r) in
      violation_sq := !violation_sq +. (v *. v);
      let partial = objective +. (mu *. !violation_sq) in
      if partial > bound then begin
        result := partial;
        stopped := true;
        reject := !r
      end
      else incr r
    done;
    if !stopped then !result
    else begin
      record x;
      objective +. (mu *. !violation_sq)
    end
  in
  (* 2·mu·g_r · d log φ/dw · scale_k, summed into [grad] over the
     violated rows in row order.  This equals summing per-row gradient
     vectors that start at 0, bit for bit: 0 + y differs from y only
     for y = −0, and adding ±0 to an entry of [grad] gives the same
     float unless the entry is −0, which none is (each starts at
     scale_k / Σ scale, and a round-to-nearest sum is −0 only when both
     addends are). *)
  let penalized_grad ~mu x =
    refresh x;
    let grad = Array.copy objective_grad in
    for r = 0 to nrows - 1 do
      let v = value.(r) in
      if v > 0. then begin
        let weight = 2. *. mu *. v in
        for p = rows.start.(r) to rows.start.(r + 1) - 1 do
          let k = rows.member.(p) in
          let w = scale.(k) *. x.(k) in
          let d =
            if not rayleigh then dlog_failure_numeric channel ~beta:rows.beta.(p) w
            else if w <= 0. then 0.
            else begin
              let e = decay.(p) in
              let phi = 1. -. e in
              if phi <= 0. then 0. else -.(e *. rows.beta.(p) /. (w *. w)) /. phi
            end
          in
          grad.(k) <- grad.(k) +. (weight *. (d *. scale.(k)))
        done
      end
    done;
    grad
  in
  let max_violation x =
    refresh x;
    Array.fold_left (fun acc v -> Float.max acc (Float.max 0. v)) 0. value
  in
  { Nlp.objective; penalized; penalized_grad; max_violation; lower; upper }

let allocate ?warm problem backbone_schedule =
  (match problem.Problem.channel with
  | `Static -> invalid_arg "Fr.allocate: design channel must be a fading model"
  | `Rayleigh | `Nakagami _ | `Lognormal _ -> ());
  Tmedb_obs.Counter.incr c_allocations;
  let t0 = Tmedb_obs.Timer.start t_allocate in
  Fun.protect ~finally:(fun () -> Tmedb_obs.Timer.stop t_allocate t0) @@ fun () ->
  Tmedb_obs.Span.with_ "fr.allocate"
    ~args:
      [ ("transmissions", string_of_int (List.length (Schedule.transmissions backbone_schedule))) ]
  @@ fun () ->
  let channel = problem.Problem.channel in
  let phy = problem.Problem.phy in
  (* Slightly tighter than ε so that float round-off in the feasibility
     checker's running product can never flip a boundary solution. *)
  let log_eps = log phy.Phy.eps -. 1e-6 in
  let txs = Schedule.transmissions backbone_schedule in
  let nvars = List.length txs in
  if nvars = 0 then
    ( backbone_schedule,
      {
        costs = [||];
        nlp_feasible = true;
        repaired = false;
        unsatisfiable = [];
        outer_iterations = 0;
      } )
  else begin
    let rows, unsatisfiable_empty, coverages = build_rows problem txs in
    let nrows = Array.length rows.about in
    (* Variable scaling: x_k = w_k / scale_k with scale the single-hop
       ε-cost of the transmission's farthest neighbour. *)
    let scale =
      Array.map
        (fun cov ->
          let beta_max = List.fold_left (fun acc (_, b) -> Float.max acc b) 0. cov in
          if beta_max > 0. then beta_max /. log (1. /. (1. -. phy.Phy.eps))
          else Float.max phy.Phy.w_min (1e-6 *. phy.Phy.w_max))
        coverages
    in
    let lower = Array.map (fun s -> phy.Phy.w_min /. s) scale in
    let upper = Array.map (fun s -> phy.Phy.w_max /. s) scale in
    let x0 = Array.map (fun s -> Futil.clamp ~lo:(phy.Phy.w_min /. s) ~hi:(phy.Phy.w_max /. s) 1.) scale in
    let row_evals = ref 0 in
    let nlp_problem = penalty_problem channel ~log_eps rows ~scale ~lower ~upper ~row_evals in
    (* Multi-start: the penalty landscape is non-convex; seed once at
       the backbone point and once below it (where the solver must
       climb back to feasibility, often onto a cheaper face). *)
    let solve_from factor =
      let x0 = Array.map (fun x -> Futil.clamp ~lo:0. ~hi:Float.infinity (factor *. x)) x0 in
      let x0 = Array.mapi (fun k x -> Futil.clamp ~lo:lower.(k) ~hi:upper.(k) x) x0 in
      Nlp.solve nlp_problem ~x0
    in
    (* Warm keys: (relay, occurrence among that relay's transmissions
       in schedule order) for each variable — stable across adjacent
       sweep points whose backbones mostly agree. *)
    let warm_keys =
      lazy
        (let seen = Hashtbl.create 16 in
         List.map
           (fun (tx : Schedule.transmission) ->
             let r = tx.Schedule.relay in
             let occ = match Hashtbl.find_opt seen r with Some c -> c | None -> 0 in
             Hashtbl.replace seen r (occ + 1);
             (r, occ))
           txs)
    in
    let candidates_solved =
      match warm with
      | None -> List.map solve_from [ 1.; 0.5 ]
      | Some store ->
          (* Single start from the previous point's allocation (missing
             keys fall back to the cold default), with BB-accelerated
             inner solves: near a good starting iterate the spectral
             step needs a fraction of the monotone search's
             iterations, and the second multi-start seed buys nothing
             the repair/polish stages do not already guarantee. *)
          let x0 =
            Array.of_list (Lazy.force warm_keys)
            |> Array.mapi (fun k (relay, occurrence) ->
                   match Planner.Warm.find store ~relay ~occurrence with
                   | Some w0 -> Futil.clamp ~lo:lower.(k) ~hi:upper.(k) (w0 /. scale.(k))
                   | None -> x0.(k))
          in
          let options =
            {
              Nlp.default_options with
              Nlp.inner =
                { Projgrad.default_options with Projgrad.max_iter = 300; bb = true };
            }
          in
          [ Nlp.solve ~options nlp_problem ~x0 ]
    in
    Tmedb_obs.Counter.add c_row_evals !row_evals;
    let row_value = row_value channel ~log_eps rows in
    (* Monotone repair: grow the members of any violated row by a
       common factor found by bisection; costs only increase, so every
       already-satisfied row stays satisfied.  Two sweeps: relay rows
       can tighten node rows' members and vice versa, but growth is
       monotone, so a fixed small number of passes settles. *)
    let tol = 1e-9 in
    let repair_all w =
      let unsatisfiable = ref unsatisfiable_empty in
      let repaired = ref false in
      let repair r =
        if row_value r w > tol then begin
          repaired := true;
          let first = rows.start.(r) and last = rows.start.(r + 1) - 1 in
          let apply lambda =
            for p = first to last do
              let k = rows.member.(p) in
              w.(k) <- Float.min phy.Phy.w_max (lambda *. w.(k))
            done
          in
          let value_at lambda =
            let acc = ref 0. in
            for p = first to last do
              acc :=
                !acc
                +. log_failure channel ~beta:rows.beta.(p)
                     (Float.min phy.Phy.w_max (lambda *. w.(rows.member.(p))))
            done;
            !acc -. log_eps
          in
          let lambda_max = ref 1. in
          for p = first to last do
            lambda_max :=
              Float.max !lambda_max (phy.Phy.w_max /. Float.max w.(rows.member.(p)) 1e-300)
          done;
          match
            Bisect.least_satisfying (fun lambda -> value_at lambda <= 0.) ~lo:1. ~hi:!lambda_max
          with
          | Some lambda -> apply lambda
          | None ->
              apply !lambda_max;
              unsatisfiable := List.sort_uniq Int.compare (rows.about.(r) :: !unsatisfiable)
        end
      in
      for _ = 1 to 2 do
        for r = 0 to nrows - 1 do
          repair r
        done
      done;
      (!unsatisfiable, !repaired)
    in
    (* Repair every multi-start solution plus the uniform-w0 backbone
       (the penalty method is not guaranteed to land below its
       starting point) and keep the cheapest. *)
    let repaired_candidates =
      List.map
        (fun (r : Nlp.result) ->
          let w = Array.mapi (fun k xk -> scale.(k) *. xk) r.Nlp.x in
          let unsat, rep = repair_all w in
          (w, unsat, rep, r))
        candidates_solved
    in
    let w_backbone = Array.of_list (Schedule.costs backbone_schedule) in
    let backbone_unsat, _ = repair_all w_backbone in
    let w, unsatisfiable, repaired, solved =
      List.fold_left
        (fun ((bw, _, _, _) as best) ((cw, _, _, _) as cand) ->
          if Futil.kahan_sum cw < Futil.kahan_sum bw then cand else best)
        (w_backbone, backbone_unsat, true, List.hd candidates_solved)
        repaired_candidates
    in
    (* Coordinate-descent polish: lower each cost to the minimum that
       still satisfies every row it appears in, given the others.
       Each step preserves feasibility and strictly decreases Σw, so
       this deterministically reclaims coverage redundancy the penalty
       solver missed. *)
    let ed_of beta =
      match channel with
      | `Rayleigh -> Ed_function.rayleigh ~beta
      | `Nakagami m -> Ed_function.nakagami ~beta ~m
      | `Lognormal sigma -> Ed_function.lognormal ~beta ~sigma
      | `Static -> assert false
    in
    (* Per transmission: each row it appears in, with its member
       position there, last row first. *)
    let rows_of = Array.make nvars [] in
    for r = 0 to nrows - 1 do
      for p = rows.start.(r) to rows.start.(r + 1) - 1 do
        let k = rows.member.(p) in
        rows_of.(k) <- (r, p) :: rows_of.(k)
      done
    done;
    let polish_tol = 1e-4 in
    let sweep () =
      let changed = ref false in
      for k = 0 to nvars - 1 do
        let required =
          List.fold_left
            (fun acc (r, p) ->
              if row_value r w > tol then
                (* Already violated (w_max saturation): do not move. *)
                Float.max acc w.(k)
              else begin
                let others = ref 0. in
                for p' = rows.start.(r) to rows.start.(r + 1) - 1 do
                  let k' = rows.member.(p') in
                  if k' <> k then others := !others +. log_failure channel ~beta:rows.beta.(p') w.(k')
                done;
                let rhs = log_eps -. !others in
                if rhs >= 0. then acc
                else begin
                  match Ed_function.cost_for_failure (ed_of rows.beta.(p)) ~target:(exp rhs) with
                  | Some need -> Float.max acc need
                  | None -> Float.max acc w.(k)
                end
              end)
            phy.Phy.w_min rows_of.(k)
        in
        if required < w.(k) *. (1. -. polish_tol) then begin
          w.(k) <- required;
          changed := true
        end
      done;
      !changed
    in
    let sweeps = ref 0 in
    while sweep () && !sweeps < 25 do
      incr sweeps
    done;
    (* Remember the final (repaired and polished) costs for the next
       point of the chain; stale keys from a differently-shaped
       backbone are dropped wholesale. *)
    (match warm with
    | None -> ()
    | Some store ->
        Planner.Warm.reset store;
        List.iteri
          (fun k (relay, occurrence) -> Planner.Warm.set store ~relay ~occurrence w.(k))
          (Lazy.force warm_keys));
    (* Transmissions allocated zero cost are no-ops (φ(0) = 1): drop
       them rather than scheduling silent sends. *)
    if Tmedb_report.Provenance.enabled () then
      List.iteri
        (fun k (tx : Schedule.transmission) ->
          Tmedb_report.Provenance.emit
            (Tmedb_report.Provenance.Allocation
               {
                 relay = tx.Schedule.relay;
                 time = tx.Schedule.time;
                 backbone_cost = tx.Schedule.cost;
                 allocated_cost = w.(k);
               }))
        txs;
    let schedule =
      Schedule.of_transmissions
        (List.filteri
           (fun k _ -> w.(k) > 0.)
           (Schedule.transmissions (Schedule.map_costs backbone_schedule (fun k _ -> w.(k)))))
    in
    ( schedule,
      {
        costs = w;
        nlp_feasible = solved.Nlp.feasible;
        repaired;
        unsatisfiable;
        outer_iterations = solved.Nlp.outer_iterations;
      } )
  end

let plan_with backbone (ctx : Planner.Ctx.t) problem =
  (match problem.Problem.channel with
  | `Static -> invalid_arg "Fr.plan: design channel must be a fading model"
  | `Rayleigh | `Nakagami _ | `Lognormal _ -> ());
  let tr = Tmedb_obs.Timer.start t_fr_run in
  Fun.protect ~finally:(fun () -> Tmedb_obs.Timer.stop t_fr_run tr) @@ fun () ->
  Tmedb_obs.Span.with_ "fr.run" @@ fun () ->
  let stage1 =
    match backbone with
    | `Eedcb -> Eedcb.plan ctx problem
    | `Greedy -> Greedy.plan ctx problem
    | `Random -> Random_relay.plan ctx problem
  in
  let backbone_schedule = stage1.Planner.Outcome.schedule in
  let schedule, allocation = allocate ?warm:ctx.Planner.Ctx.warm problem backbone_schedule in
  let report = Feasibility.check problem schedule in
  Planner.Outcome.make ~schedule ~report ~unreached:stage1.Planner.Outcome.unreached
    ~artifacts:
      [ Planner.Outcome.Fr_allocation { backbone = backbone_schedule; allocation } ]
    ()

let fr_eedcb =
  {
    Planner.info =
      {
        Planner.name = "FR-EEDCB";
        channel = `Fading;
        section = "VI-B";
        summary = "EEDCB backbone re-costed by the NLP energy allocation";
      };
    plan = plan_with `Eedcb;
  }

let fr_greed =
  {
    Planner.info =
      {
        Planner.name = "FR-GREED";
        channel = `Fading;
        section = "VI-B";
        summary = "GREED backbone re-costed by the NLP energy allocation";
      };
    plan = plan_with `Greedy;
  }

let fr_rand =
  {
    Planner.info =
      {
        Planner.name = "FR-RAND";
        channel = `Fading;
        section = "VI-B";
        summary = "RAND backbone re-costed by the NLP energy allocation";
      };
    plan = plan_with `Random;
  }
