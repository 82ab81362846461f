open Tmedb_prelude
open Tmedb_channel
open Tmedb_tveg
open Tmedb_nlp

type backbone = [ `Eedcb | `Greedy | `Random ]

(* Telemetry: stage-2 allocations (the NLP plus repair/polish) are the
   FR pipeline's dominant cost besides the backbone itself. *)
let c_allocations = Tmedb_obs.Counter.make "fr.allocations"
let t_allocate = Tmedb_obs.Timer.make "fr.allocate"
let t_fr_run = Tmedb_obs.Timer.make "fr.run"

type allocation = Planner.Outcome.allocation = {
  costs : float array;
  nlp_feasible : bool;
  repaired : bool;
  unsatisfiable : int list;
  outer_iterations : int;
}

(* log φ(w) and its derivative for the fading ED-functions, picked
   once per channel.  The Rayleigh case is analytic; Nakagami and
   log-normal derivatives fall back to central differences. *)
let log_failure channel =
  match channel with
  | `Rayleigh -> fun ~beta w -> if w <= 0. then 0. else Futil.log1p_safe (-.exp (-.beta /. w))
  | `Nakagami m ->
      fun ~beta w ->
        if w <= 0. then 0.
        else Float.log (Float.max 1e-300 (Specfun.gammp ~a:m ~x:(m *. beta /. w)))
  | `Lognormal sigma ->
      fun ~beta w ->
        if w <= 0. then 0.
        else Float.log (Float.max 1e-300 (Specfun.normal_cdf (log (beta /. w) /. sigma)))
  | `Static -> assert false

let dlog_failure channel =
  match channel with
  | `Rayleigh ->
      fun ~beta w ->
        if w <= 0. then 0.
        else begin
          let e = exp (-.beta /. w) in
          let phi = 1. -. e in
          if phi <= 0. then 0. else -.(e *. beta /. (w *. w)) /. phi
        end
  | `Nakagami _ | `Lognormal _ ->
      let term = log_failure channel in
      fun ~beta w ->
        if w <= 0. then 0.
        else begin
          let h = 1e-6 *. Float.max w 1e-15 in
          (term ~beta (w +. h) -. term ~beta (w -. h)) /. (2. *. h)
        end
  | `Static -> assert false

(* One allocation constraint: Σ_k log φ_{k}(w_k) ≤ log ε over the
   member transmissions (paper Eq. 15 for plain nodes, Eq. 16 for
   relays). *)
type coverage_constraint = {
  about : int;  (** Node the constraint protects. *)
  idx : int array;  (** Member transmission indices, *)
  beta : float array;  (** and their β, index-aligned with [idx]. *)
}

let of_members about members =
  { about; idx = Array.of_list (List.map fst members); beta = Array.of_list (List.map snd members) }

(* The constraint's value at costs [w], summed in member order. *)
let constraint_value ~term ~log_eps c w =
  let acc = ref 0. in
  for i = 0 to Array.length c.idx - 1 do
    acc := !acc +. term ~beta:c.beta.(i) w.(c.idx.(i))
  done;
  !acc -. log_eps

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

let build_constraints problem txs =
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
  let node_constraints =
    List.filter_map
      (fun j ->
        if j = problem.Problem.source then None else Some (of_members j node_members.(j)))
      (List.init (Tveg.n g) (fun j -> j))
  in
  (* Eq. 16: each relay informed before it transmits — members are the
     τ-respecting, strictly earlier-firing transmissions covering it. *)
  let relay_constraints =
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
             Some (of_members r members)
           end)
    |> List.filter_map Fun.id
  in
  (node_constraints, relay_constraints, coverages)

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
  let term = log_failure problem.Problem.channel in
  let dterm = dlog_failure problem.Problem.channel in
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
    let node_constraints, relay_constraints, coverages = build_constraints problem txs in
    let unsatisfiable_empty =
      List.filter_map
        (fun c -> if c.idx = [||] then Some c.about else None)
        (node_constraints @ relay_constraints)
      |> List.sort_uniq Int.compare
    in
    let live_constraints =
      List.filter (fun c -> c.idx <> [||]) (node_constraints @ relay_constraints)
    in
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
    let objective_grad _ = Array.map (fun s -> s /. scale_sum) scale in
    (* The NLP sees each constraint at w_k = scale_k·x_k, computed
       member by member: the same floats as [constraint_value] on the
       costs, without building them. *)
    let mk_constraint c =
      {
        Nlp.label = Printf.sprintf "inform-%d" c.about;
        g =
          (fun x ->
            let acc = ref 0. in
            for i = 0 to Array.length c.idx - 1 do
              let k = c.idx.(i) in
              acc := !acc +. term ~beta:c.beta.(i) (scale.(k) *. x.(k))
            done;
            !acc -. log_eps);
        g_grad =
          Some
            (fun x ->
              let grad = Array.make nvars 0. in
              for i = 0 to Array.length c.idx - 1 do
                let k = c.idx.(i) in
                grad.(k) <- grad.(k) +. (dterm ~beta:c.beta.(i) (scale.(k) *. x.(k)) *. scale.(k))
              done;
              grad);
      }
    in
    let lower = Array.map (fun s -> phy.Phy.w_min /. s) scale in
    let upper = Array.map (fun s -> phy.Phy.w_max /. s) scale in
    let x0 = Array.map (fun s -> Futil.clamp ~lo:(phy.Phy.w_min /. s) ~hi:(phy.Phy.w_max /. s) 1.) scale in
    let nlp_problem =
      {
        Nlp.objective;
        objective_grad = Some objective_grad;
        constraints = List.map mk_constraint live_constraints;
        lower;
        upper;
      }
    in
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
    (* Monotone repair: grow the members of any violated constraint by
       a common factor found by bisection; costs only increase, so
       every already-satisfied constraint stays satisfied.  Two
       sweeps: relay constraints can tighten node constraints'
       members and vice versa, but growth is monotone, so a fixed
       small number of passes settles. *)
    let tol = 1e-9 in
    let repair_all w =
      let unsatisfiable = ref unsatisfiable_empty in
      let repaired = ref false in
      let repair c =
        if constraint_value ~term ~log_eps c w > tol then begin
          repaired := true;
          let apply lambda =
            Array.iter (fun k -> w.(k) <- Float.min phy.Phy.w_max (lambda *. w.(k))) c.idx
          in
          let value_at lambda =
            let acc = ref 0. in
            for i = 0 to Array.length c.idx - 1 do
              acc :=
                !acc +. term ~beta:c.beta.(i) (Float.min phy.Phy.w_max (lambda *. w.(c.idx.(i))))
            done;
            !acc -. log_eps
          in
          let lambda_max =
            Array.fold_left
              (fun acc k -> Float.max acc (phy.Phy.w_max /. Float.max w.(k) 1e-300))
              1. c.idx
          in
          match
            Bisect.least_satisfying (fun lambda -> value_at lambda <= 0.) ~lo:1. ~hi:lambda_max
          with
          | Some lambda -> apply lambda
          | None ->
              apply lambda_max;
              unsatisfiable := List.sort_uniq Int.compare (c.about :: !unsatisfiable)
        end
      in
      List.iter repair live_constraints;
      List.iter repair live_constraints;
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
       still satisfies every constraint it appears in, given the
       others.  Each step preserves feasibility and strictly decreases
       Σw, so this deterministically reclaims coverage redundancy the
       penalty solver missed. *)
    let ed_of beta =
      match problem.Problem.channel with
      | `Rayleigh -> Ed_function.rayleigh ~beta
      | `Nakagami m -> Ed_function.nakagami ~beta ~m
      | `Lognormal sigma -> Ed_function.lognormal ~beta ~sigma
      | `Static -> assert false
    in
    (* Per transmission: each live constraint it appears in, with its
       member position there. *)
    let constraints_of = Array.make nvars [] in
    List.iter
      (fun c -> Array.iteri (fun i k -> constraints_of.(k) <- (c, i) :: constraints_of.(k)) c.idx)
      live_constraints;
    let polish_tol = 1e-4 in
    let sweep () =
      let changed = ref false in
      for k = 0 to nvars - 1 do
        let required =
          List.fold_left
            (fun acc (c, i) ->
              if constraint_value ~term ~log_eps c w > tol then
                (* Already violated (w_max saturation): do not move. *)
                Float.max acc w.(k)
              else begin
                let others = ref 0. in
                Array.iteri
                  (fun i' k' -> if k' <> k then others := !others +. term ~beta:c.beta.(i') w.(k'))
                  c.idx;
                let rhs = log_eps -. !others in
                if rhs >= 0. then acc
                else begin
                  match Ed_function.cost_for_failure (ed_of c.beta.(i)) ~target:(exp rhs) with
                  | Some need -> Float.max acc need
                  | None -> Float.max acc w.(k)
                end
              end)
            phy.Phy.w_min constraints_of.(k)
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
