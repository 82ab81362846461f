open Tmedb_channel
open Tmedb_tveg

type report = {
  relays_informed : bool;
  all_informed : bool;
  within_deadline : bool;
  within_budget : bool;
  costs_in_range : bool;
  feasible : bool;
  informed_time : float option array;
  uninformed : int list;
  uninformed_probability : float array;
  total_cost : float;
}

let replay (problem : Problem.t) ~ready ~hear ~receive ~fire txs =
  let g = problem.Problem.graph in
  let tau = Tveg.tau g in
  (* Pending receive events in emission order, which is effective-time
     order: transmissions are time-sorted and τ is constant.  A FIFO
     keeps one node's factors multiplying in that order. *)
  let pending = Queue.create () in
  let rec apply_until t =
    match Queue.peek_opt pending with
    | Some (effective, node, factor) when effective <= t ->
        ignore (Queue.pop pending);
        receive node effective factor;
        apply_until t
    | Some _ | None -> ()
  in
  let transmit k =
    let tx = txs.(k) in
    fire k;
    let effective = tx.Schedule.time +. tau in
    Tveg.iter_neighbors_at g tx.Schedule.relay tx.Schedule.time (fun j dist ->
        let factor = hear tx dist in
        (* φ = 1 leaves p unchanged under Eq. 6. *)
        if not (Float.equal factor 1.) then Queue.add (effective, j, factor) pending)
  in
  (* Same-instant transmissions may chain when τ = 0 (journeys only
     require t_{l+1} >= t_l + τ): release in rounds, each firing every
     waiting transmission whose relay is ready, until a round fires
     none.  Returns the transmissions left waiting. *)
  let rec release t waiting =
    match List.partition (fun k -> ready txs.(k).Schedule.relay t) waiting with
    | [], blocked -> blocked
    | fired, blocked ->
        List.iter transmit fired;
        (* τ = 0 receive events land at this same instant. *)
        if Float.equal tau 0. then apply_until t;
        if blocked = [] then [] else release t blocked
  in
  let ntx = Array.length txs in
  let rec walk lo unreleased =
    if lo >= ntx then List.rev unreleased
    else begin
      let t = txs.(lo).Schedule.time in
      let hi = ref (lo + 1) in
      while !hi < ntx && Float.equal txs.(!hi).Schedule.time t do
        incr hi
      done;
      apply_until t;
      let blocked = release t (List.init (!hi - lo) (fun i -> lo + i)) in
      walk !hi (List.rev_append blocked unreleased)
    end
  in
  let unreleased = walk 0 [] in
  apply_until problem.Problem.deadline;
  unreleased

let check (problem : Problem.t) schedule =
  let phy = problem.Problem.phy in
  let n = Tveg.n problem.Problem.graph in
  let eps = phy.Phy.eps in
  let p = Array.make n 1. in
  let informed_time = Array.make n None in
  p.(problem.Problem.source) <- 0.;
  informed_time.(problem.Problem.source) <- Some (Problem.span_start problem);
  let txs = Array.of_list (Schedule.transmissions schedule) in
  let unreleased =
    replay problem txs
      ~ready:(fun relay _ -> p.(relay) <= eps)
      ~hear:(fun tx dist ->
        Ed_function.failure_prob
          (Ed_function.of_distance phy problem.Problem.channel ~dist)
          ~w:tx.Schedule.cost)
      ~receive:(fun node effective factor ->
        p.(node) <- p.(node) *. factor;
        if p.(node) <= eps && informed_time.(node) = None then
          informed_time.(node) <- Some effective)
      ~fire:ignore
  in
  (* Unreleased transmissions go out uninformed: condition (i) is
     violated, their cost is spent and nobody is informed by them. *)
  let relays_informed = unreleased = [] in
  let costs_in_range = Array.for_all (fun tx -> Phy.in_cost_set phy tx.Schedule.cost) txs in
  let uninformed =
    List.filter (fun i -> p.(i) > eps) (List.init n (fun i -> i))
  in
  let within_deadline =
    match Schedule.latest_time schedule with
    | None -> true
    | Some t -> t +. Tveg.tau problem.Problem.graph <= problem.Problem.deadline
  in
  let total_cost = Schedule.total_cost schedule in
  let within_budget =
    match problem.Problem.budget with None -> true | Some c -> total_cost <= c
  in
  let all_informed = uninformed = [] in
  {
    relays_informed;
    all_informed;
    within_deadline;
    within_budget;
    costs_in_range;
    feasible = relays_informed && all_informed && within_deadline && within_budget && costs_in_range;
    informed_time;
    uninformed;
    uninformed_probability = p;
    total_cost;
  }

let informed_count r =
  Array.fold_left (fun acc t -> match t with Some _ -> acc + 1 | None -> acc) 0 r.informed_time

let delivery_ratio r =
  float_of_int (informed_count r) /. float_of_int (Array.length r.informed_time)

let pp_report ppf r =
  Format.fprintf ppf
    "feasible=%b (relays=%b informed=%b deadline=%b budget=%b costs=%b) cost=%.4e uninformed=[%a]"
    r.feasible r.relays_informed r.all_informed r.within_deadline r.within_budget r.costs_in_range
    r.total_cost
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",") Format.pp_print_int)
    r.uninformed
