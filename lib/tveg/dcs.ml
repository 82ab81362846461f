open Tmedb_channel

(* [marginal] is declared first so the shared [cost] label defaults to
   [level], which predates it. *)
type marginal = { cost : float; fresh : int list }
type level = { cost : float; covered : int list }

(* Telemetry: one DCS query per (node, time) asked of the auxiliary
   graph builder — a flag check when the registry is off. *)
let c_queries = Tmedb_obs.Counter.make "dcs.queries"

let epsilon_cost ed phy =
  match Ed_function.cost_for_failure ed ~target:phy.Phy.eps with
  | Some w -> w
  | None -> Float.infinity

let neighbour_cost ~phy ~channel ~dist =
  match channel with
  | `Static -> Phy.min_cost phy ~dist
  | `Rayleigh -> Phy.fading_reference_cost phy ~dist
  | `Nakagami m -> epsilon_cost (Ed_function.nakagami ~beta:(Phy.beta phy ~dist) ~m) phy
  | `Lognormal sigma ->
      epsilon_cost (Ed_function.lognormal ~beta:(Phy.beta phy ~dist) ~sigma) phy

let marginals_at g ~phy ~channel ~node ~time =
  Tmedb_obs.Counter.incr c_queries;
  let costed = ref [] in
  Tveg.iter_neighbors_at g node time (fun j dist ->
      let w = neighbour_cost ~phy ~channel ~dist in
      if w <= phy.Phy.w_max then costed := (w, j) :: !costed);
  (* The (cost, id) order is total, so the visiting order is moot. *)
  let costed =
    List.sort
      (fun (wa, ja) (wb, jb) ->
        let c = Float.compare wa wb in
        if c <> 0 then c else Int.compare ja jb)
      !costed
  in
  (* Level k covers the k cheapest neighbours; equal costs merge into
     one level.  Only the level's *new* neighbours are materialised —
     equal-cost runs are contiguous and id-ascending after the sort. *)
  let rec build = function
    | [] -> []
    | (w, j) :: rest ->
        let rec absorb fresh_rev rest =
          match rest with
          | (w', j') :: tl when Float.equal w' w -> absorb (j' :: fresh_rev) tl
          | _ -> (fresh_rev, rest)
        in
        let fresh_rev, rest = absorb [ j ] rest in
        { cost = Float.max phy.Phy.w_min w; fresh = List.rev fresh_rev } :: build rest
  in
  build costed

let at g ~phy ~channel ~node ~time =
  (* Prefix-accumulate the marginals: each level's covered set is the
     previous one merged with the fresh neighbours (both id-sorted). *)
  let rec merge a b =
    match (a, b) with
    | [], l | l, [] -> l
    | x :: xt, y :: yt ->
        if x < y then x :: merge xt b else if x > y then y :: merge a yt else x :: merge xt yt
  in
  let rec accum covered = function
    | [] -> []
    | { cost; fresh } :: rest ->
        let covered = merge covered fresh in
        { cost; covered } :: accum covered rest
  in
  accum [] (marginals_at g ~phy ~channel ~node ~time)

let equal_marginal (a : marginal) (b : marginal) =
  Float.equal a.cost b.cost && List.equal Int.equal a.fresh b.fresh

let level_stats margs =
  List.fold_left
    (fun (nlev, cov) { fresh; _ } -> (nlev + 1, cov + List.length fresh))
    (0, 0) margs

let min_cost_level = function [] -> None | level :: _ -> Some level

let level_covering levels ~k =
  List.find_opt (fun level -> List.length level.covered >= k) levels
