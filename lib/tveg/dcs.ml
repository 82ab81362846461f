open Tmedb_channel

(* [marginal] is declared first so the shared [cost] label defaults to
   [level], which predates it. *)
type marginal = { cost : float; fresh : int list }
type level = { cost : float; covered : int list }

(* Telemetry: one DCS query per (node, time) asked of the auxiliary
   graph builder — a flag check when the registry is off. *)
let c_queries = Tmedb_obs.Counter.make "dcs.queries"

type pricing = {
  phy : Phy.t;
  channel : Tveg.channel;
  scale : float;  (* noise_power · γ_th: β = scale · d^α *)
  log_eps : float;  (* ln(1/(1−ε)), the Rayleigh ε-cost divisor *)
}

let pricing ~phy ~channel =
  {
    phy;
    channel;
    scale = Phy.noise_power phy *. Phy.gamma_th phy;
    log_eps = log (1. /. (1. -. phy.Phy.eps));
  }

let epsilon_cost ed phy =
  match Ed_function.cost_for_failure ed ~target:phy.Phy.eps with
  | Some w -> w
  | None -> Float.infinity

(* [Phy.min_cost] for [`Static] and [Phy.fading_reference_cost] for
   [`Rayleigh], term for term with the constants hoisted; inlined so
   the kernel stores those two unboxed. *)
let[@inline] price pr dist =
  let beta = pr.scale *. (dist ** pr.phy.Phy.alpha) in
  match pr.channel with
  | `Static -> beta
  | `Rayleigh -> beta /. pr.log_eps
  | `Nakagami m -> epsilon_cost (Ed_function.nakagami ~beta ~m) pr.phy
  | `Lognormal sigma -> epsilon_cost (Ed_function.lognormal ~beta ~sigma) pr.phy

let neighbour_cost ~phy ~channel ~dist = price (pricing ~phy ~channel) dist

type scratch = {
  mutable level_cost : float array;
  mutable level_start : int array;
  mutable ids : int array;
  mutable raw_cost : float array;
}

let scratch () = { level_cost = [||]; level_start = [| 0 |]; ids = [||]; raw_cost = [||] }

(* Room for [deg] neighbours: never shrinks, so a scratch reused over a
   graph settles at its largest degree. *)
let reserve s deg =
  if Array.length s.ids < deg then begin
    let cap = max deg (2 * Array.length s.ids) in
    s.level_cost <- Array.make cap 0.;
    s.level_start <- Array.make (cap + 1) 0;
    s.ids <- Array.make cap 0;
    s.raw_cost <- Array.make cap 0.
  end

(* Slot [a] sorts before slot [b] in (cost, id) order. *)
let[@inline] before (c : float array) (id : int array) a b =
  c.(a) < c.(b) || (Float.equal c.(a) c.(b) && id.(a) < id.(b))

let[@inline] swap (c : float array) (id : int array) a b =
  let ca = c.(a) and ia = id.(a) in
  c.(a) <- c.(b);
  id.(a) <- id.(b);
  c.(b) <- ca;
  id.(b) <- ia

let rec sift c id len k =
  let l = (2 * k) + 1 in
  if l < len then begin
    let m = if l + 1 < len && before c id l (l + 1) then l + 1 else l in
    if before c id k m then begin
      swap c id k m;
      sift c id len m
    end
  end

(* In-place (cost, id) sort of the first [len] slots: insertion sort
   for the neighbourhoods that dominate (no query of an N = 500 Scale
   instance serves more than 65 neighbours, and there it runs about
   1.5x faster than heapsort), heapsort beyond, which bounds the worst
   case by O(len · log len). *)
let sort (c : float array) (id : int array) len =
  if len <= 64 then
    for k = 1 to len - 1 do
      let ck = c.(k) and ik = id.(k) in
      let q = ref k in
      while !q > 0 && (ck < c.(!q - 1) || (Float.equal ck c.(!q - 1) && ik < id.(!q - 1))) do
        c.(!q) <- c.(!q - 1);
        id.(!q) <- id.(!q - 1);
        decr q
      done;
      c.(!q) <- ck;
      id.(!q) <- ik
    done
  else begin
    for k = (len / 2) - 1 downto 0 do
      sift c id len k
    done;
    for last = len - 1 downto 1 do
      swap c id 0 last;
      sift c id last 0
    done
  end

let fill s g pr ~node ~time =
  Tmedb_obs.Counter.incr c_queries;
  reserve s (Array.length (Tveg.neighbor_ids g node));
  let raw = s.raw_cost and ids = s.ids in
  let w_max = pr.phy.Phy.w_max and w_min = pr.phy.Phy.w_min in
  let len = ref 0 in
  Tveg.iter_neighbors_at g node time (fun j dist ->
      raw.(!len) <- price pr dist;
      if raw.(!len) <= w_max then begin
        ids.(!len) <- j;
        incr len
      end);
  let len = !len in
  sort raw ids len;
  (* Level k covers the k cheapest neighbours; equal costs merge into
     one level, whose fresh neighbours are contiguous and id-ascending
     after the sort. *)
  let levels = ref 0 and q = ref 0 in
  while !q < len do
    let start = !q in
    incr q;
    while !q < len && Float.equal raw.(!q) raw.(start) do
      incr q
    done;
    s.level_cost.(!levels) <- Float.max w_min raw.(start);
    s.level_start.(!levels) <- start;
    incr levels
  done;
  s.level_start.(!levels) <- len;
  !levels

let marginals_at g ~phy ~channel ~node ~time =
  let s = scratch () in
  let levels = fill s g (pricing ~phy ~channel) ~node ~time in
  let fresh k =
    let acc = ref [] in
    for q = s.level_start.(k + 1) - 1 downto s.level_start.(k) do
      acc := s.ids.(q) :: !acc
    done;
    !acc
  in
  List.init levels (fun k -> { cost = s.level_cost.(k); fresh = fresh k })

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
