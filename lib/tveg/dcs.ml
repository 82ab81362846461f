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

(* The kernels' own buffers: the served neighbours' unclamped costs,
   parallel to [ids]; then the sweep's, one row per priced live piece,
   the exact-instant events as (instant, key) pairs and the run-end
   removals as (run end, neighbour) pairs.  A key [p] inserts piece p
   and [-j - 1] removes neighbour j, so at one instant every removal
   sorts first. *)
type work = {
  mutable raw_cost : float array;
  mutable piece_id : int array;
  mutable piece_cost : float array;
  mutable at : float array;
  mutable key : int array;
  mutable run_hi : float array;
  mutable run_id : int array;
}

type scratch = {
  mutable level_cost : float array;
  mutable level_start : int array;
  mutable ids : int array;
  work : work;
}

let scratch () =
  {
    level_cost = [||];
    level_start = [| 0 |];
    ids = [||];
    work =
      {
        raw_cost = [||];
        piece_id = [||];
        piece_cost = [||];
        at = [||];
        key = [||];
        run_hi = [||];
        run_id = [||];
      };
  }

(* Room for [deg] neighbours: never shrinks, so a scratch reused over a
   graph settles at its largest degree. *)
let reserve s deg =
  if Array.length s.ids < deg then begin
    let cap = max deg (2 * Array.length s.ids) in
    s.level_cost <- Array.make cap 0.;
    s.level_start <- Array.make (cap + 1) 0;
    s.ids <- Array.make cap 0;
    s.work.raw_cost <- Array.make cap 0.
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

(* The levels of the first [len] served neighbours, already in
   (cost, id) order: level k covers the k cheapest neighbours, and equal
   costs merge into one level, whose fresh neighbours are contiguous
   and id-ascending.  Both kernels end here. *)
let levels s pr len =
  let raw = s.work.raw_cost and w_min = pr.phy.Phy.w_min in
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

let fill s g pr ~node ~time =
  Tmedb_obs.Counter.incr c_queries;
  reserve s (Array.length (Tveg.neighbor_ids g node));
  let raw = s.work.raw_cost and ids = s.ids in
  let w_max = pr.phy.Phy.w_max in
  let len = ref 0 in
  Tveg.iter_neighbors_at g node time (fun j dist ->
      raw.(!len) <- price pr dist;
      if raw.(!len) <= w_max then begin
        ids.(!len) <- j;
        incr len
      end);
  sort raw ids !len;
  levels s pr !len

(* [a] with room for [need] slots, its contents kept. *)
let grow a need fill =
  if Array.length a >= need then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Piece [p]'s neighbour joins the [len] live neighbours at its
   (cost, id) slot; the slots past it shift right. *)
let insert s len p =
  let e = s.work in
  let c = e.piece_cost.(p) and j = e.piece_id.(p) in
  let raw = e.raw_cost and ids = s.ids in
  let q = ref len in
  while !q > 0 && (c < raw.(!q - 1) || (Float.equal c raw.(!q - 1) && j < ids.(!q - 1))) do
    raw.(!q) <- raw.(!q - 1);
    ids.(!q) <- ids.(!q - 1);
    decr q
  done;
  raw.(!q) <- c;
  ids.(!q) <- j

(* Neighbour [j] leaves the [len] live neighbours: at most one of its
   pieces is live at a time, so its one slot closes up. *)
let remove s len j =
  let raw = s.work.raw_cost and ids = s.ids in
  let q = ref 0 in
  while !q < len && ids.(!q) <> j do
    incr q
  done;
  assert (!q < len);
  for r = !q to len - 2 do
    raw.(r) <- raw.(r + 1);
    ids.(r) <- ids.(r + 1)
  done

let sweep s g pr ~node =
  let tau = Tveg.tau g and w_max = pr.phy.Phy.w_max in
  reserve s (Array.length (Tveg.neighbor_ids g node));
  let e = s.work in
  (* Each live piece costing at most w_max is priced once and yields
     two events: its insertion at [lo], and its removal at [hi] when
     the next piece of its run is live at its start ([hi] is that
     piece's [lo]), else at the run's end, the first instant t with
     t + τ >= run_hi. *)
  let np = ref 0 and nx = ref 0 and nr = ref 0 in
  Tveg.iter_live_spans g node (fun j lo hi run_hi dist ->
      let c = price pr dist in
      if c <= w_max then begin
        let p = !np in
        e.piece_id <- grow e.piece_id (p + 1) 0;
        e.piece_cost <- grow e.piece_cost (p + 1) 0.;
        e.piece_id.(p) <- j;
        e.piece_cost.(p) <- c;
        np := p + 1;
        e.at <- grow e.at (!nx + 2) 0.;
        e.key <- grow e.key (!nx + 2) 0;
        e.at.(!nx) <- lo;
        e.key.(!nx) <- p;
        incr nx;
        if hi +. tau < run_hi then begin
          e.at.(!nx) <- hi;
          e.key.(!nx) <- -j - 1;
          incr nx
        end
        else begin
          e.run_hi <- grow e.run_hi (!nr + 1) 0.;
          e.run_id <- grow e.run_id (!nr + 1) 0;
          e.run_hi.(!nr) <- run_hi;
          e.run_id.(!nr) <- j;
          incr nr
        end
      end);
  let nx = !nx and nr = !nr in
  sort e.at e.key nx;
  sort e.run_hi e.run_id nr;
  let ix = ref 0 and ir = ref 0 and live = ref 0 and last = ref Float.neg_infinity in
  fun time ->
    if time < !last then invalid_arg "Dcs.sweep: time before the previous one";
    last := time;
    Tmedb_obs.Counter.incr c_queries;
    (* Apply every event due by [time] in time order.  An exact event
       is due at its instant, a run-end removal once time + τ >= run_hi.
       t + τ is monotone in t, so a run-end removal precedes an exact
       event exactly when that event's instant + τ reaches the run end,
       which puts removals first at one instant. *)
    let reach = time +. tau in
    let continue = ref true in
    while !continue do
      let x_due = !ix < nx && e.at.(!ix) <= time in
      if !ir < nr && e.run_hi.(!ir) <= reach && ((not x_due) || e.at.(!ix) +. tau >= e.run_hi.(!ir))
      then begin
        remove s !live e.run_id.(!ir);
        decr live;
        incr ir
      end
      else if x_due then begin
        let k = e.key.(!ix) in
        if k >= 0 then begin
          insert s !live k;
          incr live
        end
        else begin
          remove s !live (-k - 1);
          decr live
        end;
        incr ix
      end
      else continue := false
    done;
    levels s pr !live

let marginals s levels =
  let fresh k =
    let acc = ref [] in
    for q = s.level_start.(k + 1) - 1 downto s.level_start.(k) do
      acc := s.ids.(q) :: !acc
    done;
    !acc
  in
  List.init levels (fun k -> { cost = s.level_cost.(k); fresh = fresh k })

let marginals_at g ~phy ~channel ~node ~time =
  let s = scratch () in
  marginals s (fill s g (pricing ~phy ~channel) ~node ~time)

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

let level_covering levels ~k =
  List.find_opt (fun level -> List.length level.covered >= k) levels
