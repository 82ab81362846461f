open Tmedb_prelude
open Tmedb_channel
open Tmedb_tveg

(* Union snapshot: best-ever distance per pair, None if never in
   contact. *)
let snapshot g =
  let n = Tveg.n g in
  let d = Array.make_matrix n n None in
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      List.iter
        (fun l ->
          let best =
            match d.(i).(j) with
            | None -> l.Tveg.dist
            | Some cur -> Float.min cur l.Tveg.dist
          in
          d.(i).(j) <- Some best;
          d.(j).(i) <- Some best)
        (Tveg.links g i j)
    done
  done;
  d

(* Classic BIP: repeatedly add the cheapest incremental reach. *)
let plan_tree problem dists =
  let phy = problem.Problem.phy in
  let n = Problem.n problem in
  let power = Array.make n 0. in
  let parent = Array.make n None in
  let informed = Array.make n false in
  informed.(problem.Problem.source) <- true;
  let progress = ref true in
  while !progress do
    progress := false;
    let best = ref None in
    for i = 0 to n - 1 do
      if informed.(i) then
        for j = 0 to n - 1 do
          if (not informed.(j)) && i <> j then begin
            match dists.(i).(j) with
            | None -> ()
            | Some d ->
                let needed = Phy.min_cost phy ~dist:d in
                if needed <= phy.Phy.w_max then begin
                  let incremental = Float.max 0. (needed -. power.(i)) in
                  match !best with
                  | Some (inc, _, _, _) when inc <= incremental -> ()
                  | Some _ | None -> best := Some (incremental, i, j, needed)
                end
          end
        done
    done;
    match !best with
    | None -> ()
    | Some (_, i, j, needed) ->
        power.(i) <- Float.max power.(i) needed;
        parent.(j) <- Some i;
        informed.(j) <- true;
        progress := true
  done;
  (power, parent)

let plan (_ctx : Planner.Ctx.t) (problem : Problem.t) =
  let g = problem.Problem.graph in
  let phy = problem.Problem.phy in
  let n = Problem.n problem in
  let tau = Tveg.tau g in
  let dists = snapshot g in
  let power, parent = plan_tree problem dists in
  let children = Array.make n [] in
  Array.iteri
    (fun j p -> match p with Some i -> children.(i) <- j :: children.(i) | None -> ())
    parent;
  let snapshot_unreachable =
    List.filter
      (fun j -> j <> problem.Problem.source && parent.(j) = None)
      (List.init n (fun j -> j))
  in
  (* Replay chronologically: a node becomes ready once informed; it
     fires once, at the earliest instant one of its still-uninformed
     children is adjacent. *)
  let informed_at = Array.make n Float.infinity in
  informed_at.(problem.Problem.source) <- Problem.span_start problem;
  let fired = Array.make n false in
  let txs = ref [] in
  let queue = Pqueue.create () in
  let schedule_parent i =
    if not fired.(i) then begin
      let t =
        List.fold_left
          (fun acc c ->
            if Float.is_finite informed_at.(c) then acc
            else Float.min acc (Tveg.earliest_departure g i c ~after:informed_at.(i)))
          Float.infinity children.(i)
      in
      if t +. tau <= problem.Problem.deadline then Pqueue.push queue t i
    end
  in
  schedule_parent problem.Problem.source;
  let rec drain () =
    match Pqueue.pop queue with
    | None -> ()
    | Some (t, i) ->
        if not fired.(i) then begin
          fired.(i) <- true;
          txs := { Schedule.relay = i; time = t; cost = power.(i) } :: !txs;
          (* Children adjacent now and within static range receive. *)
          List.iter
            (fun c ->
              if not (Float.is_finite informed_at.(c)) then begin
                match Tveg.dist_at g i c t with
                | Some d when Phy.min_cost phy ~dist:d <= power.(i) ->
                    informed_at.(c) <- t +. tau;
                    schedule_parent c
                | Some _ | None -> ()
              end)
            children.(i)
        end;
        drain ()
  in
  drain ();
  let schedule = Schedule.of_transmissions !txs in
  let report = Feasibility.check problem schedule in
  let unreached =
    List.filter (fun j -> not (Float.is_finite informed_at.(j))) (List.init n (fun j -> j))
  in
  Planner.Outcome.make ~schedule ~report ~unreached
    ~artifacts:
      [
        Planner.Outcome.Bip_plan
          { planned_energy = Futil.kahan_sum power; snapshot_unreachable };
      ]
    ()

let info =
  {
    Planner.name = "BIP";
    channel = `Static;
    section = "Wieselthier et al. 2000";
    summary = "static-snapshot broadcast incremental power tree, replayed on the TVEG";
  }

let planner = { Planner.info; plan }
