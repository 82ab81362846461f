open Tmedb_prelude

module Warm = struct
  (* Keyed by (relay, occurrence index among the relay's transmissions
     in schedule order): stable across adjacent sweep points whose
     backbones mostly agree, which is exactly when warm-starting pays.
     Only point lookups and replacements — never iterated, so hash
     bucket order cannot leak into results. *)
  type t = (int * int, float) Hashtbl.t

  let create () = Hashtbl.create 64
  let find t ~relay ~occurrence = Hashtbl.find_opt t (relay, occurrence)
  let set t ~relay ~occurrence cost = Hashtbl.replace t (relay, occurrence) cost
  let reset t = Hashtbl.reset t
end

module Ctx = struct
  type t = {
    rng : Rng.t option;
    steiner_level : int;
    cap_per_node : int option;
    warm : Warm.t option;
    solve_state : Solve_state.t option;
  }

  let make ?rng ?(steiner_level = 2) ?cap_per_node ?warm ?lazy_aux:(_ : bool option)
      ?solve_state () =
    { rng; steiner_level; cap_per_node; warm; solve_state }

  let default () = make ()
  let rng_or ctx ~seed = match ctx.rng with Some rng -> rng | None -> Rng.create seed
end

module Outcome = struct
  type allocation = {
    costs : float array;
    nlp_feasible : bool;
    repaired : bool;
    unsatisfiable : int list;
    outer_iterations : int;
  }

  type artifact =
    | Steiner_tree of {
        tree : Tmedb_steiner.Dst.tree;
        aux_vertices : int;
        aux_edges : int;
        dts_points : int;
      }
    | Greedy_steps of int
    | Fr_allocation of { backbone : Schedule.t; allocation : allocation }
    | Bip_plan of { planned_energy : float; snapshot_unreachable : int list }

  type t = {
    schedule : Schedule.t;
    report : Feasibility.report;
    unreached : int list;
    artifacts : artifact list;
  }

  let make ?(artifacts = []) ~schedule ~report ~unreached () =
    { schedule; report; unreached; artifacts }

  let find_map_artifact f o = List.find_map f o.artifacts

  let tree_cost o =
    find_map_artifact
      (function Steiner_tree { tree; _ } -> Some tree.Tmedb_steiner.Dst.cost | _ -> None)
      o

  let steps o = find_map_artifact (function Greedy_steps s -> Some s | _ -> None) o

  let backbone o =
    find_map_artifact (function Fr_allocation { backbone; _ } -> Some backbone | _ -> None) o

  let allocation o =
    find_map_artifact
      (function Fr_allocation { allocation; _ } -> Some allocation | _ -> None)
      o

  let planned_energy o =
    find_map_artifact
      (function Bip_plan { planned_energy; _ } -> Some planned_energy | _ -> None)
      o

  let snapshot_unreachable o =
    match
      find_map_artifact
        (function Bip_plan { snapshot_unreachable; _ } -> Some snapshot_unreachable | _ -> None)
        o
    with
    | Some nodes -> nodes
    | None -> []
end

type channel = [ `Static | `Fading ]

type info = { name : string; channel : channel; section : string; summary : string }
type t = { info : info; plan : Ctx.t -> Problem.t -> Outcome.t }

module type PLANNER = sig
  val info : info
  val plan : Ctx.t -> Problem.t -> Outcome.t
end

let of_module (module P : PLANNER) = { info = P.info; plan = P.plan }
let name p = p.info.name
let is_fading p = p.info.channel = `Fading

let design_channel p : Tmedb_tveg.Tveg.channel =
  match p.info.channel with `Fading -> `Rayleigh | `Static -> `Static

let run ?ctx p problem =
  let ctx = match ctx with Some c -> c | None -> Ctx.default () in
  if Tmedb_report.Provenance.enabled () then
    Tmedb_report.Provenance.emit
      (Tmedb_report.Provenance.Stage { stage = "planner"; detail = p.info.name });
  (* The profiler renders this frame as [planner.run:<name>], so every
     kernel span below attributes to the planner that drove it. *)
  Tmedb_obs.Span.with_ "planner.run"
    ~args:[ ("planner", p.info.name) ]
    (fun () -> p.plan ctx problem)
