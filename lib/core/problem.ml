open Tmedb_prelude
open Tmedb_channel
open Tmedb_tveg

type t = {
  graph : Tveg.t;
  phy : Phy.t;
  channel : Tveg.channel;
  source : int;
  deadline : float;
  budget : float option;
}

let make ?budget ~graph ~phy ~channel ~source ~deadline () =
  if source < 0 || source >= Tveg.n graph then invalid_arg "Problem.make: source out of range";
  let span = Tveg.span graph in
  if deadline <= span.Interval.lo || deadline > span.Interval.hi then
    invalid_arg "Problem.make: deadline outside the graph span";
  { graph; phy; channel; source; deadline; budget }

let n t = Tveg.n t.graph
let tau t = Tveg.tau t.graph
let span_start t = (Tveg.span t.graph).Interval.lo

let non_source_nodes t =
  List.filter (fun v -> v <> t.source) (List.init (n t) (fun i -> i))

let arrivals t = Tveg.earliest_arrival t.graph ~src:t.source ~t0:(span_start t)
let is_reachable t = Array.for_all (fun a -> a <= t.deadline) (arrivals t)
let completion_lower_bound t = Array.fold_left Float.max (span_start t) (arrivals t)

let clip t =
  let span = Tveg.span t.graph in
  let sub = Interval.make ~lo:span.Interval.lo ~hi:t.deadline in
  { t with graph = Tveg.restrict t.graph ~span:sub }

let dts ?cap_per_node t = Dts.compute ?cap_per_node ~source:t.source t.graph ~deadline:t.deadline

let set_cover_gadget ?(phy = Phy.default) ~universe ~sets () =
  if universe <= 0 then invalid_arg "Problem.set_cover_gadget: empty universe";
  List.iter
    (List.iter (fun e ->
         if e < 0 || e >= universe then
           invalid_arg "Problem.set_cover_gadget: element outside the universe"))
    sets;
  let covered = List.sort_uniq Int.compare (List.concat sets) in
  if List.length covered <> universe then
    invalid_arg "Problem.set_cover_gadget: universe not covered by the union of sets";
  let num_sets = List.length sets in
  let n = 1 + num_sets + universe in
  let span = Interval.make ~lo:0. ~hi:3. in
  let d_source = 1. and d_element = 10. in
  let links = ref [] in
  (* Source adjacent to every set node during [0, 1). *)
  List.iteri
    (fun m _ ->
      links :=
        (0, 1 + m, { Tveg.iv = Interval.make ~lo:0. ~hi:1.; dist = d_source }) :: !links)
    sets;
  (* Set node m adjacent to its elements during [1, 2). *)
  List.iteri
    (fun m elements ->
      List.iter
        (fun e ->
          links :=
            ( 1 + m,
              1 + num_sets + e,
              { Tveg.iv = Interval.make ~lo:1. ~hi:2.; dist = d_element } )
            :: !links)
        elements)
    sets;
  let graph = Tveg.create ~n ~span ~tau:0. !links in
  let instance = make ~graph ~phy ~channel:`Static ~source:0 ~deadline:3. () in
  (instance, Phy.min_cost phy ~dist:d_source, Phy.min_cost phy ~dist:d_element)

let pp ppf t =
  Format.fprintf ppf "tmedb{%a src=%d T=%g channel=%s%s}" Tveg.pp t.graph t.source t.deadline
    (match t.channel with
    | `Static -> "static"
    | `Rayleigh -> "rayleigh"
    | `Nakagami m -> Printf.sprintf "nakagami(%g)" m
    | `Lognormal sigma -> Printf.sprintf "lognormal(%g)" sigma)
    (match t.budget with None -> "" | Some c -> Printf.sprintf " C=%g" c)
