open Tmedb_prelude

type event =
  | Stage of { stage : string; detail : string }
  | Schedule_entry of {
      node : int;
      time : float;
      cost : float;
      point_idx : int;
      level_idx : int;
      covered : int list;
      tree_edge : (int * int) option;
    }
  | Expansion of { vertex : int; terminals : int }
  | Allocation of { relay : int; time : float; backbone_cost : float; allocated_cost : float }

(* Global sink, mirroring the lib/obs registry discipline: an Atomic
   flag so the disabled path is one load, and one Atomic list (newest
   first) that [emit] pushes onto with compare-and-set, so concurrent
   emitters need no lock and each one's events keep their order.
   EEDCB/FR construction runs on one domain, so emission order is the
   algorithm's own deterministic order. *)
let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b
let sink : event list Atomic.t = Atomic.make []

let emit e =
  if Atomic.get enabled_flag then begin
    let rec push () =
      let old = Atomic.get sink in
      if not (Atomic.compare_and_set sink old (e :: old)) then push ()
    in
    push ()
  end

let reset () = Atomic.set sink []
let events () = List.rev (Atomic.get sink)

(* ------------------------------------------------------------------ *)
(* JSON codec.  Tagged objects with a fixed field order per kind, so
   the ledger's provenance array is byte-stable. *)

let num_i i = Json.Num (float_of_int i)

let to_json = function
  | Stage { stage; detail } ->
      Json.Obj [ ("kind", Json.Str "stage"); ("stage", Json.Str stage); ("detail", Json.Str detail) ]
  | Schedule_entry { node; time; cost; point_idx; level_idx; covered; tree_edge } ->
      Json.Obj
        [
          ("kind", Json.Str "schedule_entry");
          ("node", num_i node);
          ("time", Json.Num time);
          ("cost", Json.Num cost);
          ("dts_point", num_i point_idx);
          ("dcs_level", num_i level_idx);
          ("covered", Json.List (List.map num_i covered));
          ( "tree_edge",
            match tree_edge with
            | Some (u, v) -> Json.List [ num_i u; num_i v ]
            | None -> Json.Null );
        ]
  | Expansion { vertex; terminals } ->
      Json.Obj
        [ ("kind", Json.Str "expansion"); ("vertex", num_i vertex); ("terminals", num_i terminals) ]
  | Allocation { relay; time; backbone_cost; allocated_cost } ->
      Json.Obj
        [
          ("kind", Json.Str "allocation");
          ("relay", num_i relay);
          ("time", Json.Num time);
          ("backbone_cost", Json.Num backbone_cost);
          ("allocated_cost", Json.Num allocated_cost);
        ]

let field name doc =
  match Json.member name doc with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "provenance event: missing field %S" name)

let ( let* ) r f = Result.bind r f

let as_num name v =
  match Json.to_float v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "provenance event: field %S is not a number" name)

let as_str name v =
  match v with
  | Json.Str s -> Ok s
  | _ -> Error (Printf.sprintf "provenance event: field %S is not a string" name)

let num_field name doc = Result.bind (field name doc) (as_num name)
let int_field name doc = Result.map int_of_float (num_field name doc)
let str_field name doc = Result.bind (field name doc) (as_str name)

let of_json doc =
  let* kind = str_field "kind" doc in
  match kind with
  | "stage" ->
      let* stage = str_field "stage" doc in
      let* detail = str_field "detail" doc in
      Ok (Stage { stage; detail })
  | "schedule_entry" ->
      let* node = int_field "node" doc in
      let* time = num_field "time" doc in
      let* cost = num_field "cost" doc in
      let* point_idx = int_field "dts_point" doc in
      let* level_idx = int_field "dcs_level" doc in
      let* covered_json = field "covered" doc in
      let* covered =
        match Json.to_list covered_json with
        | None -> Error "provenance event: \"covered\" is not a list"
        | Some items ->
            List.fold_left
              (fun acc item ->
                let* acc = acc in
                let* f = as_num "covered" item in
                Ok (int_of_float f :: acc))
              (Ok []) items
            |> Result.map List.rev
      in
      let* tree_edge =
        match Json.member "tree_edge" doc with
        | None | Some Json.Null -> Ok None
        | Some (Json.List [ u; v ]) ->
            let* u = as_num "tree_edge" u in
            let* v = as_num "tree_edge" v in
            Ok (Some (int_of_float u, int_of_float v))
        | Some _ -> Error "provenance event: \"tree_edge\" is not null or a pair"
      in
      Ok (Schedule_entry { node; time; cost; point_idx; level_idx; covered; tree_edge })
  | "expansion" ->
      let* vertex = int_field "vertex" doc in
      let* terminals = int_field "terminals" doc in
      Ok (Expansion { vertex; terminals })
  | "allocation" ->
      let* relay = int_field "relay" doc in
      let* time = num_field "time" doc in
      let* backbone_cost = num_field "backbone_cost" doc in
      let* allocated_cost = num_field "allocated_cost" doc in
      Ok (Allocation { relay; time; backbone_cost; allocated_cost })
  | other -> Error (Printf.sprintf "provenance event: unknown kind %S" other)
