(* The analyzer is a thin layer over compiler-libs: [Parse] gives the
   real parsetree (so rule R6 sees exactly the signature odoc sees and
   the expression rules survive any formatting), and an [Ast_iterator]
   walks expressions carrying two pieces of context — the stack of
   active [@lint.allow] scopes and whether the current subtree is an
   argument of a sorting call (which launders rule R1). *)

open Parsetree

(* ------------------------------------------------------------------ *)
(* Rules *)

type rule = { id : string; code : string; summary : string }

let r_nondet =
  {
    id = "nondet-iteration";
    code = "R1";
    summary =
      "Hashtbl iteration whose result is not re-sorted, in a result-affecting library";
  }

let r_rng =
  { id = "hidden-rng"; code = "R2"; summary = "Stdlib.Random outside lib/prelude/rng.ml" }

let r_clock =
  {
    id = "wall-clock";
    code = "R3";
    summary = "Unix.gettimeofday/Sys.time outside lib/obs and bench/";
  }

let r_mutable =
  {
    id = "toplevel-mutable-state";
    code = "R4";
    summary = "module-level mutable state outside lib/obs (races under the domain pool)";
  }

let r_float_cmp =
  {
    id = "float-polymorphic-compare";
    code = "R5";
    summary = "polymorphic =/<>/compare/min/max on float operands in a numeric kernel";
  }

let r_undoc =
  {
    id = "undocumented-val";
    code = "R6";
    summary = "public val without an odoc comment in lib/core or lib/obs";
  }

(* Phase-2 rules: interprocedural, computed on the .cmt typed trees by
   Lint_rules_typed (never by [analyze_source]).  They live in the same
   catalogue so --list-rules, --only and the allowlist treat both
   phases uniformly. *)

let r_pool_purity =
  {
    id = "pool-task-purity";
    code = "R7";
    summary = "closure reaching the pool transitively writes unguarded shared state";
  }

let r_rng_taint =
  {
    id = "rng-taint";
    code = "R8";
    summary = "pool task captures a shared Rng.t handle instead of a per-task split";
  }

let r_blocking =
  {
    id = "blocking-in-task";
    code = "R9";
    summary = "lock, channel or IO reachable from inside a pool task";
  }

let rules =
  [ r_nondet; r_rng; r_clock; r_mutable; r_float_cmp; r_undoc ]
  @ [ r_pool_purity; r_rng_taint; r_blocking ]

let typed_rules = [ r_pool_purity; r_rng_taint; r_blocking ]
let is_typed r = List.exists (fun t -> t.id = r.id) typed_rules
let find_rule id = List.find_opt (fun r -> r.id = id) rules

type finding = { rule : rule; file : string; line : int; col : int; message : string }

(* ------------------------------------------------------------------ *)
(* Paths and rule scopes *)

let normalize_path path =
  let path = String.map (fun c -> if c = '\\' then '/' else c) path in
  let rec strip p =
    if String.length p >= 2 && String.sub p 0 2 = "./" then
      strip (String.sub p 2 (String.length p - 2))
    else p
  in
  strip path

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* [under "lib/core" "lib/core/eedcb.ml"] but not "lib/core2/...". *)
let under dir path = path = dir || starts_with ~prefix:(dir ^ "/") path
let under_any dirs path = List.exists (fun d -> under d path) dirs

(* Libraries whose iteration order reaches figure output. *)
let result_affecting = [ "lib/core"; "lib/steiner"; "lib/tveg"; "lib/trace" ]

(* Numeric kernels where polymorphic comparison on floats hides NaN
   surprises and boxing. *)
let float_kernels = result_affecting @ [ "lib/channel"; "lib/nlp" ]

(* Directories whose public vals the docs gate covers. *)
let documented_scope = [ "lib/core"; "lib/obs"; "lib/report" ]

let in_scope rule path =
  if rule.id = r_nondet.id then under_any result_affecting path
  else if rule.id = r_rng.id then path <> "lib/prelude/rng.ml"
  else if rule.id = r_clock.id then not (under "lib/obs" path || under "bench" path)
  else if rule.id = r_mutable.id then not (under "lib/obs" path)
  else if rule.id = r_float_cmp.id then under_any float_kernels path
  else if rule.id = r_undoc.id then under_any documented_scope path
  else if is_typed rule then
    (* The typed rules apply to every analyzed compilation unit except
       the pool itself: its workers block on their own condition
       variable and write result slots by design — it IS the scheduler
       the rules protect. *)
    path <> "lib/prelude/pool.ml"
  else false

(* ------------------------------------------------------------------ *)
(* Allowlist *)

type allow_entry = { pattern : string; allowed_rule : string }
type allowlist = allow_entry list

let parse_allowlist ~source_name text =
  let lines = String.split_on_char '\n' text in
  let entries = ref [] in
  let error = ref None in
  List.iteri
    (fun i line ->
      if !error = None then begin
        let line =
          match String.index_opt line '#' with
          | Some j -> String.sub line 0 j
          | None -> line
        in
        match String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") with
        | [] -> ()
        | [ pattern; rule ] ->
            if rule <> "*" && find_rule rule = None then
              error :=
                Some (Printf.sprintf "%s:%d: unknown rule %S" source_name (i + 1) rule)
            else
              entries :=
                { pattern = normalize_path pattern; allowed_rule = rule } :: !entries
        | _ ->
            error :=
              Some
                (Printf.sprintf "%s:%d: expected `<path> <rule>`, got %S" source_name
                   (i + 1) line)
      end)
    lines;
  match !error with Some e -> Error e | None -> Ok (List.rev !entries)

let load_allowlist path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> parse_allowlist ~source_name:path text
  | exception Sys_error msg -> Error msg

let allowlisted allowlist ~file rule =
  List.exists
    (fun e ->
      (e.allowed_rule = "*" || e.allowed_rule = rule.id)
      && (e.pattern = file || under e.pattern file))
    allowlist

(* An allowlist entry whose path prefix matches nothing on disk is a
   stale exemption: the code it justified is gone, and keeping the line
   would let a future file under the same name inherit an unreviewed
   pass.  [exists] is the file-system probe (tests substitute their
   own), applied to the pattern as both a file and a directory. *)
let stale_entries ~exists allowlist =
  List.filter (fun e -> not (exists e.pattern)) allowlist

(* ------------------------------------------------------------------ *)
(* [@lint.allow] attributes *)

(* A [lint.allow] attribute carries a comma-separated list of rule ids
   in a string payload; no payload (or "*") means every rule. *)
let allows_of_attrs attrs =
  List.concat_map
    (fun a ->
      if a.attr_name.Location.txt <> "lint.allow" then []
      else begin
        match a.attr_payload with
        | PStr
            [
              {
                pstr_desc =
                  Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
                _;
              };
            ] ->
            String.split_on_char ',' s |> List.map String.trim |> List.filter (( <> ) "")
        | _ -> [ "*" ]
      end)
    attrs

(* ------------------------------------------------------------------ *)
(* Analysis context *)

type ctx = {
  file : string;
  only : rule -> bool;
  allowlist : allowlist;
  mutable findings : finding list;
  mutable allow_stack : string list list;
  mutable sorted_depth : int;
  mutable mutable_labels : string list;  (* record labels declared mutable in this file *)
}

let allowed ctx rule =
  List.exists (fun allows -> List.mem "*" allows || List.mem rule.id allows) ctx.allow_stack

let emit ctx rule (loc : Location.t) message =
  if
    ctx.only rule && in_scope rule ctx.file
    && (not (allowed ctx rule))
    && not (allowlisted ctx.allowlist ~file:ctx.file rule)
  then begin
    let pos = loc.Location.loc_start in
    ctx.findings <-
      {
        rule;
        file = ctx.file;
        line = pos.Lexing.pos_lnum;
        col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
        message;
      }
      :: ctx.findings
  end

(* ------------------------------------------------------------------ *)
(* Name helpers *)

let lid_name lid = String.concat "." (Longident.flatten lid)

let strip_stdlib n =
  if starts_with ~prefix:"Stdlib." n then String.sub n 7 (String.length n - 7) else n

let rec head_ident e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (lid_name txt)
  | Pexp_apply (f, _) -> head_ident f
  | _ -> None

let last_component n =
  match String.rindex_opt n '.' with
  | Some i -> String.sub n (i + 1) (String.length n - i - 1)
  | None -> n

(* R1 targets: iteration primitives that expose hash-bucket order. *)
let hashtbl_iteration n =
  match strip_stdlib n with
  | "Hashtbl.iter" | "Hashtbl.fold" | "Hashtbl.to_seq" | "Hashtbl.to_seq_keys"
  | "Hashtbl.to_seq_values" ->
      true
  | _ -> false

let rng_use n = starts_with ~prefix:"Random." (strip_stdlib n)

let wall_clock n =
  match strip_stdlib n with "Unix.gettimeofday" | "Sys.time" -> true | _ -> false

(* Sorting calls launder R1: a [Hashtbl.fold] that is (syntactically)
   an argument of a sort no longer leaks bucket order. *)
let sorting_name n =
  match last_component (strip_stdlib n) with
  | "sort" | "sort_uniq" | "stable_sort" | "fast_sort" -> true
  | _ -> false

let is_sorting_apply e =
  match e.pexp_desc with
  | Pexp_apply (f, args) -> (
      match head_ident f with
      | Some n when sorting_name n -> true
      | Some ("|>" | "Stdlib.|>") -> (
          (* x |> List.sort cmp: the left operand is the sorted data. *)
          match args with
          | [ _; (_, rhs) ] -> (
              match head_ident rhs with Some n -> sorting_name n | None -> false)
          | _ -> false)
      | Some ("@@" | "Stdlib.@@") -> (
          match args with
          | [ (_, lhs); _ ] -> (
              match head_ident lhs with Some n -> sorting_name n | None -> false)
          | _ -> false)
      | Some _ | None -> false)
  | _ -> false

(* R5: the polymorphic comparison operators worth flagging, with the
   float-aware replacement the message suggests. *)
let poly_compare_ops =
  [
    ("=", "Float.equal");
    ("<>", "Float.compare <> 0 (or not Float.equal)");
    ("compare", "Float.compare");
    ("min", "Float.min");
    ("max", "Float.max");
  ]

let float_op_heads =
  [
    "+."; "-."; "*."; "/."; "**"; "float_of_int"; "sqrt"; "exp"; "log"; "log10";
    "abs_float"; "ceil"; "floor";
  ]

(* Syntactically float-ish: a float literal, a float-typed constraint,
   or an application of float arithmetic / a [Float] function.  A
   deliberate under-approximation — no typing — so the rule never
   fires on ints. *)
let floatish e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_constraint (_, { ptyp_desc = Ptyp_constr ({ txt; _ }, []); _ }) ->
      lid_name txt = "float" || lid_name txt = "Float.t"
  | Pexp_apply (f, _) -> (
      match head_ident f with
      | Some n ->
          let n = strip_stdlib n in
          List.mem n float_op_heads || starts_with ~prefix:"Float." n
      | None -> false)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Expression rules (R1, R2, R3, R5) via Ast_iterator *)

let expression_iterator ctx =
  let super = Ast_iterator.default_iterator in
  let expr it e =
    let allows = allows_of_attrs e.pexp_attributes in
    if allows <> [] then ctx.allow_stack <- allows :: ctx.allow_stack;
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } ->
        let n = lid_name txt in
        if hashtbl_iteration n && ctx.sorted_depth = 0 then
          emit ctx r_nondet loc
            (Printf.sprintf
               "%s exposes hash-bucket order; sort the result (List.sort ...) or mark \
                the use [@lint.allow \"%s\"]"
               n r_nondet.id);
        if rng_use n then
          emit ctx r_rng loc
            (Printf.sprintf
               "%s bypasses the splittable Rng; thread a Tmedb_prelude.Rng.t instead" n);
        if wall_clock n then
          emit ctx r_clock loc
            (Printf.sprintf
               "%s reads the wall clock in result-affecting code; use lib/obs timers" n)
    | Pexp_apply (f, args) -> (
        match f.pexp_desc with
        | Pexp_ident { txt; loc } -> (
            let n = strip_stdlib (lid_name txt) in
            match List.assoc_opt n poly_compare_ops with
            | Some replacement when List.exists (fun (_, a) -> floatish a) args ->
                emit ctx r_float_cmp loc
                  (Printf.sprintf "polymorphic %s on float operands; use %s" n
                     replacement)
            | Some _ | None -> ())
        | _ -> ())
    | _ -> ());
    let bump = is_sorting_apply e in
    if bump then ctx.sorted_depth <- ctx.sorted_depth + 1;
    super.expr it e;
    if bump then ctx.sorted_depth <- ctx.sorted_depth - 1;
    if allows <> [] then ctx.allow_stack <- List.tl ctx.allow_stack
  in
  let value_binding it vb =
    let allows = allows_of_attrs vb.pvb_attributes in
    if allows <> [] then ctx.allow_stack <- allows :: ctx.allow_stack;
    super.value_binding it vb;
    if allows <> [] then ctx.allow_stack <- List.tl ctx.allow_stack
  in
  { super with expr; value_binding }

(* ------------------------------------------------------------------ *)
(* R4: module-level mutable state.  A separate explicit walk over the
   structure so that state created inside functions (fresh per call)
   is never flagged. *)

let mutable_makers =
  [
    "ref"; "Hashtbl.create"; "Array.make"; "Array.init"; "Array.create_float";
    "Bytes.create"; "Bytes.make"; "Buffer.create"; "Queue.create"; "Stack.create";
  ]

let rec peel_constraints e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> peel_constraints e
  | _ -> e

let collect_mutable_labels structure =
  let labels = ref [] in
  let rec item st =
    match st.pstr_desc with
    | Pstr_type (_, decls) ->
        List.iter
          (fun d ->
            match d.ptype_kind with
            | Ptype_record fields ->
                List.iter
                  (fun f ->
                    if f.pld_mutable = Asttypes.Mutable then
                      labels := f.pld_name.Location.txt :: !labels)
                  fields
            | _ -> ())
          decls
    | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } ->
        List.iter item s
    | _ -> ()
  in
  List.iter item structure;
  !labels

let check_toplevel_mutable ctx structure =
  let binding vb =
    let allows =
      allows_of_attrs vb.pvb_attributes @ allows_of_attrs vb.pvb_expr.pexp_attributes
    in
    if allows <> [] then ctx.allow_stack <- allows :: ctx.allow_stack;
    (match (peel_constraints vb.pvb_expr).pexp_desc with
    | Pexp_apply (f, _) -> (
        match head_ident f with
        | Some n when List.mem (strip_stdlib n) mutable_makers ->
            emit ctx r_mutable vb.pvb_loc
              (Printf.sprintf
                 "module-level %s is shared mutable state; allocate it inside the \
                  function that uses it, or move it to lib/obs"
                 (strip_stdlib n))
        | Some _ | None -> ())
    | Pexp_record (fields, _) ->
        let mutable_field =
          List.find_opt
            (fun ({ Location.txt; _ }, _) ->
              List.mem (last_component (lid_name txt)) ctx.mutable_labels)
            fields
        in
        Option.iter
          (fun ({ Location.txt; _ }, _) ->
            emit ctx r_mutable vb.pvb_loc
              (Printf.sprintf
                 "module-level record literal with mutable field %s is shared mutable \
                  state"
                 (last_component (lid_name txt))))
          mutable_field
    | _ -> ());
    if allows <> [] then ctx.allow_stack <- List.tl ctx.allow_stack
  in
  let rec item st =
    match st.pstr_desc with
    | Pstr_value (_, bindings) -> List.iter binding bindings
    | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } ->
        List.iter item s
    | Pstr_include { pincl_mod = { pmod_desc = Pmod_structure s; _ }; _ } ->
        List.iter item s
    | _ -> ()
  in
  List.iter item structure

(* ------------------------------------------------------------------ *)
(* R6: undocumented public vals, on the parsed signature.  The parser
   attaches both comment-above and comment-below odoc blocks to the
   val as an [ocaml.doc] attribute, so one attribute check covers both
   styles. *)

let has_doc attrs =
  List.exists
    (fun a ->
      match a.attr_name.Location.txt with "ocaml.doc" | "doc" -> true | _ -> false)
    attrs

let rec check_signature ctx items =
  List.iter
    (fun item ->
      match item.psig_desc with
      | Psig_value vd ->
          let allows = allows_of_attrs vd.pval_attributes in
          if allows <> [] then ctx.allow_stack <- allows :: ctx.allow_stack;
          if not (has_doc vd.pval_attributes) then
            emit ctx r_undoc vd.pval_loc
              (Printf.sprintf "val %s lacks a doc comment ((** ... *))"
                 vd.pval_name.Location.txt);
          if allows <> [] then ctx.allow_stack <- List.tl ctx.allow_stack
      | Psig_module { pmd_type = { pmty_desc = Pmty_signature s; _ }; _ } ->
          check_signature ctx s
      | Psig_recmodule decls ->
          List.iter
            (fun d ->
              match d.pmd_type.pmty_desc with
              | Pmty_signature s -> check_signature ctx s
              | _ -> ())
            decls
      | Psig_attribute a ->
          (* [@@@lint.allow "..."] applies to the rest of the file. *)
          let allows = allows_of_attrs [ a ] in
          if allows <> [] then ctx.allow_stack <- allows :: ctx.allow_stack
      | _ -> ())
    items

(* ------------------------------------------------------------------ *)
(* Driver *)

let compare_findings (a : finding) (b : finding) =
  match compare (a.file, a.line, a.col) (b.file, b.line, b.col) with
  | 0 -> String.compare a.rule.id b.rule.id
  | c -> c

let file_level_allows structure =
  List.concat_map
    (fun st ->
      match st.pstr_desc with
      | Pstr_attribute a -> allows_of_attrs [ a ]
      | _ -> [])
    structure

let describe_parse_error exn =
  match Location.error_of_exn exn with
  | Some (`Ok err) -> Format.asprintf "%a" Location.print_report err
  | Some `Already_displayed | None -> Printexc.to_string exn

let analyze_source ?(only = []) ?(allowlist = []) ~path source =
  let file = normalize_path path in
  let only_rule r = only = [] || List.mem r.id only in
  let ctx =
    {
      file;
      only = only_rule;
      allowlist;
      findings = [];
      allow_stack = [];
      sorted_depth = 0;
      mutable_labels = [];
    }
  in
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  match
    if Filename.check_suffix file ".mli" then
      check_signature ctx (Parse.interface lexbuf)
    else begin
      let structure = Parse.implementation lexbuf in
      (match file_level_allows structure with
      | [] -> ()
      | allows -> ctx.allow_stack <- allows :: ctx.allow_stack);
      ctx.mutable_labels <- collect_mutable_labels structure;
      check_toplevel_mutable ctx structure;
      let it = expression_iterator ctx in
      it.Ast_iterator.structure it structure
    end
  with
  | () -> Ok (List.sort compare_findings ctx.findings)
  | exception exn -> Error (describe_parse_error exn)

let analyze_file ?only ?allowlist path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | source -> analyze_source ?only ?allowlist ~path source
  | exception Sys_error msg -> Error msg

let collect_files paths =
  let acc = ref [] in
  let error = ref None in
  let keep path =
    Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
  in
  let rec walk path =
    if !error = None then begin
      if Sys.is_directory path then
        Array.iter
          (fun entry ->
            if entry <> "_build" && not (starts_with ~prefix:"." entry) then
              walk (Filename.concat path entry))
          (Sys.readdir path)
      else if keep path then acc := normalize_path path :: !acc
    end
  in
  List.iter
    (fun path ->
      if !error = None then
        if Sys.file_exists path then walk path
        else error := Some (Printf.sprintf "%s: no such file or directory" path))
    paths;
  match !error with
  | Some e -> Error e
  | None -> Ok (List.sort_uniq String.compare !acc)

(* ------------------------------------------------------------------ *)
(* Reporters *)

let report_text ppf findings =
  List.iter
    (fun (f : finding) ->
      Format.fprintf ppf "%s:%d:%d: [%s/%s] %s@." f.file f.line f.col f.rule.code
        f.rule.id f.message)
    findings

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let report_json ppf findings =
  Format.fprintf ppf "{\"findings\": [";
  List.iteri
    (fun i (f : finding) ->
      Format.fprintf ppf "%s{\"file\": \"%s\", \"line\": %d, \"col\": %d, "
        (if i = 0 then "" else ", ")
        (json_escape f.file) f.line f.col;
      Format.fprintf ppf "\"rule\": \"%s\", \"code\": \"%s\", \"message\": \"%s\"}"
        (json_escape f.rule.id) (json_escape f.rule.code) (json_escape f.message))
    findings;
  Format.fprintf ppf "], \"count\": %d}@." (List.length findings)

(* SARIF 2.1.0, the minimal subset CI annotators consume: one run, the
   full rule catalogue in the driver (so ruleIndex resolves even for
   rules with zero results), one result per finding.  Columns are
   1-based in SARIF where the text reporter is 0-based. *)
let report_sarif ppf findings =
  let rule_index r =
    let rec find i = function
      | [] -> -1
      | x :: tl -> if x.id = r.id then i else find (i + 1) tl
    in
    find 0 rules
  in
  Format.fprintf ppf
    "{\"$schema\": \
     \"https://json.schemastore.org/sarif-2.1.0.json\", \
     \"version\": \"2.1.0\", \"runs\": [{\"tool\": {\"driver\": \
     {\"name\": \"tmedb-lint\", \"rules\": [";
  List.iteri
    (fun i r ->
      Format.fprintf ppf
        "%s{\"id\": \"%s\", \"name\": \"%s\", \"shortDescription\": {\"text\": \
         \"%s\"}}"
        (if i = 0 then "" else ", ")
        (json_escape r.code) (json_escape r.id) (json_escape r.summary))
    rules;
  Format.fprintf ppf "]}}, \"results\": [";
  List.iteri
    (fun i (f : finding) ->
      Format.fprintf ppf
        "%s{\"ruleId\": \"%s\", \"ruleIndex\": %d, \"level\": \"error\", \
         \"message\": {\"text\": \"%s\"}, \"locations\": [{\"physicalLocation\": \
         {\"artifactLocation\": {\"uri\": \"%s\"}, \"region\": {\"startLine\": %d, \
         \"startColumn\": %d}}}]}"
        (if i = 0 then "" else ", ")
        (json_escape f.rule.code) (rule_index f.rule) (json_escape f.message)
        (json_escape f.file) f.line (f.col + 1))
    findings;
  Format.fprintf ppf "]}]}@."
