(** Static analysis for the tmedb tree.

    [tmedb-lint] parses every [.ml]/[.mli] with [compiler-libs] and
    enforces the project invariants that the determinism and telemetry
    work (PR 1 / PR 2) otherwise only sample at runtime:

    - {b R1 nondet-iteration}: [Hashtbl.iter]/[Hashtbl.fold]/
      [Hashtbl.to_seq*] whose result is not re-sorted, in the
      result-affecting libraries ([lib/core], [lib/steiner],
      [lib/tveg], [lib/trace]).  Hash-bucket order is not
      part of any contract; iterating it unsorted makes figures depend
      on insertion history.
    - {b R2 hidden-rng}: any use of [Stdlib.Random] outside
      [lib/prelude/rng.ml].  All randomness must flow through the
      splittable [Rng] so [--jobs] stays bit-identical.
    - {b R3 wall-clock}: [Unix.gettimeofday]/[Sys.time] outside
      [lib/obs] and [bench/].  Kernels must not read the clock.
    - {b R4 toplevel-mutable-state}: module-level [ref]/
      [Hashtbl.create]/mutable-record literals outside [lib/obs];
      such state races under the PR-1 domain pool.
    - {b R5 float-polymorphic-compare}: polymorphic [=]/[<>]/
      [compare]/[min]/[max] applied to syntactically float-ish
      operands in the numeric kernels; use [Float.equal],
      [Float.compare] etc.
    - {b R6 undocumented-val}: a public [val] in [lib/core],
      [lib/obs] or [lib/report] without an odoc comment, checked on
      the real parsed signature.

    This module is phase 1.  The interprocedural phase-2 rules (R7
    [pool-task-purity], R8 [rng-taint], R9 [blocking-in-task]) run over
    the [.cmt] typed trees via [Lint_engine] / [Lint_callgraph] /
    [Lint_effects] / [Lint_rules_typed]; see [docs/ANALYSIS.md].

    Suppression is explicit and auditable: attach
    [[@lint.allow "rule"]] to an expression, value binding or
    signature item (several rule names may be comma-separated; a bare
    [[@lint.allow]] or ["*"] allows every rule), write
    [[@@@lint.allow "rule"]] once for a whole file, or add a
    [lint.allowlist] line for whole-file/whole-directory exemptions. *)

type rule = {
  id : string;  (** stable rule name, e.g. ["nondet-iteration"] *)
  code : string;  (** short code used in reports, e.g. ["R1"] *)
  summary : string;  (** one-line description *)
}
(** A named invariant the analyzer enforces. *)

val rules : rule list
(** All rules, in R1..R9 order.  R1–R6 are the phase-1 parsetree rules
    enforced by {!analyze_source}; R7–R9 are the phase-2 interprocedural
    rules enforced by [Lint_rules_typed] on the [.cmt] typed trees. *)

val typed_rules : rule list
(** The phase-2 rules (R7 pool-task-purity, R8 rng-taint, R9
    blocking-in-task), in order. *)

val is_typed : rule -> bool
(** [is_typed r] is true when [r] is a phase-2 rule. *)

val find_rule : string -> rule option
(** [find_rule id] looks a rule up by its stable name. *)

val normalize_path : string -> string
(** Slash-normalized, [./]-stripped repo-relative path, the form every
    scope test and allowlist pattern is matched against. *)

val in_scope : rule -> string -> bool
(** [in_scope rule path] tells whether [rule] applies to the file at
    (normalized) [path] — the rule table in the module doc. *)

val allows_of_attrs : Parsetree.attributes -> string list
(** Rule ids allowed by any [[@lint.allow "r1, r2"]] attributes in the
    list (["*"] for a bare [[@lint.allow]]); [[]] when none.  Shared
    with the typed phase: [Typedtree] attributes are [Parsetree]
    attributes. *)

type finding = {
  rule : rule;  (** the rule that fired *)
  file : string;  (** repo-relative path *)
  line : int;  (** 1-based line *)
  col : int;  (** 0-based column, matching compiler diagnostics *)
  message : string;  (** what was found and how to fix or suppress it *)
}
(** One unsuppressed rule violation. *)

type allow_entry = {
  pattern : string;
      (** exact repo-relative file path, or a directory prefix that
          exempts everything beneath it *)
  allowed_rule : string;  (** a rule id, or ["*"] for every rule *)
}
(** One parsed [lint.allowlist] line. *)

type allowlist = allow_entry list
(** Whole-file exemptions, usually parsed from [lint.allowlist]. *)

val parse_allowlist : source_name:string -> string -> (allowlist, string) result
(** [parse_allowlist ~source_name text] parses allowlist syntax: one
    [<path> <rule>] pair per line, [#] comments and blank lines
    ignored.  Unknown rule names and malformed lines are errors
    (reported with [source_name] and the line number) so stale entries
    cannot linger unnoticed. *)

val load_allowlist : string -> (allowlist, string) result
(** [load_allowlist path] reads and parses the file at [path]. *)

val allowlisted : allowlist -> file:string -> rule -> bool
(** [allowlisted allowlist ~file rule] tells whether an entry exempts
    [file] (exact path or directory prefix) from [rule]. *)

val stale_entries : exists:(string -> bool) -> allowlist -> allow_entry list
(** [stale_entries ~exists allowlist] returns the entries whose
    [pattern] matches nothing on disk ([exists] is the probe, normally
    [Sys.file_exists]).  Stale exemptions are hard errors in the CLI:
    the code they justified is gone, and a future file under the same
    path would inherit an unreviewed pass. *)

val analyze_source :
  ?only:string list ->
  ?allowlist:allowlist ->
  path:string ->
  string ->
  (finding list, string) result
(** [analyze_source ~path source] parses [source] ([Parse.interface]
    when [path] ends in [.mli], [Parse.implementation] otherwise) and
    returns the unsuppressed findings, sorted by position.  [path]
    also decides which rules are in scope (see the rule table above),
    so test fixtures pick their scope by choosing a virtual path.
    [?only] restricts the run to the given rule ids; [?allowlist]
    applies whole-file exemptions.  Syntax errors are [Error]. *)

val analyze_file :
  ?only:string list ->
  ?allowlist:allowlist ->
  string ->
  (finding list, string) result
(** [analyze_file path] reads [path] and runs {!analyze_source}. *)

val collect_files : string list -> (string list, string) result
(** [collect_files paths] expands each path: a file is kept when it
    ends in [.ml]/[.mli]; a directory is walked recursively, skipping
    [_build] and dot-directories.  The result is sorted so every run
    visits files in the same order.  A non-existent path is an
    [Error]. *)

val report_text : Format.formatter -> finding list -> unit
(** [report_text ppf findings] prints one [file:line:col: [code/id]
    message] line per finding. *)

val report_json : Format.formatter -> finding list -> unit
(** [report_json ppf findings] prints a machine-readable report:
    [{"findings": [...], "count": N}]. *)

val report_sarif : Format.formatter -> finding list -> unit
(** [report_sarif ppf findings] prints a SARIF 2.1.0 document (single
    run, full rule catalogue, one result per finding) so CI can attach
    findings as PR annotations. *)
