(** Contact traces: an ordered collection of contacts over a node set,
    with CSV round-tripping and the descriptive statistics used to
    validate synthetic traces against the Haggle measurements. *)

open Tmedb_prelude

type t

val make : n:int -> span:Interval.t -> Contact.t list -> t
(** @raise Invalid_argument if a contact references a node >= n or
    lies outside the span. *)

val n : t -> int
val span : t -> Interval.t
val contacts : t -> Contact.t list
(** Sorted by start time. *)

val num_contacts : t -> int
val restrict : t -> span:Interval.t -> t
(** Contacts clipped to the window (partially overlapping contacts are
    truncated; fully outside dropped). *)

(** {1 CSV}

    One contact per line: [a,b,t_start,t_end,dist] with floats in
    decimal notation; lines starting with ['#'] are comments.  The
    header comment [# tmedb-trace n=N span=LO,HI] carries [n] and the
    span; a line starting with [# tmedb-trace] that does not parse as
    one is an error, not a comment. *)

val to_csv : t -> string
val of_csv : string -> (t, string) result
(** Parse the format above.  Lines are trimmed and blank ones skipped.
    A data line [a,b,t_start,t_end,dist] needs two distinct
    non-negative node ids, finite [t_start < t_end] and a positive
    finite distance.  At most one header may appear, anywhere, with
    nothing after [HI]; it needs [N > 0] and finite [LO < HI], and
    then every contact must have both nodes below [N] and lie inside
    [\[LO, HI)].  Without a header, n is one more than the largest
    node id and the span is the hull of the contacts ([\[0, 1)] when
    there are none).  Any other line starting with ['#'] is a comment.
    An [Error] names the offending line as ["line K: ..."]. *)

val save : t -> path:string -> unit
val load : path:string -> (t, string) result

(** {1 Statistics} *)

type stats = {
  num_contacts : int;
  mean_duration : float;
  median_duration : float;
  mean_inter_contact : float;  (** Over per-pair gaps between contacts. *)
  median_inter_contact : float;
  contacts_per_pair : float;
  pairs_with_contact : int;
  mean_degree : float;
      (** Time-averaged over the span: (2 Σ_{a<b} |presence_ab|) /
          (n |span|), each pair's presence the union of its contacts. *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
val pp : Format.formatter -> t -> unit
