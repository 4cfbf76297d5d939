(** Catalogue of every reproduced figure and extension experiment:
    the CLI and the benchmark iterate over this list. *)

type entry = {
  id : string;
  description : string;
  paper_ref : string;  (** figure/section in the paper, or "extension" *)
  run : quick:bool -> Report.t;
      (** [quick:true] trades trial counts for runtime (used by the
          tests); [quick:false] runs publication-grade replication. *)
}

val all : entry list
(** In presentation order: fig3, fig4, fig6, fig7, fig8, fig9, then
    the extensions. *)

val find : string -> entry option

val ids : string list
