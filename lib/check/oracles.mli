(** The differential oracles: independent implementations pitted against
    each other on random inputs.

    Each oracle is a named property over a generated input domain, run
    through {!Runner} with replayable per-case seeds.  The six core
    oracles mirror the paper's cross-layer consistency claim (spice vs.
    alpha-power, event simulation vs. STA, NLDM interpolation, Liberty
    serialization, parallel determinism, guardband monotonicity), plus
    oracles over the SDF writer/parser, the synthesis flow, the Jacobian
    stamps, surrogate characterization and the flat event-simulation kernel
    (against {!Event_sim_ref}). *)

type t = {
  name : string;
  doc : string;
  run : seed:int64 -> cases:int -> jobs:int -> Runner.outcome;
}

val all : unit -> t list
(** Stable order; the six ISSUE oracles first. *)

val find : string -> t option
