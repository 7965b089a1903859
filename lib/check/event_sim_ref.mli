(** Reference event-driven gate-level simulator: the list-based
    implementation that {!Aging_sim.Event_sim}'s flat kernel replaced, kept
    unchanged as the slow path the [event-sim-diff] oracle compares that
    kernel against.  Same contract as {!Aging_sim.Event_sim}: gate logic
    through the cells' [bool list] closures, a per-run zero-delay
    reference from {!Aging_netlist.Netlist.compile}, and the full STA
    analysis retained.  Not for production use. *)

type t

val prepare :
  ?config:Aging_sta.Timing.config ->
  library:Aging_liberty.Library.t ->
  Aging_netlist.Netlist.t ->
  t

val min_period : t -> float

val run :
  t ->
  period:float ->
  cycles:int ->
  stimulus:(int -> (string * bool) list) ->
  Aging_sim.Event_sim.trace
(** Same trace as {!Aging_sim.Event_sim.run} for the same design, library,
    period and stimulus. *)
