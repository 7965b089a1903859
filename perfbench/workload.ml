(* What a workload's measured pass reports back to main.ml. *)

type pass = {
  units : int;  (** work units completed (corners, flows, images, requests) *)
  wall : float;  (** seconds the measured pass took, checks excluded *)
  attempted : int;
  failed : int;  (** attempted units that raised, were refused or failed a check *)
  failures : string list;  (** one line per failure, for stderr *)
  throughput : float;  (** the workload's end-to-end rate, per second *)
  latencies_ms : float list;  (** per-unit (or per-request) latencies *)
  notes : Common.metric list;  (** further named end-to-end numbers, printed *)
  extras : Layers.extras;
}

module type S = sig
  type state

  val setup : Common.ctx -> state
  (** Everything before the first measured unit: build the workload's
      libraries into a fresh private cache and warm whatever it serves from. *)

  val pass :
    Common.ctx -> state -> Common.budget -> traced:bool -> mark:(unit -> unit) -> pass
  (** One measured pass, then its output checks.  [mark] is called the
      moment measurement ends, before the checks run; [traced] passes may
      add probes after the mark. *)
end
