module Json = Aging_obs.Json
module Library = Aging_liberty.Library
module Deglib = Aging_core.Degradation_library
module Guardband = Aging_core.Guardband
module Designs = Aging_designs.Designs

type t = {
  deglib : Deglib.t;
  designs : (string * Aging_netlist.Netlist.t) list Lazy.t;
      (* netlist builders are cheap but not free; built once, on first use *)
  designs_lock : Mutex.t;
      (* Serializes the first force of [designs]: worker domains handle
         requests concurrently, and a lazy forced by two domains at once
         raises [CamlinternalLazy.Undefined] in one of them. *)
}

let create ?backend ?cells ?axes ?years ?cache_dir ?jobs ?memo_cap () =
  let deglib =
    Deglib.create ?backend ?cells ?axes ?years ?cache_dir ?jobs ?memo_cap ()
  in
  { deglib; designs = lazy (Designs.all ()); designs_lock = Mutex.create () }

let deglib t = t.deglib

let designs t = Mutex.protect t.designs_lock (fun () -> Lazy.force t.designs)

let find_design t name = List.assoc_opt name (designs t)

let guardband_json (e : Guardband.estimate) =
  Json.Obj
    [
      ("fresh_period_s", Json.of_float e.fresh_period);
      ("aged_period_s", Json.of_float e.aged_period);
      ("guardband_s", Json.of_float e.guardband);
    ]

(* Worst delay/slew of one arc at a given operating condition. *)
let arc_json arc ~slew ~load =
  let delay dir = Library.delay_of arc ~dir ~slew ~load in
  let out_slew dir = Library.out_slew_of arc ~dir ~slew ~load in
  Json.Obj
    [
      ("from_pin", Json.String arc.Library.from_pin);
      ("to_pin", Json.String arc.Library.to_pin);
      ("delay_rise_s", Json.of_float (delay Library.Rise));
      ("delay_fall_s", Json.of_float (delay Library.Fall));
      ("slew_rise_s", Json.of_float (out_slew Library.Rise));
      ("slew_fall_s", Json.of_float (out_slew Library.Fall));
    ]

let handle t (req : Protocol.request) =
  match req with
  | Protocol.Ping -> Ok (Json.Obj [ ("pong", Json.Bool true) ])
  | Protocol.Stats -> Ok (Aging_obs.Metrics.to_json ())
  | Protocol.Health ->
    (* Served inline by the server (which owns the watchdog state); a
       handler without a server has no verdict to offer beyond "up". *)
    Ok
      (Json.Obj
         [ ("status", Json.String "ok"); ("reasons", Json.List []) ])
  | Protocol.Shutdown ->
    (* Admission control: the server answers shutdown inline and drains;
       reaching the handler means a client sent it to a non-draining path. *)
    Ok (Json.Obj [ ("draining", Json.Bool true) ])
  | Protocol.Dump_flight ->
    (* Also served inline by the server; answered here too so the handler
       stays total (and usable without a server, e.g. in tests). *)
    Ok (Server.flight_json ())
  | Protocol.Sleep s ->
    Unix.sleepf s;
    Ok (Json.Obj [ ("slept_s", Json.of_float s) ])
  | Protocol.Crash -> raise Chaos.Chaos_kill
  | Protocol.Guardband { design; corner } -> begin
    match find_design t design with
    | None ->
      Error
        ( Protocol.Bad_request,
          Printf.sprintf "unknown design %S (designs: %s)" design
            (String.concat ", " (List.map fst (designs t))) )
    | Some netlist ->
      let estimate = Guardband.static ~deglib:t.deglib ~corner netlist in
      Ok
        (Json.Obj
           [
             ("design", Json.String design);
             ("corner", Json.String (Aging_physics.Scenario.suffix corner));
             ("estimate", guardband_json estimate);
           ])
  end
  | Protocol.Delay { cell; corner; slew; load } -> begin
    let lib = Deglib.corner t.deglib corner in
    match Library.find lib cell with
    | None -> Error (Protocol.Bad_request, Printf.sprintf "unknown cell %S" cell)
    | Some entry ->
      let axes = Deglib.axes t.deglib in
      (* Default OPC: the middle of the characterized grid. *)
      let mid a = a.(Array.length a / 2) in
      let slew = Option.value slew ~default:(mid axes.Aging_liberty.Axes.slews) in
      let load = Option.value load ~default:(mid axes.Aging_liberty.Axes.loads) in
      if entry.Library.arcs = [] then
        Error (Protocol.Bad_request, Printf.sprintf "cell %S has no timing arcs" cell)
      else
        Ok
          (Json.Obj
             [
               ("cell", Json.String cell);
               ("corner", Json.String (Aging_physics.Scenario.suffix corner));
               ("slew_s", Json.of_float slew);
               ("load_f", Json.of_float load);
               ( "arcs",
                 Json.List
                   (List.map (fun arc -> arc_json arc ~slew ~load) entry.Library.arcs)
               );
             ])
  end
