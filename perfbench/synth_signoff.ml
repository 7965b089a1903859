(* synth-signoff: the Fig. 5 / Fig. 6a-b flow.  For seeded (design, corner)
   pairs, runs both syntheses ([Aging_synthesis.run]) and then the four
   guardband estimates on the traditional netlist: static (full and
   Vth-only), single-OPC and initial-critical-path-only.  The libraries are
   built during set-up (coarse 3x3 axes, so set-up fits a run), so STA and
   synthesis do the work and spice does none. *)

open Common
module Deglib = Aging_core.Degradation_library
module Guardband = Aging_core.Guardband
module Synthesis = Aging_core.Aging_synthesis
module Scenario = Aging_physics.Scenario
module Degradation = Aging_physics.Degradation
module Event_sim = Aging_sim.Event_sim
module Netlist = Aging_netlist.Netlist

let reference_file = "perfbench/ref/synth_signoff.json"

(* STA is deterministic; this only absorbs printing of the reference. *)
let tolerance = 1e-6

let create_deglib dir = Deglib.create ~axes:Aging_liberty.Axes.coarse ~cache_dir:dir ~jobs ()

let netlist_of name =
  match Aging_designs.Designs.by_name name with
  | Some nl -> nl
  | None -> invalid_arg ("unknown design " ^ name)

type state = {
  deglib : Deglib.t;
  pairs : (string * Netlist.t * Scenario.corner) list;
  reference : Json.t Lazy.t;
}

let warm_corner deglib corner =
  ignore (Deglib.corner deglib corner);
  ignore (Deglib.corner ~mode:Degradation.Vth_only deglib corner);
  ignore (Deglib.single_opc deglib corner)

let setup ctx =
  let deglib = create_deglib (fresh_dir ctx) in
  in_layer "deglib" "warm" (fun () ->
      ignore (Deglib.fresh deglib);
      List.iter (warm_corner deglib)
        (List.sort_uniq compare (List.map snd (Inputs.synth_pairs ctx.seed))));
  {
    deglib;
    pairs = List.map (fun (d, c) -> (d, netlist_of d, c)) (Inputs.synth_pairs ctx.seed);
    reference = lazy (Json.of_string (read_file reference_file));
  }

(* The four estimates, in reference order, as guardbands [s]. *)
let estimates deglib corner nl =
  let gb (e : Guardband.estimate) = e.Guardband.guardband in
  [
    gb (in_layer "guardband" "static" (fun () -> Guardband.static ~deglib ~corner nl));
    gb
      (in_layer "guardband" "static" (fun () ->
           Guardband.static ~mode:Degradation.Vth_only ~deglib ~corner nl));
    gb (in_layer "guardband" "single_opc" (fun () -> Guardband.single_opc ~deglib ~corner nl));
    gb
      (in_layer "guardband" "initial_cp_only" (fun () ->
           Guardband.initial_cp_only ~deglib ~corner nl));
  ]

type flow = {
  design : string;
  rtl : Netlist.t;
  corner : Scenario.corner;
  cmp : Synthesis.comparison;
  gbs : float list;
}

let sorted_outputs outs = List.sort compare outs

let equivalent seed rtl nl =
  let stimulus = Inputs.functional_stimulus seed rtl in
  let cycles = Inputs.functional_cycles in
  let a = Event_sim.run_functional rtl ~cycles ~stimulus in
  let b = Event_sim.run_functional nl ~cycles ~stimulus in
  Array.for_all2 (fun x y -> sorted_outputs x = sorted_outputs y) a b

let check ctx reference f =
  let where = Printf.sprintf "%s@%s" f.design (Scenario.suffix f.corner) in
  let expected =
    match Json.member (Scenario.suffix f.corner) (member_exn f.design reference) with
    | Some (Json.List l) -> List.map json_float l
    | _ -> []
  in
  let got = f.gbs @ [ f.cmp.Synthesis.trad_fresh_period ] in
  List.filter_map Fun.id
    [
      (if equivalent ctx.seed f.rtl f.cmp.Synthesis.traditional then None
       else Some (where ^ ": traditional netlist differs from the RTL"));
      (if equivalent ctx.seed f.rtl f.cmp.Synthesis.aware then None
       else Some (where ^ ": aware netlist differs from the RTL"));
      (if List.length expected = List.length got
          && List.for_all2 (close ~rel:tolerance) expected got
       then None
       else Some (where ^ ": guardbands differ from the reference"));
      (if f.cmp.Synthesis.aware_aged_period <= f.cmp.Synthesis.trad_aged_period *. (1. +. 1e-12)
       then None
       else Some (where ^ ": aware design ages worse than the traditional one"));
    ]

let pass ctx st budget ~traced:_ ~mark =
  let analyses = ref 0. in
  let t0 = now () in
  let flow (design, rtl, corner) =
    let (cmp, gbs), dt =
      timed (fun () ->
          let before = counter "sta.analyses" in
          let cmp =
            in_layer "synth" "run" (fun () -> Synthesis.run ~corner ~deglib:st.deglib rtl)
          in
          analyses := !analyses +. (counter "sta.analyses" -. before);
          (cmp, estimates st.deglib corner cmp.Synthesis.traditional))
    in
    ({ design; rtl; corner; cmp; gbs }, dt)
  in
  (* Whole rounds over the design list, so every run's mix is the same. *)
  let rec rounds acc =
    if continue_ budget ~units:(List.length acc) ~elapsed:(now () -. t0) then
      rounds (List.rev_append (List.map flow st.pairs) acc)
    else List.rev acc
  in
  let flows = rounds [] in
  let wall = now () -. t0 in
  mark ();
  let reference = Lazy.force st.reference in
  let per_flow = List.map (fun (f, _) -> check ctx reference f) flows in
  let units = List.length flows in
  {
    Workload.units;
    wall;
    attempted = units;
    failed = List.length (List.filter (( <> ) []) per_flow);
    failures = List.concat per_flow;
    throughput = ratio (float_of_int units) wall;
    latencies_ms = List.map (fun (_, dt) -> dt *. 1e3) flows;
    notes = [ metric "flows_per_s" "1/s" (ratio (float_of_int units) wall) ];
    extras = { Layers.no_extras with flows = units; synth_analyses = !analyses };
  }

(* Captures the reference: for every design and grid corner, the four
   guardbands of the traditional netlist and its fresh period.  The
   traditional netlist does not depend on the corner. *)
let make_reference dir =
  let deglib = create_deglib dir in
  let designs =
    List.map
      (fun design ->
        let rtl = netlist_of design in
        let cmp = Synthesis.run ~deglib rtl in
        Printf.eprintf "reference design %s\n%!" design;
        ( design,
          Json.Obj
            (List.map
               (fun corner ->
                 warm_corner deglib corner;
                 ( Scenario.suffix corner,
                   Json.List
                     (List.map
                        (fun v -> Json.Float v)
                        (estimates deglib corner cmp.Synthesis.traditional
                        @ [ cmp.Synthesis.trad_fresh_period ])) ))
               Inputs.grid) ))
      Inputs.synth_designs
  in
  Json.Obj
    (("about",
      Json.String
        "per design and corner: static full, static Vth-only, single-OPC and \
         initial-CP-only guardbands [s] of the traditional netlist, then its fresh period [s]; coarse axes")
    :: ("tolerance_rel", Json.Float tolerance)
    :: designs)
