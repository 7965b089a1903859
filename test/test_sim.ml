module N = Aging_netlist.Netlist
module Event_sim = Aging_sim.Event_sim
module Activity = Aging_sim.Activity
module Scenario = Aging_physics.Scenario
module Designs = Aging_designs.Designs
module Rng = Aging_util.Rng
module Cell = Aging_cells.Cell
module Catalog = Aging_cells.Catalog
module Truth_table = Aging_sim.Truth_table
module Event_sim_ref = Aging_check.Event_sim_ref
module Metrics = Aging_obs.Metrics

let fresh () = Lazy.force Fixtures.fresh_library

let random_stimulus design seed =
  let rng = Rng.create seed in
  let vectors =
    Array.init 64 (fun _ ->
        List.map (fun (p, _) -> (p, Rng.bool rng)) design.N.input_ports)
  in
  fun n -> vectors.(n mod 64)

let test_event_sim_matches_reference_at_slow_clock () =
  List.iter
    (fun design ->
      let sim = Event_sim.prepare ~library:(fresh ()) design in
      let stimulus = random_stimulus design 5L in
      let period = 3. *. Event_sim.min_period sim in
      let trace = Event_sim.run sim ~period ~cycles:48 ~stimulus in
      let reference = Event_sim.run_functional design ~cycles:48 ~stimulus in
      Alcotest.(check int) "no timing errors" 0 trace.Event_sim.timing_errors;
      Array.iteri
        (fun i outs ->
          if List.sort compare outs <> List.sort compare reference.(i) then
            Alcotest.failf "%s: outputs diverge at cycle %d"
              design.N.design_name i)
        trace.Event_sim.outputs)
    [ Designs.counter ~bits:6; Designs.dsp () ]

let test_event_sim_errors_at_fast_clock () =
  let design = Designs.dsp () in
  let sim = Event_sim.prepare ~library:(fresh ()) design in
  let stimulus = random_stimulus design 7L in
  let trace =
    Event_sim.run sim ~period:(0.3 *. Event_sim.min_period sim) ~cycles:60
      ~stimulus
  in
  Alcotest.(check bool) "timing errors appear" true (trace.Event_sim.timing_errors > 0)

let test_event_sim_error_monotonicity () =
  let design = Designs.dsp () in
  let sim = Event_sim.prepare ~library:(fresh ()) design in
  let stimulus = random_stimulus design 9L in
  let errors frac =
    (Event_sim.run sim
       ~period:(frac *. Event_sim.min_period sim)
       ~cycles:60 ~stimulus).Event_sim.timing_errors
  in
  Alcotest.(check bool) "fewer errors at slower clock" true (errors 0.9 <= errors 0.35)

let test_event_sim_validation () =
  let design = Designs.counter ~bits:2 in
  let sim = Event_sim.prepare ~library:(fresh ()) design in
  Alcotest.check_raises "period" (Invalid_argument "Event_sim.run: period <= 0")
    (fun () ->
      ignore (Event_sim.run sim ~period:0. ~cycles:1 ~stimulus:(fun _ -> [ ("en", true) ])))

(* The flat kernel against the list-based simulator it replaced, on a
   real design, both libraries, from deep violation to a relaxed clock. *)
let test_event_sim_matches_list_reference () =
  let design = Designs.dsp () in
  let stimulus = random_stimulus design 11L in
  List.iter
    (fun (name, library) ->
      let sim = Event_sim.prepare ~library design in
      let reference = Event_sim_ref.prepare ~library design in
      List.iter
        (fun frac ->
          let period = frac *. Event_sim.min_period sim in
          let got = Event_sim.run sim ~period ~cycles:40 ~stimulus in
          let want = Event_sim_ref.run reference ~period ~cycles:40 ~stimulus in
          let what = Printf.sprintf "%s library at %.2f x STA" name frac in
          Alcotest.(check int) (what ^ ": timing errors")
            want.Event_sim.timing_errors got.Event_sim.timing_errors;
          Alcotest.(check bool) (what ^ ": outputs") true
            (want.Event_sim.outputs = got.Event_sim.outputs))
        [ 0.25; 0.5; 0.8; 1.0; 1.4 ])
    [
      ("fresh", fresh ());
      ("aged", Lazy.force Fixtures.aged_library);
    ]

(* Error texts and their order are those of the list-based simulator. *)
let test_event_sim_error_order () =
  let design = Designs.counter ~bits:2 in
  let sim = Event_sim.prepare ~library:(fresh ()) design in
  let reference = Event_sim_ref.prepare ~library:(fresh ()) design in
  let good = [ ("en", true) ] in
  let at n bad = fun cycle -> if cycle = n then bad else good in
  let raised f =
    match f () with
    | (_ : Event_sim.trace) -> "no exception"
    | exception e -> Printexc.to_string e
  in
  List.iter
    (fun (what, expected, period, cycles, stimulus) ->
      let got = raised (fun () -> Event_sim.run sim ~period ~cycles ~stimulus) in
      Alcotest.(check string) what expected got;
      Alcotest.(check string) (what ^ " (reference)") expected
        (raised (fun () -> Event_sim_ref.run reference ~period ~cycles ~stimulus)))
    [
      ( "unknown input", "Failure(\"Event_sim.run: unknown input bogus\")", 1e-9, 3,
        at 1 (("bogus", true) :: good) );
      ("missing input", "Failure(\"Netlist.eval: missing input en\")", 1e-9, 3, at 2 []);
      ( "unknown before missing", "Failure(\"Event_sim.run: unknown input bogus\")",
        1e-9, 3, at 1 [ ("bogus", true) ] );
      ( "cycle 0 settles first", "Failure(\"Netlist.eval: missing input en\")", 1e-9, 3,
        at 0 [ ("bogus", true) ] );
      ( "settle even without cycles", "Failure(\"Netlist.eval: missing input en\")", 1e-9,
        0, at 0 [] );
      ( "period checked first", "Invalid_argument(\"Event_sim.run: period <= 0\")", 0.,
        -1, at 0 [] );
      ( "negative cycles", "Invalid_argument(\"Event_sim.run: negative cycles\")", 1e-9,
        -1, at 0 [] );
      ("first binding wins", "no exception", 1e-9, 3, at 1 (good @ [ ("en", false) ]));
    ]

let test_truth_tables_match_logic () =
  List.iter
    (fun (cell : Cell.t) ->
      let k = List.length cell.Cell.inputs in
      let table = Truth_table.of_cell cell in
      Alcotest.(check int) (cell.Cell.name ^ ": rows") (1 lsl k) (Array.length table);
      Array.iteri
        (fun index mask ->
          let expected = cell.Cell.logic (List.init k (fun p -> (index lsr p) land 1 = 1)) in
          let got = List.mapi (fun o _ -> (mask lsr o) land 1 = 1) cell.Cell.outputs in
          if got <> expected then
            Alcotest.failf "%s: table row %d differs from the cell logic" cell.Cell.name
              index)
        table)
    (Catalog.all ())

let test_truth_table_too_wide () =
  let n = Truth_table.max_inputs + 1 in
  let wide =
    {
      (Catalog.find_exn "NAND2_X1") with
      Cell.name = "WIDE_X1";
      inputs = List.init n (Printf.sprintf "A%d");
      logic = (fun ins -> [ not (List.for_all Fun.id ins) ]);
    }
  in
  match Truth_table.of_cell wide with
  | _ -> Alcotest.fail "a cell wider than the table was accepted"
  | exception Failure msg ->
    Alcotest.(check string) "names the cell"
      (Printf.sprintf
         "Truth_table.of_cell: cell WIDE_X1 has %d inputs (tables support at most %d)"
         n Truth_table.max_inputs)
      msg

(* A prepared simulation keeps flat arrays, not the STA analysis behind
   its delays. *)
let test_prepared_footprint () =
  let design = Designs.dct () in
  let library = Aging_core.Degradation_library.fresh (Lazy.force Fixtures.deglib) in
  let sim = Event_sim.prepare ~library design in
  let bytes =
    (Sys.word_size / 8)
    * (Obj.reachable_words (Obj.repr sim) - Obj.reachable_words (Obj.repr design))
  in
  if bytes >= 2 * 1024 * 1024 then
    Alcotest.failf "prepared DCT keeps %.2f MB beyond its netlist (limit 2 MB)"
      (float_of_int bytes /. 1048576.)

(* Preparations of one netlist share its connectivity: a second library
   adds only its delays (about 0.44 MB for the DCT), not a second copy of
   the arrays. *)
let test_prepared_structure_shared () =
  let design = Designs.dct () in
  let deglib = Lazy.force Fixtures.deglib in
  let fresh = Event_sim.prepare ~library:(Aging_core.Degradation_library.fresh deglib) design in
  let aged =
    Event_sim.prepare ~library:(Aging_core.Degradation_library.worst_case deglib) design
  in
  let bytes =
    (Sys.word_size / 8)
    * (Obj.reachable_words (Obj.repr (fresh, aged)) - Obj.reachable_words (Obj.repr fresh))
  in
  if bytes >= 1024 * 1024 then
    Alcotest.failf "a second preparation of the DCT adds %.2f MB (limit 1 MB)"
      (float_of_int bytes /. 1048576.)

let test_sim_events_counter () =
  let design = Designs.counter ~bits:4 in
  let sim = Event_sim.prepare ~library:(fresh ()) design in
  let events = Metrics.counter "sim.events" in
  let count () =
    let before = Metrics.value events in
    ignore (Event_sim.run sim ~period:2e-10 ~cycles:20 ~stimulus:(fun _ -> [ ("en", true) ]));
    Metrics.value events - before
  in
  let first = count () in
  Alcotest.(check bool) "events counted" true (first > 0);
  Alcotest.(check int) "identical runs count alike" first (count ())

let test_activity_profile () =
  let design = Designs.counter ~bits:4 in
  let profile =
    Activity.profile design ~cycles:64 ~stimulus:(fun _ -> [ ("en", true) ])
  in
  Array.iter
    (fun p ->
      Alcotest.(check bool) "probability in range" true (p >= 0. && p <= 1.))
    profile.Activity.p_high;
  (* Counter bit 0 toggles every cycle: its probability is ~0.5. *)
  let _, q0 = List.hd design.N.output_ports in
  Alcotest.(check bool) "lsb near half" true
    (Float.abs (profile.Activity.p_high.(q0) -. 0.5) < 0.05);
  Alcotest.(check bool) "lsb toggles a lot" true (profile.Activity.toggles.(q0) > 30)

let test_activity_constant_input () =
  let design = Designs.counter ~bits:4 in
  let profile =
    Activity.profile design ~cycles:32 ~stimulus:(fun _ -> [ ("en", false) ])
  in
  let _, en_net = List.hd design.N.input_ports in
  Alcotest.(check (float 0.)) "disabled input stays low" 0.
    profile.Activity.p_high.(en_net)

let test_instance_corner_complementary () =
  let design = Designs.counter ~bits:4 in
  let profile =
    Activity.profile design ~cycles:64 ~stimulus:(fun _ -> [ ("en", true) ])
  in
  Array.iter
    (fun (inst : N.instance) ->
      if not (N.is_flipflop inst) && inst.N.inputs <> [] then begin
        let c = Activity.instance_corner profile inst in
        Fixtures.check_close ~tol:1e-9 "lambda_p + lambda_n = 1" 1.
          (c.Scenario.lambda_p +. c.Scenario.lambda_n)
      end)
    design.N.instances

let test_annotate_and_corners_used () =
  let design = Designs.counter ~bits:4 in
  let profile =
    Activity.profile design ~cycles:64 ~stimulus:(fun _ -> [ ("en", true) ])
  in
  let annotated = Activity.annotate design profile in
  Array.iter
    (fun (inst : N.instance) ->
      Alcotest.(check bool) "corner suffix present" true
        (String.contains inst.N.cell_name '@'))
    annotated.N.instances;
  let corners = Activity.corners_used annotated in
  Alcotest.(check bool) "at least one corner" true (corners <> []);
  let grid = Scenario.grid () in
  List.iter
    (fun c ->
      Alcotest.(check bool) "snapped to grid" true
        (List.exists (Scenario.equal c) grid))
    corners;
  Alcotest.(check bool) "functional behaviour unchanged" true
    (Fixtures.equivalent design annotated)

let test_activity_validation () =
  let design = Designs.counter ~bits:2 in
  Alcotest.check_raises "cycles" (Invalid_argument "Activity.profile: cycles <= 0")
    (fun () ->
      ignore (Activity.profile design ~cycles:0 ~stimulus:(fun _ -> [ ("en", true) ])))

let prop_event_sim_deterministic =
  Fixtures.qtest ~count:5 "event simulation is deterministic"
    QCheck2.Gen.int64
    (fun seed ->
      let design = Designs.counter ~bits:4 in
      let sim = Event_sim.prepare ~library:(Lazy.force Fixtures.fresh_library) design in
      let stimulus = random_stimulus design seed in
      let run () =
        (Event_sim.run sim ~period:2e-10 ~cycles:20 ~stimulus).Event_sim.outputs
      in
      run () = run ())

let suite =
  [
    ("event sim: matches reference at slow clock", `Quick,
      test_event_sim_matches_reference_at_slow_clock);
    ("event sim: errors at fast clock", `Quick, test_event_sim_errors_at_fast_clock);
    ("event sim: error monotonicity", `Quick, test_event_sim_error_monotonicity);
    ("event sim: validation", `Quick, test_event_sim_validation);
    ("event sim: matches the list-based reference", `Quick,
      test_event_sim_matches_list_reference);
    ("event sim: error texts and order", `Quick, test_event_sim_error_order);
    ("event sim: truth tables match cell logic", `Quick, test_truth_tables_match_logic);
    ("event sim: too-wide cell refused", `Quick, test_truth_table_too_wide);
    ("event sim: prepared footprint", `Quick, test_prepared_footprint);
    ("event sim: structure shared", `Quick, test_prepared_structure_shared);
    ("event sim: events counter", `Quick, test_sim_events_counter);
    ("activity: counter profile", `Quick, test_activity_profile);
    ("activity: constant input", `Quick, test_activity_constant_input);
    ("activity: complementary duty cycles", `Quick, test_instance_corner_complementary);
    ("activity: annotation", `Quick, test_annotate_and_corners_used);
    ("activity: validation", `Quick, test_activity_validation);
  ]

let props = [ prop_event_sim_deterministic ]
