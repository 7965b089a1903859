(* corner-sweep: the paper's library-generation artifact (Sec. 4.1).  Builds
   the complete degradation-aware library, one seeded grid corner at a time,
   for the full 64-cell catalog on the paper's 7x7 axes with [jobs] domains,
   into an empty private cache.  Spice, characterize and the pool do the
   work; STA, synthesis and simulation do none. *)

open Common
module Deglib = Aging_core.Degradation_library
module Library = Aging_liberty.Library
module Nldm = Aging_liberty.Nldm
module Scenario = Aging_physics.Scenario

let reference_file = "perfbench/ref/corner_sweep.json"

(* Relative tolerance of the per-cell table means against the reference:
   loose enough for last-digit solver noise, tight enough that a library
   built at a neighbouring grid corner fails. *)
let tolerance = 1e-4

let catalog_size = List.length (Aging_cells.Catalog.all ())

type state = {
  deglib : Deglib.t;
  corners : Scenario.corner array;
  reference : Json.t Lazy.t;
}

(* The memo keeps the fresh library and the corner being built; swept
   corners never repeat, so holding more would only grow the heap. *)
let create_deglib dir = Deglib.create ~cache_dir:dir ~jobs ~memo_cap:2 ()

(* Set-up starts an empty cache and builds the year-0 (fresh) library, the
   baseline half of the artifact. *)
let setup ctx =
  let deglib = create_deglib (fresh_dir ctx) in
  ignore (in_layer "deglib" "fresh" (fun () -> Deglib.fresh deglib));
  {
    deglib;
    corners = Inputs.sweep_corners ctx.seed;
    reference = lazy (Json.of_string (read_file reference_file));
  }

let table_mean tables =
  let total, n =
    List.fold_left
      (fun (s, n) t -> Nldm.fold (fun (s, n) v -> (s +. v, n + 1)) (s, n) t)
      (0., 0) tables
  in
  if n = 0 then 0. else total /. float_of_int n

(* Per cell: mean of all delay tables and of all slew tables. *)
let summary (e : Library.entry) =
  let arcs = e.Library.arcs in
  ( table_mean
      (List.concat_map (fun a -> [ a.Library.delay_rise; a.Library.delay_fall ]) arcs),
    table_mean
      (List.concat_map (fun a -> [ a.Library.slew_rise; a.Library.slew_fall ]) arcs) )

let finite_tables (e : Library.entry) =
  List.for_all
    (fun a ->
      List.for_all
        (fun t -> Nldm.fold (fun ok v -> ok && Float.is_finite v) true t)
        [ a.Library.delay_rise; a.Library.delay_fall; a.Library.slew_rise;
          a.Library.slew_fall ])
    e.Library.arcs

let check reference corner lib =
  let entries = Library.entries lib in
  let expected = member_exn (Scenario.suffix corner) (member_exn "corners" reference) in
  let problems =
    List.filter_map
      (fun (e : Library.entry) ->
        let cell = e.Library.cell.Aging_cells.Cell.name in
        let d, s = summary e in
        if not (finite_tables e) then Some (cell ^ ": non-finite table entry")
        else
          match Json.member cell expected with
          | Some (Json.List [ rd; rs ])
            when close ~rel:tolerance d (json_float rd)
                 && close ~rel:tolerance s (json_float rs) ->
            None
          | Some _ -> Some (Printf.sprintf "%s: table means differ from the reference" cell)
          | None -> Some (cell ^ ": not in the reference"))
      entries
  in
  let problems =
    if List.length entries = catalog_size then problems
    else Printf.sprintf "%d cells, expected %d" (List.length entries) catalog_size :: problems
  in
  List.map (fun p -> Printf.sprintf "corner %s: %s" (Scenario.suffix corner) p) problems

(* Each corner is checked as soon as it is built, outside the timed part,
   and then dropped, so the memory a run holds does not grow with the number
   of corners its time budget allowed. *)
let pass _ctx st budget ~traced:_ ~mark =
  let reference = Lazy.force st.reference in
  let rec loop i ~busy acc =
    if i < Array.length st.corners && continue_ budget ~units:i ~elapsed:busy then begin
      let corner = st.corners.(i) in
      let lib, dt =
        timed (fun () ->
            try Ok (in_layer "deglib" "complete" (fun () -> Deglib.complete st.deglib [ corner ]))
            with e -> Error (Printexc.to_string e))
      in
      let problems =
        match lib with
        | Ok lib -> check reference corner lib
        | Error msg -> [ Printf.sprintf "corner %s raised %s" (Scenario.suffix corner) msg ]
      in
      loop (i + 1) ~busy:(busy +. dt) ((dt, problems) :: acc)
    end
    else (busy, List.rev acc)
  in
  let wall, built = loop 0 ~busy:0. [] in
  mark ();
  let units = List.length built in
  {
    Workload.units;
    wall;
    attempted = units;
    failed = List.length (List.filter (fun (_, p) -> p <> []) built);
    failures = List.concat_map snd built;
    throughput = ratio (float_of_int units) wall;
    latencies_ms = List.map (fun (dt, _) -> dt *. 1e3) built;
    notes = [ metric "corners_per_s" "1/s" (ratio (float_of_int units) wall) ];
    extras = Layers.no_extras;
  }

(* Captures the reference: the per-cell table means of every grid corner. *)
let make_reference dir =
  let deglib = create_deglib dir in
  let corners =
    List.map
      (fun corner ->
        let lib = Deglib.complete deglib [ corner ] in
        Printf.eprintf "reference corner %s\n%!" (Scenario.suffix corner);
        ( Scenario.suffix corner,
          Json.Obj
            (List.map
               (fun (e : Library.entry) ->
                 let d, s = summary e in
                 (e.Library.cell.Aging_cells.Cell.name, Json.List [ Json.Float d; Json.Float s ]))
               (Library.entries lib)) ))
      Inputs.grid
  in
  Json.Obj
    [
      ("about", Json.String "per-cell mean of all delay and of all slew tables, full catalog, paper axes, 10 years");
      ("tolerance_rel", Json.Float tolerance);
      ("corners", Json.Obj corners);
    ]
