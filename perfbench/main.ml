(* The repository benchmark.  Run through perfbench/run.py, which builds
   this executable, passes it a private scratch directory and adds the
   process's peak RSS to the result:

     main.exe run --workload W --seed N --seconds S --trace 0|1 --scratch DIR
     main.exe reference W --scratch DIR      capture W's reference outputs
     main.exe self-test --scratch DIR        determinism self-test

   An untraced run (--trace 0) sets the workload up several times (median
   = setup_s), measures one pass for S seconds, checks its outputs and
   prints the end-to-end metrics.  A traced run (--trace 1) measures an
   untraced pass, then repeats exactly its work with span recording on and
   prints the per-layer metrics, a self-time roll-up and the tracing
   overhead.  The last line of standard output is always the JSON result. *)

open Common
module Runtime = Aging_obs.Runtime

let workloads : (string * (module Workload.S)) list =
  [
    ("corner-sweep", (module Corner_sweep));
    ("synth-signoff", (module Synth_signoff));
    ("image-chain", (module Image_chain));
    ("serve-mixed", (module Serve_mixed));
  ]

let setup_repeats = 3

(* What one measured pass left behind at its mark. *)
type measured = {
  pass : Workload.pass;
  snap : (string * Metrics.value) list;
  roots : Span.t list;
  gc : metric list;
}

let gc_delta (a : Runtime.totals) (b : Runtime.totals) =
  [
    metric "gc.minor_words" "words" (b.Runtime.minor_words -. a.Runtime.minor_words);
    metric "gc.promoted_words" "words" (b.Runtime.promoted_words -. a.Runtime.promoted_words);
    metric "gc.major_collections" "count"
      (float_of_int (b.Runtime.major_collections - a.Runtime.major_collections));
  ]

(* [run] is one workload pass, already applied to its state and budget. *)
let measure ~traced run =
  Metrics.reset ();
  Span.reset ();
  Span.set_recording traced;
  let g0 = Runtime.totals () in
  let at_mark = ref None in
  let mark () =
    if Option.is_none !at_mark then begin
      Span.set_recording false;
      at_mark := Some (Metrics.snapshot (), Span.roots (), gc_delta g0 (Runtime.totals ()))
    end
  in
  let pass = run ~traced ~mark in
  mark ();
  let snap, roots, gc = Option.get !at_mark in
  Span.reset ();
  { pass; snap; roots; gc }

let print_metrics title ms =
  Printf.printf "%s:\n" title;
  List.iter (fun m -> Printf.printf "  %-36s %16.6g %s\n" m.name m.value m.unit_) ms

let report_failures (p : Workload.pass) =
  List.iteri
    (fun i f -> if i < 20 then prerr_endline ("check failed: " ^ f))
    p.Workload.failures;
  let n = List.length p.Workload.failures in
  if n > 20 then Printf.eprintf "check failed: ... and %d more\n%!" (n - 20)

let result ~attempted ~failed ms =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (failed = 0));
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  (m.name, Json.Obj [ ("value", Json.of_float m.value); ("unit", Json.String m.unit_) ]))
                ms) );
       ])

let run_untraced (module W : Workload.S) ctx =
  (* Earlier set-ups are dropped and collected at once, so they neither
     hold memory into the pass nor raise the peak RSS. *)
  let earlier =
    List.init (setup_repeats - 1) (fun _ ->
        let _, dt = timed (fun () -> W.setup ctx) in
        Gc.compact ();
        dt)
  in
  let st, dt = timed (fun () -> W.setup ctx) in
  let setup_s = median (dt :: earlier) in
  let m = measure ~traced:false (W.pass ctx st (Seconds ctx.seconds)) in
  let p = m.pass in
  report_failures p;
  let lat = tail p.Workload.latencies_ms in
  let e2e =
    [
      metric "setup_s" "s" setup_s;
      metric "throughput_per_s" "1/s" p.Workload.throughput;
    ]
  in
  print_metrics "end-to-end" e2e;
  (* Latencies are reported but not gated: their run-to-run spread on a
     2-core machine exceeds any bound the benchmark may set. *)
  Printf.printf "  %-36s %16.6g ms\n" "lat_p50_ms" (median p.Workload.latencies_ms);
  Printf.printf "  %-36s %16.6g ms (p%.2f of %d samples)\n" "lat_tail_ms" lat.tail_value
    lat.tail_pct lat.tail_n;
  print_metrics "workload figures" p.Workload.notes;
  Printf.printf "  failed_ratio %.6g (%d of %d)\n"
    (ratio (float_of_int p.Workload.failed) (float_of_int p.Workload.attempted))
    p.Workload.failed p.Workload.attempted;
  result ~attempted:p.Workload.attempted ~failed:p.Workload.failed e2e

let run_traced (module W : Workload.S) ctx =
  let plain = measure ~traced:false (W.pass ctx (W.setup ctx) (Seconds ctx.seconds)) in
  let traced =
    measure ~traced:true (W.pass ctx (W.setup ctx) (Units plain.pass.Workload.units))
  in
  let p = traced.pass in
  report_failures plain.pass;
  report_failures p;
  let wall = p.Workload.wall in
  let rows, unattributed_frac = Layers.rollup ~roots:traced.roots ~wall in
  let layers =
    Layers.per_layer ~snap:traced.snap ~spans:(flatten traced.roots) ~wall
      ~extras:p.Workload.extras
    @ traced.gc
    @ [
        metric "trace.overhead_frac" "fraction" (ratio wall plain.pass.Workload.wall -. 1.);
        metric "unattributed_frac" "fraction" unattributed_frac;
      ]
  in
  Layers.print_rollup ~wall rows;
  print_metrics "per-layer" layers;
  result
    ~attempted:(plain.pass.Workload.attempted + p.Workload.attempted)
    ~failed:(plain.pass.Workload.failed + p.Workload.failed)
    layers

(* ---- determinism self-test ---- *)

let self_test ctx =
  let ok = ref true in
  let expect what cond =
    Printf.printf "%-60s %s\n%!" what (if cond then "ok" else "FAILED");
    if not cond then ok := false
  in
  let fp seed = Inputs.fingerprint seed ~seconds:ctx.seconds in
  expect "same seed generates identical inputs" (fp 7L = fp 7L);
  expect "another seed generates other corners"
    (Inputs.sweep_corners 7L <> Inputs.sweep_corners 8L);
  expect "another seed generates other (design, corner) pairs"
    (List.exists2 (fun (_, a) (_, b) -> a <> b) (Inputs.synth_pairs 7L) (Inputs.synth_pairs 8L));
  expect "another seed generates other images"
    (Inputs.image_order 7L <> Inputs.image_order 8L);
  expect "another seed generates another request schedule"
    (let s seed = (Inputs.serve_plan seed ~seconds:ctx.seconds).Inputs.schedule in
     Array.map (fun a -> a.Inputs.due) (s 7L) <> Array.map (fun a -> a.Inputs.due) (s 8L));
  (* Exact counts must repeat across two passes of one seed. *)
  let counts name keys =
    let (module W : Workload.S) = List.assoc name workloads in
    let once () =
      let m = measure ~traced:true (W.pass ctx (W.setup ctx) (Units 1)) in
      let layers =
        Layers.per_layer ~snap:m.snap ~spans:(flatten m.roots) ~wall:m.pass.Workload.wall
          ~extras:m.pass.Workload.extras
      in
      List.map (fun k -> (List.find (fun l -> l.name = k) layers).value) keys
    in
    let a = once () and b = once () in
    List.iter2
      (fun k (x, y) ->
        expect (Printf.sprintf "%s: %s repeats exactly (%g)" name k x) (x = y && x > 0.))
      keys (List.combine a b)
  in
  counts "corner-sweep" [ "spice.points"; "spice.steps_per_point" ];
  counts "synth-signoff" [ "sta.analyses"; "synth.analyses_per_flow" ];
  counts "image-chain" [ "sim.cycles"; "sim.timing_errors"; "sta.analyses" ];
  !ok

(* ---- command line ---- *)

let usage () =
  prerr_endline
    "usage: main.exe run --workload W --seed N --seconds S --trace 0|1 --scratch DIR\n\
    \       main.exe reference W --scratch DIR\n\
    \       main.exe self-test --scratch DIR";
  exit 2

let rec flags acc = function
  | k :: v :: rest when String.starts_with ~prefix:"--" k ->
    flags ((String.sub k 2 (String.length k - 2), v) :: acc) rest
  | [] -> acc
  | _ -> usage ()

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Aging_obs.Log.set_level Aging_obs.Log.Warn;
  let args = List.tl (Array.to_list Sys.argv) in
  let cmd, positional, rest =
    match args with
    | "reference" :: w :: rest -> ("reference", Some w, rest)
    | c :: rest -> (c, None, rest)
    | [] -> usage ()
  in
  let fl = flags [] rest in
  let get k = match List.assoc_opt k fl with Some v -> v | None -> usage () in
  let scratch = get "scratch" in
  let seconds = Option.fold ~none:10. ~some:float_of_string (List.assoc_opt "seconds" fl) in
  let seed = Option.fold ~none:1L ~some:Int64.of_string (List.assoc_opt "seed" fl) in
  let ctx = { seed; seconds; scratch; dirs = 0 } in
  let workload name =
    match List.assoc_opt name workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (workloads: %s)\n" name
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  match cmd with
  | "run" ->
    let w = workload (get "workload") in
    let line =
      match get "trace" with
      | "0" -> run_untraced w ctx
      | "1" -> run_traced w ctx
      | _ -> usage ()
    in
    print_endline line
  | "reference" ->
    let name = Option.get positional in
    let json, file =
      match name with
      | "corner-sweep" -> (Corner_sweep.make_reference (fresh_dir ctx), Corner_sweep.reference_file)
      | "synth-signoff" -> (Synth_signoff.make_reference (fresh_dir ctx), Synth_signoff.reference_file)
      | "image-chain" -> (Image_chain.make_reference (fresh_dir ctx), Image_chain.reference_file)
      | _ -> usage ()
    in
    write_file file (compact_json json ^ "\n");
    Printf.printf "wrote %s\n" file
  | "self-test" -> if not (self_test ctx) then exit 1
  | _ -> usage ()
