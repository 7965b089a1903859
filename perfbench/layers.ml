(* Per-layer numbers of a traced pass, read from outside the program: the
   counters and span histograms it already keeps in [Aging_obs.Metrics],
   the spans it records when recording is on, and the benchmark's own
   [bench.<layer>.<op>] spans around its calls.  Every traced run prints
   the whole list; a layer that did no work in a workload reads 0. *)

open Common

(* What a workload measures itself and hands over. *)
type extras = {
  flows : int;  (** synth-signoff flows in the pass *)
  synth_analyses : float;  (** STA analyses inside [Aging_synthesis.run] *)
  sim_cycles : float;  (** cycles simulated by the pass's decodes *)
  sim_timing_errors : float;
  queue_depth_max : float;
  gen_late_ms_tail : float;
}

let no_extras =
  {
    flows = 0;
    synth_analyses = 0.;
    sim_cycles = 0.;
    sim_timing_errors = 0.;
    queue_depth_max = 0.;
    gen_late_ms_tail = 0.;
  }

(* Layer of a span name: the benchmark's wrappers carry it explicitly, the
   program's spans are named after their module. *)
let layer_of_span name =
  match String.split_on_char '.' name with
  | "bench" :: layer :: _ -> layer
  | [ "characterize"; "point" ] -> "spice"
  | [ "serve"; "phase"; "queue" ] -> "serve.wait"
  | [ "serve"; "phase"; "exec" ] -> "serve.exec"
  | p :: _ -> (
    match p with
    | "characterize" | "deglib" | "sta" | "synth" | "serve" -> p
    | _ -> "other")
  | [] -> "other"

(* Median and tail of a registry histogram, interpolated within its
   buckets; the tail is the highest quantile with at least 10 observations
   beyond it. *)
let hist_quantiles snap name =
  match List.assoc_opt name snap with
  | Some (Metrics.Histogram_value h) when h.Metrics.hs_count > 0 ->
    let n = h.Metrics.hs_count in
    let q_tail = if n >= 11 then float_of_int (n - 10) /. float_of_int n else 1. in
    ( Metrics.percentile_of_buckets h.Metrics.hs_buckets 0.5,
      Metrics.percentile_of_buckets h.Metrics.hs_buckets q_tail )
  | _ -> (0., 0.)

let ms = List.map (fun s -> s *. 1e3)

let per_layer ~snap ~spans ~wall ~(extras : extras) =
  let counter = snap_counter snap in
  let d name = durations spans name in
  let points = counter "characterize.points.measured" in
  let steps = counter "engine.steps" in
  let point_ms = ms (d "characterize.point") in
  let sta_ms = ms (d "sta.analyze") in
  let flows = float_of_int extras.flows in
  let per_flow name = ratio (sum (d ("synth." ^ name))) flows in
  let hits = counter "cache.memo_hit" in
  let misses = counter "cache.memo_miss" in
  let decode_s = d "bench.system_eval.decode" in
  let serve op phase =
    let p50, tl = hist_quantiles snap (Printf.sprintf "serve.latency.%s.%s_ms" op phase) in
    [
      metric (Printf.sprintf "serve.%s_ms.%s.p50" phase op) "ms" p50;
      metric (Printf.sprintf "serve.%s_ms.%s.tail" phase op) "ms" tl;
    ]
  in
  [
    metric "spice.points" "count" points;
    metric "spice.steps_per_point" "steps" (ratio steps points);
    metric "spice.newton_iters_per_step" "iters"
      (ratio (counter "engine.newton_iterations") steps);
    metric "spice.jacobian_refreshes_per_point" "refreshes"
      (ratio (counter "engine.jacobian_refreshes") points);
    metric "spice.point_ms.p50" "ms" (median point_ms);
    metric "spice.point_ms.tail" "ms" (tail point_ms).tail_value;
    metric "characterize.cell_s.max" "s"
      (List.fold_left Float.max 0. (d "characterize.cell"));
    metric "characterize.points.retried" "count"
      (counter "characterize.points.retried");
    metric "characterize.points.failed" "count"
      (counter "characterize.points.failed");
    metric "pool.busy_frac" "fraction"
      (ratio (sum (d "characterize.cell"))
         (float_of_int jobs *. sum (d "characterize.library")));
    metric "deglib.build_s" "s" (median (d "deglib.build"));
    metric "deglib.memo_hit_ratio" "fraction" (ratio hits (hits +. misses));
    metric "cache.memo_evict" "count" (counter "cache.memo_evict");
    metric "cache.disk_hit" "count" (counter "cache.disk_hit");
    metric "cache.build" "count" (counter "cache.build");
    metric "sta.analyses" "count" (counter "sta.analyses");
    metric "sta.arcs_evaluated" "count" (counter "sta.arcs_evaluated");
    metric "sta.lookups" "count" (counter "sta.lookups");
    metric "sta.analyze_ms.p50" "ms" (median sta_ms);
    metric "sta.analyze_ms.tail" "ms" (tail sta_ms).tail_value;
    metric "sta.busy_frac" "fraction" (ratio (sum (d "sta.analyze")) wall);
    metric "synth.compile_s" "s" (per_flow "compile");
    metric "synth.resize_s" "s" (per_flow "resize");
    metric "synth.map_s" "s" (per_flow "map");
    metric "synth.variant_sweep_s" "s" (per_flow "variant_sweep");
    metric "synth.slew_repair_s" "s" (per_flow "slew_repair");
    metric "synth.buffer_s" "s" (per_flow "buffer");
    metric "synth.analyses_per_flow" "count" (ratio extras.synth_analyses flows);
    metric "guardband.static_ms" "ms" (mean (ms (d "bench.guardband.static")));
    metric "guardband.single_opc_ms" "ms"
      (mean (ms (d "bench.guardband.single_opc")));
    metric "guardband.initial_cp_ms" "ms"
      (mean (ms (d "bench.guardband.initial_cp_only")));
    metric "sim.prepare_ms" "ms" (mean (ms (d "bench.sim.prepare")));
    metric "sim.cycles" "count" extras.sim_cycles;
    metric "sim.cycles_per_s" "1/s" (ratio extras.sim_cycles (sum decode_s));
    metric "sim.timing_errors" "count" extras.sim_timing_errors;
    metric "system_eval.rate_s" "s" (mean (d "bench.system_eval.rate"));
    metric "system_eval.decode_s" "s" (mean decode_s);
  ]
  @ serve "delay" "queue" @ serve "delay" "exec" @ serve "guardband" "queue"
  @ serve "guardband" "exec"
  @ [
      metric "serve.queue_depth.max" "count" extras.queue_depth_max;
      metric "serve.refused_overloaded" "count"
        (counter "serve.refused_overloaded");
      metric "serve.refused_timeout" "count" (counter "serve.refused_timeout");
      metric "gen.late_ms.tail" "ms" extras.gen_late_ms_tail;
    ]

(* Self time of each layer over the recorded spans (a span's duration less
   its children's), summed across domains, so parallel layers can add up to
   more than the wall time.  Served requests show as [serve.wait] (queued)
   and [serve.exec] (running); the latter overlaps the spans its handler
   records on the worker domain (sta, deglib, ...).  The [unattributed] row is the part of the
   pass's wall time that no top-level [bench.*] span on the benchmark's
   domain covers. *)
let rollup ~roots ~wall =
  let table = Hashtbl.create 16 in
  let rec go (s : Span.t) =
    let child = sum (List.map (fun (c : Span.t) -> c.Span.duration) s.Span.children) in
    let layer = layer_of_span s.Span.name in
    let prev = Option.value (Hashtbl.find_opt table layer) ~default:0. in
    Hashtbl.replace table layer (prev +. Float.max 0. (s.Span.duration -. child));
    List.iter go s.Span.children
  in
  List.iter go roots;
  let covered =
    sum
      (List.filter_map
         (fun (s : Span.t) ->
           if String.starts_with ~prefix:"bench." s.Span.name then Some s.Span.duration
           else None)
         roots)
  in
  let unattributed = Float.max 0. (wall -. covered) in
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
  in
  (rows @ [ ("unattributed", unattributed) ], ratio unattributed wall)

let print_rollup ~wall rows =
  Printf.printf "self-time roll-up of the traced pass (wall %.3f s):\n" wall;
  Printf.printf "  %-14s %10s %8s\n" "layer" "self_s" "of_wall";
  List.iter
    (fun (layer, s) ->
      Printf.printf "  %-14s %10.4f %7.1f%%\n" layer s (100. *. ratio s wall))
    rows
