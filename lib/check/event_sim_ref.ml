(* The list-based event simulator that [Aging_sim.Event_sim]'s flat kernel
   replaced, kept verbatim as the slow reference of the event-sim-diff
   oracle. *)

module Library = Aging_liberty.Library
module Netlist = Aging_netlist.Netlist
module Cell = Aging_cells.Cell
module Timing = Aging_sta.Timing

(* ----------------------- tiny binary min-heap ----------------------- *)

type 'a heap = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable data : 'a array;
  mutable size : int;
  mutable next_seq : int;
  dummy : 'a;
}

let heap_create dummy =
  {
    keys = Array.make 256 0.;
    seqs = Array.make 256 0;
    data = Array.make 256 dummy;
    size = 0;
    next_seq = 0;
    dummy;
  }

let heap_less h i j =
  h.keys.(i) < h.keys.(j) || (h.keys.(i) = h.keys.(j) && h.seqs.(i) < h.seqs.(j))

let heap_swap h i j =
  let k = h.keys.(i) in
  h.keys.(i) <- h.keys.(j);
  h.keys.(j) <- k;
  let s = h.seqs.(i) in
  h.seqs.(i) <- h.seqs.(j);
  h.seqs.(j) <- s;
  let d = h.data.(i) in
  h.data.(i) <- h.data.(j);
  h.data.(j) <- d

let heap_push h key payload =
  if h.size = Array.length h.keys then begin
    let n = 2 * h.size in
    let keys = Array.make n 0. and seqs = Array.make n 0 in
    let data = Array.make n h.dummy in
    Array.blit h.keys 0 keys 0 h.size;
    Array.blit h.seqs 0 seqs 0 h.size;
    Array.blit h.data 0 data 0 h.size;
    h.keys <- keys;
    h.seqs <- seqs;
    h.data <- data
  end;
  let i = h.size in
  h.keys.(i) <- key;
  h.seqs.(i) <- h.next_seq;
  h.next_seq <- h.next_seq + 1;
  h.data.(i) <- payload;
  h.size <- h.size + 1;
  let rec up i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if heap_less h i parent then begin
        heap_swap h i parent;
        up parent
      end
    end
  in
  up i

let heap_peek_key h = if h.size = 0 then None else Some h.keys.(0)

let heap_pop h =
  if h.size = 0 then invalid_arg "heap_pop: empty";
  let key = h.keys.(0) and payload = h.data.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then begin
    heap_swap h 0 h.size;
    let rec down i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let smallest = ref i in
      if l < h.size && heap_less h l !smallest then smallest := l;
      if r < h.size && heap_less h r !smallest then smallest := r;
      if !smallest <> i then begin
        heap_swap h i !smallest;
        down !smallest
      end
    in
    down 0
  end;
  (key, payload)

(* ------------------------------ model ------------------------------ *)

type gate = {
  logic : bool list -> bool list;
  in_nets : int array;
  out_nets : int array;
  (* delay.(pin).(out).(dir): propagation delay when input [pin] triggers a
     transition of output [out]; dir 0 = rise, 1 = fall. *)
  delay : float array array array;
}

type ff = {
  d_net : int;
  q_net : int;
  setup : float;
  clkq_rise : float;
  clkq_fall : float;
}

type t = {
  netlist : Netlist.t;
  analysis : Timing.analysis;
  gates : gate array;
  ffs : ff array;
  fanout_gates : int list array; (* net -> gate indices to re-evaluate *)
}

let dir_rise = 0
let dir_fall = 1

let prepare ?config ~library netlist =
  let analysis = Timing.analyze ?config ~library netlist in
  let comb = Array.of_list (Netlist.combinational_order netlist) in
  let resolve inst =
    match Library.find library inst.Netlist.cell_name with
    | Some e -> e
    | None -> (
      match Library.find library (Netlist.base_cell_name inst.Netlist.cell_name) with
      | Some e -> e
      | None -> failwith ("Event_sim: cell not in library: " ^ inst.Netlist.cell_name))
  in
  let gate_of inst =
    let entry = resolve inst in
    let cell = Netlist.catalog_cell inst in
    let in_nets = Array.of_list (List.map snd inst.Netlist.inputs) in
    let out_nets = Array.of_list (List.map snd inst.Netlist.outputs) in
    let pins = Array.of_list (List.map fst inst.Netlist.inputs) in
    let out_pins = Array.of_list (List.map fst inst.Netlist.outputs) in
    let delay =
      Array.init (Array.length pins) (fun pi ->
          Array.init (Array.length out_pins) (fun oi ->
              let in_net = in_nets.(pi) in
              let slew =
                Float.max
                  (Timing.slew_at analysis in_net Library.Rise)
                  (Timing.slew_at analysis in_net Library.Fall)
              in
              let load = Timing.load_on analysis out_nets.(oi) in
              match
                Library.arc_of entry ~from_pin:pins.(pi) ~to_pin:out_pins.(oi)
              with
              | Some arc ->
                [|
                  Library.delay_of arc ~dir:Library.Rise ~slew ~load;
                  Library.delay_of arc ~dir:Library.Fall ~slew ~load;
                |]
              | None -> [| nan; nan |]))
    in
    (* Fill non-sensitizable (pin,out) pairs with the worst delay of the
       output so logic-only sensitizations still propagate. *)
    let n_outs = Array.length out_pins in
    for oi = 0 to n_outs - 1 do
      let worst = ref 0. in
      Array.iter
        (fun per_out ->
          let d = per_out.(oi) in
          if not (Float.is_nan d.(0)) then begin
            worst := Float.max !worst d.(0);
            worst := Float.max !worst d.(1)
          end)
        delay;
      Array.iter
        (fun per_out ->
          let d = per_out.(oi) in
          if Float.is_nan d.(0) then begin
            d.(0) <- !worst;
            d.(1) <- !worst
          end)
        delay
    done;
    { logic = cell.Cell.logic; in_nets; out_nets; delay }
  in
  let gates = Array.map gate_of comb in
  let ffs =
    Array.of_list
      (List.map
         (fun inst ->
           let entry = resolve inst in
           let d_net =
             match List.assoc_opt "D" inst.Netlist.inputs with
             | Some n -> n
             | None -> failwith "Event_sim: flip-flop without D"
           in
           let q_net =
             match inst.Netlist.outputs with
             | [ (_, q) ] -> q
             | [] | _ :: _ :: _ -> failwith "Event_sim: flip-flop output arity"
           in
           let cfg = Timing.config analysis in
           let load = Timing.load_on analysis q_net in
           let clkq_rise, clkq_fall =
             match Library.arc_of entry ~from_pin:"CK" ~to_pin:"Q" with
             | Some arc ->
               ( Library.delay_of arc ~dir:Library.Rise
                   ~slew:cfg.Timing.clock_slew ~load,
                 Library.delay_of arc ~dir:Library.Fall
                   ~slew:cfg.Timing.clock_slew ~load )
             | None -> (0., 0.)
           in
           {
             d_net;
             q_net;
             setup = entry.Library.setup_time;
             clkq_rise;
             clkq_fall;
           })
         (Netlist.flipflops netlist))
  in
  let fanout_gates = Array.make netlist.Netlist.n_nets [] in
  Array.iteri
    (fun gi gate ->
      Array.iter
        (fun net ->
          if not (List.mem gi fanout_gates.(net)) then
            fanout_gates.(net) <- gi :: fanout_gates.(net))
        gate.in_nets)
    gates;
  { netlist; analysis; gates; ffs; fanout_gates }

let min_period t = Timing.min_period t.analysis

type trace = Aging_sim.Event_sim.trace = {
  outputs : (string * bool) list array;
  timing_errors : int;
}

type payload = Net_change of { net : int; value : bool; stamp : int } | Sample of int

let run t ~period ~cycles ~stimulus =
  if period <= 0. then invalid_arg "Event_sim.run: period <= 0";
  if cycles < 0 then invalid_arg "Event_sim.run: negative cycles";
  let netlist = t.netlist in
  let n_nets = netlist.Netlist.n_nets in
  let compiled = Netlist.compile netlist in
  (* Start in the settled state of the first input vector. *)
  let init_inputs = stimulus 0 in
  let init_state = Netlist.initial_state netlist in
  let values = Netlist.compiled_net_values compiled init_state ~inputs:init_inputs in
  let target = Array.copy values in
  let latest_stamp = Array.make n_nets 0 in
  let stamp_counter = ref 0 in
  let heap = heap_create (Sample (-1)) in
  let schedule time net value =
    incr stamp_counter;
    latest_stamp.(net) <- !stamp_counter;
    target.(net) <- value;
    heap_push heap time (Net_change { net; value; stamp = !stamp_counter })
  in
  let eval_gate time trigger_net gi =
    let g = t.gates.(gi) in
    let in_values = Array.to_list (Array.map (fun n -> values.(n)) g.in_nets) in
    let outs = g.logic in_values in
    List.iteri
      (fun oi v ->
        let out_net = g.out_nets.(oi) in
        if v <> target.(out_net) then begin
          (* Propagation delay of the pin(s) the triggering net drives (the
             worst when it feeds several pins of this gate). *)
          let dir = if v then dir_rise else dir_fall in
          let d = ref neg_infinity in
          Array.iteri
            (fun pi per_out ->
              if g.in_nets.(pi) = trigger_net then
                d := Float.max !d per_out.(oi).(dir))
            g.delay;
          let d = if Float.is_finite !d then !d else 0. in
          schedule (time +. d) out_net v
        end)
      outs
  in
  let apply_net_change time net value stamp =
    if stamp = latest_stamp.(net) && values.(net) <> value then begin
      values.(net) <- value;
      List.iter (eval_gate time net) t.fanout_gates.(net)
    end
  in
  let captured = Array.make (Array.length t.ffs) false in
  Array.iteri (fun i (_ : ff) -> captured.(i) <- init_state.(i)) t.ffs;
  let drain limit =
    let continue = ref true in
    while !continue do
      match heap_peek_key heap with
      | Some time when time <= limit ->
        let time, payload = heap_pop heap in
        begin
          match payload with
          | Net_change { net; value; stamp } -> apply_net_change time net value stamp
          | Sample fi -> captured.(fi) <- values.(t.ffs.(fi).d_net)
        end
      | Some _ | None -> continue := false
    done
  in
  (* Reference (zero-delay) execution to count timing errors. *)
  let ref_state = ref init_state in
  let timing_errors = ref 0 in
  let outputs = Array.make cycles [] in
  let q_values = Array.map (fun (ff : ff) -> values.(ff.q_net)) t.ffs in
  for cycle = 0 to cycles - 1 do
    let t_edge = float_of_int (cycle + 1) *. period in
    (* Schedule the D sampling points of this edge. *)
    Array.iteri
      (fun fi (ff : ff) -> heap_push heap (t_edge -. ff.setup) (Sample fi))
      t.ffs;
    (* Apply this cycle's inputs just after the previous edge. *)
    let t_inputs = (float_of_int cycle *. period) +. 1e-15 in
    List.iter
      (fun (port, value) ->
        match List.assoc_opt port netlist.Netlist.input_ports with
        | Some net -> if target.(net) <> value then schedule t_inputs net value
        | None -> failwith ("Event_sim.run: unknown input " ^ port))
      (stimulus cycle);
    drain t_edge;
    (* Record primary outputs as seen by the capturing edge. *)
    outputs.(cycle) <-
      List.map (fun (port, net) -> (port, values.(net))) netlist.Netlist.output_ports;
    (* Reference execution for this cycle. *)
    let _, ref_next =
      Netlist.compiled_cycle compiled !ref_state ~inputs:(stimulus cycle)
    in
    (* Captures become visible on Q after clk->q. *)
    Array.iteri
      (fun fi (ff : ff) ->
        if captured.(fi) <> ref_next.(fi) then incr timing_errors;
        if captured.(fi) <> q_values.(fi) then begin
          q_values.(fi) <- captured.(fi);
          let d = if captured.(fi) then ff.clkq_rise else ff.clkq_fall in
          schedule (t_edge +. d) ff.q_net captured.(fi)
        end)
      t.ffs;
    ref_state := ref_next
  done;
  { outputs; timing_errors = !timing_errors }
