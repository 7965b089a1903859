module Library = Aging_liberty.Library
module Netlist = Aging_netlist.Netlist
module Timing = Aging_sta.Timing
module Metrics = Aging_obs.Metrics

let m_events = Metrics.counter "sim.events"

(* ------------------------------ model ------------------------------ *)

(* A prepared design, flattened into arrays so that the event loop reads
   integers and floats and allocates nothing.  Gates are the combinational
   instances in topological order.  [*_off] arrays are CSR offsets: gate
   [g]'s input nets are [in_nets.(in_off.(g)) .. in_nets.(in_off.(g+1)-1)],
   in cell pin order, and likewise for outputs and for the fanout of a net.

   A fanout entry names the gate a net change re-evaluates and the gate's
   delay slot for that triggering net: [delays.(slot + 2*o + dir)] is the
   propagation delay to output [o] (dir 0 = rise, 1 = fall), already the
   worst over the gate's pins the net drives.

   Everything but the delays depends on the netlist alone: that part is a
   [structure], built once per netlist and shared by every preparation of
   it, so that a design prepared under several libraries (fresh and aged)
   holds one copy of its connectivity and one delay array per library.
   The STA analysis the delays come from is not kept. *)
type structure = {
  comb : Netlist.instance array;
  tables : int array;  (* every used cell's truth table, concatenated *)
  gate_table : int array;  (* gate -> offset of its cell's table *)
  in_off : int array;
  in_nets : int array;
  out_off : int array;
  out_nets : int array;
  n_delays : int;  (* delay slots follow gate order, then pin order *)
  fanout_off : int array;  (* net -> range of fanout_gate / fanout_slot *)
  fanout_gate : int array;
  fanout_slot : int array;
  ffs : Netlist.instance array;
  ff_d : int array;
  ff_q : int array;
  port_index : (string, int) Hashtbl.t;  (* input port -> its first index *)
  port_nets : int array;
  port_names : string array;
  port_canon : int array;  (* port -> first index with the same name *)
}

type t = {
  netlist : Netlist.t;
  s : structure;
  min_period : float;
  delays : float array;
  ff_setup : float array;
  ff_clkq_rise : float array;
  ff_clkq_fall : float array;
}

(* CSR offsets from per-row counts. *)
let offsets n count =
  let off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i) + count i
  done;
  off

(* Whether input pin [k] of a gate whose pins start at [first] owns a delay
   slot (2 floats per output of the gate): no earlier pin of the gate
   reads the same net. *)
let owns_delay_slot in_nets ~first k =
  let owns = ref true in
  for j = first to k - 1 do
    if in_nets.(j) = in_nets.(k) then owns := false
  done;
  !owns

let build_structure netlist =
  let comb = Array.of_list (Netlist.combinational_order netlist) in
  (* One truth table per distinct catalog cell, appended to [tables]. *)
  let table_offsets = Hashtbl.create 32 in
  let tables = ref [] and tables_len = ref 0 in
  let table_of inst =
    let cell = Netlist.catalog_cell inst in
    let name = cell.Aging_cells.Cell.name in
    match Hashtbl.find_opt table_offsets name with
    | Some off -> off
    | None ->
      let table = Truth_table.of_cell cell in
      let off = !tables_len in
      Hashtbl.add table_offsets name off;
      tables := table :: !tables;
      tables_len := off + Array.length table;
      off
  in
  let n_gates = Array.length comb in
  let gate_table = Array.map table_of comb in
  let in_off = offsets n_gates (fun g -> List.length comb.(g).Netlist.inputs) in
  let out_off = offsets n_gates (fun g -> List.length comb.(g).Netlist.outputs) in
  let in_nets = Array.make in_off.(n_gates) 0 in
  let out_nets = Array.make out_off.(n_gates) 0 in
  Array.iteri
    (fun g inst ->
      List.iteri (fun p (_, net) -> in_nets.(in_off.(g) + p) <- net) inst.Netlist.inputs;
      List.iteri (fun o (_, net) -> out_nets.(out_off.(g) + o) <- net) inst.Netlist.outputs)
    comb;
  let n_outs g = out_off.(g + 1) - out_off.(g) in
  let owns_slot = Array.make in_off.(n_gates) true in
  for g = 0 to n_gates - 1 do
    for k = in_off.(g) to in_off.(g + 1) - 1 do
      owns_slot.(k) <- owns_delay_slot in_nets ~first:in_off.(g) k
    done
  done;
  let n_slots g =
    let n = ref 0 in
    for k = in_off.(g) to in_off.(g + 1) - 1 do
      if owns_slot.(k) then incr n
    done;
    !n
  in
  let slot_off = offsets n_gates (fun g -> 2 * n_outs g * n_slots g) in
  (* Fanout of each net, gates in descending index order (the order in
     which a net change schedules its fanout's output events). *)
  let n_nets = netlist.Netlist.n_nets in
  let readers = Array.make n_nets 0 in
  Array.iteri (fun k owns -> if owns then readers.(in_nets.(k)) <- readers.(in_nets.(k)) + 1) owns_slot;
  let fanout_off = offsets n_nets (fun net -> readers.(net)) in
  let fill = Array.sub fanout_off 0 n_nets in
  let fanout_gate = Array.make fanout_off.(n_nets) 0 in
  let fanout_slot = Array.make fanout_off.(n_nets) 0 in
  for g = n_gates - 1 downto 0 do
    let slot = ref slot_off.(g) in
    for k = in_off.(g) to in_off.(g + 1) - 1 do
      if owns_slot.(k) then begin
        let net = in_nets.(k) in
        fanout_gate.(fill.(net)) <- g;
        fanout_slot.(fill.(net)) <- !slot;
        fill.(net) <- fill.(net) + 1;
        slot := !slot + (2 * n_outs g)
      end
    done
  done;
  let ffs = Array.of_list (Netlist.flipflops netlist) in
  let ff_d =
    Array.map
      (fun inst ->
        match List.assoc_opt "D" inst.Netlist.inputs with
        | Some n -> n
        | None -> failwith "Event_sim: flip-flop without D")
      ffs
  in
  let ff_q =
    Array.map
      (fun inst ->
        match inst.Netlist.outputs with
        | [ (_, q) ] -> q
        | [] | _ :: _ :: _ -> failwith "Event_sim: flip-flop output arity")
      ffs
  in
  let ports = Array.of_list netlist.Netlist.input_ports in
  let port_index = Hashtbl.create (2 * Array.length ports) in
  Array.iteri
    (fun i (name, _) ->
      if not (Hashtbl.mem port_index name) then Hashtbl.add port_index name i)
    ports;
  {
    comb;
    tables = Array.concat (List.rev !tables);
    gate_table;
    in_off;
    in_nets;
    out_off;
    out_nets;
    n_delays = slot_off.(n_gates);
    fanout_off;
    fanout_gate;
    fanout_slot;
    ffs;
    ff_d;
    ff_q;
    port_index;
    port_nets = Array.map snd ports;
    port_names = Array.map fst ports;
    port_canon = Array.map (fun (name, _) -> Hashtbl.find port_index name) ports;
  }

(* Structures of live netlists, keyed by physical identity: an entry lives
   as long as its netlist does.  Netlists are immutable, so a structure
   never goes stale.  Guarded for concurrent [prepare]s. *)
module Structures = Ephemeron.K1.Make (struct
  type t = Netlist.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let structures = Structures.create 8
let structures_lock = Mutex.create ()

let structure netlist =
  match Mutex.protect structures_lock (fun () -> Structures.find_opt structures netlist) with
  | Some s -> s
  | None ->
    let s = build_structure netlist in
    Mutex.protect structures_lock (fun () ->
        match Structures.find_opt structures netlist with
        | Some s -> s
        | None ->
          Structures.add structures netlist s;
          s)

(* Pin-to-output delays of one instance, from the slews and loads of the
   STA pass: [d.(2 * (p * n_outs + o) + dir)] for input pin [p], output
   [o], dir 0 = rise, 1 = fall. *)
let pin_delays analysis entry (inst : Netlist.instance) =
  let n_pins = List.length inst.Netlist.inputs in
  let n_outs = List.length inst.Netlist.outputs in
  let d = Array.make (2 * n_pins * n_outs) 0. in
  List.iteri
    (fun p (pin, in_net) ->
      let slew =
        Float.max
          (Timing.slew_at analysis in_net Library.Rise)
          (Timing.slew_at analysis in_net Library.Fall)
      in
      List.iteri
        (fun o (out_pin, out_net) ->
          let load = Timing.load_on analysis out_net in
          let k = 2 * ((p * n_outs) + o) in
          match Library.arc_of entry ~from_pin:pin ~to_pin:out_pin with
          | Some arc ->
            d.(k) <- Library.delay_of arc ~dir:Library.Rise ~slew ~load;
            d.(k + 1) <- Library.delay_of arc ~dir:Library.Fall ~slew ~load
          | None ->
            d.(k) <- nan;
            d.(k + 1) <- nan)
        inst.Netlist.outputs)
    inst.Netlist.inputs;
  (* Fill non-sensitizable (pin,out) pairs with the worst delay of the
     output so logic-only sensitizations still propagate. *)
  for o = 0 to n_outs - 1 do
    let worst = ref 0. in
    for p = 0 to n_pins - 1 do
      let k = 2 * ((p * n_outs) + o) in
      if not (Float.is_nan d.(k)) then begin
        worst := Float.max !worst d.(k);
        worst := Float.max !worst d.(k + 1)
      end
    done;
    for p = 0 to n_pins - 1 do
      let k = 2 * ((p * n_outs) + o) in
      if Float.is_nan d.(k) then begin
        d.(k) <- !worst;
        d.(k + 1) <- !worst
      end
    done
  done;
  d

let prepare ?config ~library netlist =
  let analysis = Timing.analyze ?config ~library netlist in
  let s = structure netlist in
  let resolve inst =
    match Library.find library inst.Netlist.cell_name with
    | Some e -> e
    | None -> (
      match Library.find library (Netlist.base_cell_name inst.Netlist.cell_name) with
      | Some e -> e
      | None -> failwith ("Event_sim: cell not in library: " ^ inst.Netlist.cell_name))
  in
  (* Library entry per cell name, resolved on first use. *)
  let entries = Hashtbl.create 64 in
  let entry_of inst =
    let name = inst.Netlist.cell_name in
    match Hashtbl.find_opt entries name with
    | Some e -> e
    | None ->
      let e = resolve inst in
      Hashtbl.add entries name e;
      e
  in
  let delays = Array.make s.n_delays 0. in
  let slot = ref 0 in
  Array.iteri
    (fun g inst ->
      let d = pin_delays analysis (entry_of inst) inst in
      (* A net change triggers the worst delay of the pin(s) the net
         drives (several when it feeds several pins of this gate). *)
      let base = s.in_off.(g) and width = 2 * (s.out_off.(g + 1) - s.out_off.(g)) in
      for k = base to s.in_off.(g + 1) - 1 do
        if owns_delay_slot s.in_nets ~first:base k then begin
          for j = 0 to width - 1 do
            let worst = ref neg_infinity in
            for p = 0 to s.in_off.(g + 1) - base - 1 do
              if s.in_nets.(base + p) = s.in_nets.(k) then
                worst := Float.max !worst d.((p * width) + j)
            done;
            delays.(!slot + j) <- (if Float.is_finite !worst then !worst else 0.)
          done;
          slot := !slot + width
        end
      done)
    s.comb;
  let ff_entries = Array.map resolve s.ffs in
  let cfg = Timing.config analysis in
  let clk_to_q dir =
    Array.mapi
      (fun fi entry ->
        match Library.arc_of entry ~from_pin:"CK" ~to_pin:"Q" with
        | Some arc ->
          Library.delay_of arc ~dir ~slew:cfg.Timing.clock_slew
            ~load:(Timing.load_on analysis s.ff_q.(fi))
        | None -> 0.)
      ff_entries
  in
  {
    netlist;
    s;
    min_period = Timing.min_period analysis;
    delays;
    ff_setup = Array.map (fun e -> e.Library.setup_time) ff_entries;
    ff_clkq_rise = clk_to_q Library.Rise;
    ff_clkq_fall = clk_to_q Library.Fall;
  }

let min_period t = t.min_period
let design t = t.netlist

type trace = {
  outputs : (string * bool) list array;
  timing_errors : int;
}

let run_functional netlist ~cycles ~stimulus =
  let compiled = Netlist.compile netlist in
  let state = ref (Netlist.initial_state netlist) in
  Array.init cycles (fun n ->
      let outs, next = Netlist.compiled_cycle compiled !state ~inputs:(stimulus n) in
      state := next;
      outs)

(* The truth-table row of gate [g] under [values]: bit p is input pin p. *)
let input_index s (values : bool array) g =
  let index = ref 0 in
  for p = s.in_off.(g + 1) - 1 downto s.in_off.(g) do
    index := (!index lsl 1) lor Bool.to_int values.(s.in_nets.(p))
  done;
  !index

(* Zero-delay settle of every net from [inputs] and flip-flop state [q],
   with the netlist evaluator's contract: the first binding of a port
   wins, unknown ports are ignored, and the first unbound port (in port
   order) fails.  [bound] is scratch space, one slot per port. *)
let settle s ~(bound : int array) (values : bool array) (q : bool array) inputs =
  Array.fill bound 0 (Array.length bound) (-1);
  List.iter
    (fun (port, v) ->
      match Hashtbl.find_opt s.port_index port with
      | Some i -> if bound.(i) < 0 then bound.(i) <- Bool.to_int v
      | None -> ())
    inputs;
  Array.iteri
    (fun i net ->
      let v = bound.(s.port_canon.(i)) in
      if v < 0 then failwith ("Netlist.eval: missing input " ^ s.port_names.(i));
      values.(net) <- v = 1)
    s.port_nets;
  Array.iteri (fun fi net -> values.(net) <- q.(fi)) s.ff_q;
  for g = 0 to Array.length s.gate_table - 1 do
    let outs = s.tables.(s.gate_table.(g) + input_index s values g) in
    let base = s.out_off.(g) in
    for k = base to s.out_off.(g + 1) - 1 do
      values.(s.out_nets.(k)) <- (outs lsr (k - base)) land 1 = 1
    done
  done

(* -------------------- event queue (binary min-heap) -------------------- *)

(* Events ordered by (time, sequence number).  A payload [p >= 0] is a net
   change (net [p lsr 1] to value [p land 1]); [p < 0] samples the D input
   of flip-flop [-p - 1].  The hot functions are inlined so that event
   times stay unboxed. *)
type heap = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable data : int array;
  mutable size : int;
  mutable next_seq : int;
}

let[@inline] heap_less h i j =
  h.keys.(i) < h.keys.(j) || (h.keys.(i) = h.keys.(j) && h.seqs.(i) < h.seqs.(j))

let[@inline] heap_swap h i j =
  let k = h.keys.(i) in
  h.keys.(i) <- h.keys.(j);
  h.keys.(j) <- k;
  let s = h.seqs.(i) in
  h.seqs.(i) <- h.seqs.(j);
  h.seqs.(j) <- s;
  let d = h.data.(i) in
  h.data.(i) <- h.data.(j);
  h.data.(j) <- d

let heap_grow h =
  let n = 2 * Array.length h.keys in
  let grow a fill = Array.append a (Array.make (n - Array.length a) fill) in
  h.keys <- grow h.keys 0.;
  h.seqs <- grow h.seqs 0;
  h.data <- grow h.data 0

let[@inline] heap_push h key payload =
  if h.size = Array.length h.keys then heap_grow h;
  let i = ref h.size in
  h.keys.(!i) <- key;
  h.seqs.(!i) <- h.next_seq;
  h.data.(!i) <- payload;
  h.next_seq <- h.next_seq + 1;
  h.size <- h.size + 1;
  while !i > 0 && heap_less h !i ((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    heap_swap h !i parent;
    i := parent
  done

(* Removes the minimum; read it from slot 0 first. *)
let heap_drop_min h =
  h.size <- h.size - 1;
  if h.size > 0 then begin
    heap_swap h 0 h.size;
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && heap_less h l !smallest then smallest := l;
      if r < h.size && heap_less h r !smallest then smallest := r;
      if !smallest <> !i then begin
        heap_swap h !i !smallest;
        i := !smallest
      end
      else continue := false
    done
  end

(* ------------------------------- run ------------------------------- *)

type state = {
  sim : t;
  values : bool array;  (* current net values *)
  target : bool array;  (* value each net is heading to (last scheduled) *)
  latest : int array;
      (* sequence number of each net's latest scheduled change: an event
         that is no longer the latest was cancelled (inertial delay) *)
  captured : bool array;  (* D value each flip-flop sampled *)
  heap : heap;
  mutable events : int;
}

let[@inline] schedule st time net value =
  st.latest.(net) <- st.heap.next_seq;
  st.target.(net) <- value;
  heap_push st.heap time ((net lsl 1) lor Bool.to_int value)

(* Processes every event up to [limit].  A net change re-evaluates the
   gates the net feeds and schedules the outputs that move away from their
   pending value. *)
let drain st limit =
  let t = st.sim and h = st.heap and values = st.values in
  let s = t.s in
  while h.size > 0 && h.keys.(0) <= limit do
    let time = h.keys.(0) and seq = h.seqs.(0) and payload = h.data.(0) in
    heap_drop_min h;
    st.events <- st.events + 1;
    if payload < 0 then begin
      let fi = -payload - 1 in
      st.captured.(fi) <- values.(s.ff_d.(fi))
    end
    else begin
      let net = payload lsr 1 and value = payload land 1 = 1 in
      if seq = st.latest.(net) && values.(net) <> value then begin
        values.(net) <- value;
        for k = s.fanout_off.(net) to s.fanout_off.(net + 1) - 1 do
          let g = s.fanout_gate.(k) and slot = s.fanout_slot.(k) in
          let outs = s.tables.(s.gate_table.(g) + input_index s values g) in
          let base = s.out_off.(g) in
          for o = base to s.out_off.(g + 1) - 1 do
            let v = (outs lsr (o - base)) land 1 = 1 in
            let out_net = s.out_nets.(o) in
            if v <> st.target.(out_net) then
              schedule st
                (time +. t.delays.(slot + (2 * (o - base)) + if v then 0 else 1))
                out_net v
          done
        done
      end
    end
  done

let run t ~period ~cycles ~stimulus =
  if period <= 0. then invalid_arg "Event_sim.run: period <= 0";
  if cycles < 0 then invalid_arg "Event_sim.run: negative cycles";
  let s = t.s in
  let n_nets = t.netlist.Netlist.n_nets in
  let n_ffs = Array.length s.ff_d in
  let bound = Array.make (Array.length s.port_nets) (-1) in
  (* Start in the settled state of the first input vector, flip-flops 0. *)
  let inputs0 = stimulus 0 in
  let values = Array.make n_nets false in
  settle s ~bound values (Array.make n_ffs false) inputs0;
  let st =
    {
      sim = t;
      values;
      target = Array.copy values;
      latest = Array.make n_nets (-1);
      captured = Array.make n_ffs false;
      heap =
        {
          keys = Array.make 256 0.;
          seqs = Array.make 256 0;
          data = Array.make 256 0;
          size = 0;
          next_seq = 0;
        };
      events = 0;
    }
  in
  (* The zero-delay reference run, to count timing errors. *)
  let ref_values = Array.make n_nets false in
  let ref_q = Array.make n_ffs false in
  let timing_errors = ref 0 in
  let outputs = Array.make cycles [] in
  let q_values = Array.map (fun q -> values.(q)) s.ff_q in
  for cycle = 0 to cycles - 1 do
    let inputs = if cycle = 0 then inputs0 else stimulus cycle in
    let t_edge = float_of_int (cycle + 1) *. period in
    (* Schedule the D sampling points of this edge. *)
    for fi = 0 to n_ffs - 1 do
      heap_push st.heap (t_edge -. t.ff_setup.(fi)) (-fi - 1)
    done;
    (* Apply this cycle's inputs just after the previous edge. *)
    let t_inputs = (float_of_int cycle *. period) +. 1e-15 in
    List.iter
      (fun (port, value) ->
        match Hashtbl.find_opt s.port_index port with
        | Some i ->
          let net = s.port_nets.(i) in
          if st.target.(net) <> value then schedule st t_inputs net value
        | None -> failwith ("Event_sim.run: unknown input " ^ port))
      inputs;
    drain st t_edge;
    (* Record primary outputs as seen by the capturing edge. *)
    outputs.(cycle) <-
      List.map (fun (port, net) -> (port, values.(net))) t.netlist.Netlist.output_ports;
    settle s ~bound ref_values ref_q inputs;
    (* Captures become visible on Q after clk->q. *)
    for fi = 0 to n_ffs - 1 do
      let c = st.captured.(fi) in
      if c <> ref_values.(s.ff_d.(fi)) then incr timing_errors;
      ref_q.(fi) <- ref_values.(s.ff_d.(fi));
      if c <> q_values.(fi) then begin
        q_values.(fi) <- c;
        let d = if c then t.ff_clkq_rise.(fi) else t.ff_clkq_fall.(fi) in
        schedule st (t_edge +. d) s.ff_q.(fi) c
      end
    done
  done;
  Metrics.incr ~by:st.events m_events;
  { outputs; timing_errors = !timing_errors }
