(* Seeded inputs of every workload.  Everything the program is fed is a
   pure function of the run's seed, so the same seed replays the same
   corners, (design, corner) pairs, images and request schedule; the
   self-test checks both that and that another seed changes them. *)

module Rng = Aging_util.Rng
module Scenario = Aging_physics.Scenario
module Protocol = Aging_serve.Protocol

let rng seed stream = Rng.create (Rng.derive seed stream)

let shuffled rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The paper's 11x11 duty-cycle grid (Sec. 4.1). *)
let grid = Scenario.grid ()

(* ---- corner-sweep: a seeded order over the 121 grid corners ---- *)

let sweep_corners seed = shuffled (rng seed 1) grid

(* ---- synth-signoff ---- *)

(* One synthesis round is the same three designs in the same order, so
   every round costs alike and a run's throughput does not depend on which
   designs a short run happened to reach.  The seed draws one grid corner
   that all three pairs share, so set-up builds the libraries of a single
   corner.  RISC-6P (18 s) and VLIW (12 s) flows do not fit a run. *)
let synth_designs = [ "DSP"; "FFT"; "RISC-5P" ]

let synth_pairs seed =
  let r = rng seed 2 in
  let g = Array.of_list grid in
  let corner = g.(Rng.int r (Array.length g)) in
  List.map (fun d -> (d, corner)) synth_designs

(* Random primary-input vectors for the functional-equivalence check. *)
let functional_cycles = 48

let functional_stimulus seed (netlist : Aging_netlist.Netlist.t) =
  let r = rng seed 3 in
  let ports = List.map fst netlist.Aging_netlist.Netlist.input_ports in
  let vectors =
    Array.init functional_cycles (fun _ ->
        List.map (fun p -> (p, Rng.bool r)) ports)
  in
  fun cycle -> vectors.(min cycle (functional_cycles - 1))

(* ---- image-chain ---- *)

(* Images come from a fixed pool of seeded 8x8 [Synthetic.blobs] images
   (one DCT block each), so the reference PSNRs can be captured once for
   the whole pool.  The run's seed picks the order. *)
let image_pool = 32
let image_size = 8

let image_of_index i =
  Aging_image.Synthetic.blobs
    ~seed:(Int64.of_int (1000 + i))
    ~width:image_size ~height:image_size ()

let image_order seed = shuffled (rng seed 4) (List.init image_pool Fun.id)

(* ---- serve-mixed ---- *)

(* Three fixed offered rates, run back to back for a third of the run each. *)
let rates = [ ("low", 50.); ("mid", 100.); ("high", 200.) ]

(* Share of requests that are guardband queries (STA of DSP, the small
   design, at a hot corner); the rest are hot delay lookups, plus exactly
   one cold-corner lookup per rate phase, a quarter of the way in. *)
let guardband_share = 0.1
let guardband_design = "DSP"
let cold_at = 0.25
let hot_corner_count = 3

type arrival = {
  due : float;  (** seconds after the schedule starts *)
  phase : string;
  req : Protocol.request;
}

type serve_plan = {
  hot : Scenario.corner list;  (** memoized during set-up *)
  schedule : arrival array;  (** ordered by [due] *)
}

let delay_cells =
  Aging_cells.Catalog.all ()
  |> List.map (fun c -> c.Aging_cells.Cell.name)
  |> List.filter (fun name -> not (String.starts_with ~prefix:"TIE" name))
  |> Array.of_list

(* Zipf(1) over [n] ranks. *)
let zipf rng n =
  let w = Array.init n (fun i -> 1. /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let u = Rng.float rng *. total in
  let rec pick i acc =
    if i = n - 1 then i
    else
      let acc = acc +. w.(i) in
      if u < acc then i else pick (i + 1) acc
  in
  pick 0 0.

(* Poisson arrivals conditioned on their count: [n] exponential gaps
   rescaled to fill the phase exactly, so every run offers the same number
   of requests per phase and only their timing is random. *)
let arrival_times rng ~n ~duration =
  let gaps = Array.init (n + 1) (fun _ -> -.log (1. -. Rng.float rng)) in
  let total = Array.fold_left ( +. ) 0. gaps in
  let t = ref 0. in
  Array.init n (fun i ->
      t := !t +. gaps.(i);
      !t /. total *. duration)

let serve_plan seed ~seconds =
  let r = rng seed 5 in
  let corners = shuffled r grid in
  let hot = Array.to_list (Array.sub corners 0 hot_corner_count) in
  let cold_arr = Array.sub corners hot_corner_count (List.length rates) in
  let hot_arr = Array.of_list hot in
  let phase_s = seconds /. float_of_int (List.length rates) in
  let arrivals =
    List.concat
      (List.mapi
         (fun pi (phase, rate) ->
           let start = float_of_int pi *. phase_s in
           let n = int_of_float (Float.round (rate *. phase_s)) in
           let times = arrival_times r ~n ~duration:phase_s in
           let regular =
             Array.to_list
               (Array.map
                  (fun t ->
                    let corner = hot_arr.(zipf r hot_corner_count) in
                    if Rng.float r < guardband_share then
                      {
                        due = start +. t;
                        phase;
                        req = Protocol.Guardband { design = guardband_design; corner };
                      }
                    else
                      let cell =
                        delay_cells.(Rng.int r (Array.length delay_cells))
                      in
                      {
                        due = start +. t;
                        phase;
                        req =
                          Protocol.Delay
                            { cell; corner; slew = None; load = None };
                      })
                  times)
           in
           let cold =
             {
               due = start +. (cold_at *. phase_s);
               phase;
               req =
                 Protocol.Delay
                   {
                     cell = delay_cells.(Rng.int r (Array.length delay_cells));
                     corner = cold_arr.(pi);
                     slew = None;
                     load = None;
                   };
             }
           in
           cold :: regular)
         rates)
  in
  let schedule = Array.of_list arrivals in
  Array.stable_sort (fun a b -> Float.compare a.due b.due) schedule;
  { hot; schedule }

(* A canonical text form of all generated inputs, for the self-test. *)
let fingerprint seed ~seconds =
  let corner c = Scenario.suffix c in
  let b = Buffer.create 4096 in
  Array.iter (fun c -> Buffer.add_string b (corner c ^ ";")) (sweep_corners seed);
  List.iter
    (fun (d, c) -> Buffer.add_string b (Printf.sprintf "%s@%s;" d (corner c)))
    (synth_pairs seed);
  Array.iter
    (fun i ->
      let img = image_of_index i in
      Buffer.add_string b (string_of_int i ^ ":");
      Array.iter
        (fun p -> Buffer.add_string b (string_of_int p ^ ","))
        img.Aging_image.Image.pixels)
    (image_order seed);
  let plan = serve_plan seed ~seconds in
  Array.iter
    (fun a ->
      Buffer.add_string b
        (Printf.sprintf "%.17g %s %s;" a.due a.phase
           (Aging_obs.Json.to_string (Protocol.request_to_json a.req))))
    plan.schedule;
  Buffer.contents b
