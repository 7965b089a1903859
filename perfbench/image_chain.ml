(* image-chain: the Fig. 6c / Fig. 7 path.  Prepares gate-level simulations
   of the unsynthesized DCT and IDCT netlists under the fresh library and
   the worst-case aged ones (1, 3 and 10 years; built during set-up), rates
   the chain on a seeded image with the fresh library, then decodes the
   image under every library.  Simulation and system evaluation do the
   work; STA runs only inside [Event_sim.prepare]; spice and synthesis do
   none. *)

open Common
module Deglib = Aging_core.Degradation_library
module System_eval = Aging_core.System_eval
module Event_sim = Aging_sim.Event_sim
module Image = Aging_image.Image
module Scenario = Aging_physics.Scenario

let reference_file = "perfbench/ref/image_chain.json"
let tolerance = 1e-6

type state = {
  fresh : Aging_liberty.Library.t;
  aged : (string * Aging_liberty.Library.t) list;  (** "1y", "3y", "10y" *)
  dct : Aging_netlist.Netlist.t;
  idct : Aging_netlist.Netlist.t;
  order : int array;
  reference : Json.t Lazy.t;
}

let libraries dir =
  let deglib years =
    Deglib.create ~axes:Aging_liberty.Axes.coarse ~years ~cache_dir:dir ~jobs ()
  in
  let d10 = deglib 10. in
  ( Deglib.fresh d10,
    [
      ("1y", Deglib.worst_case (deglib 1.));
      ("3y", Deglib.worst_case (deglib 3.));
      ("10y", Deglib.worst_case d10);
    ] )

let setup ctx =
  let fresh, aged = in_layer "deglib" "warm" (fun () -> libraries (fresh_dir ctx)) in
  {
    fresh;
    aged;
    dct = Aging_designs.Designs.dct ();
    idct = Aging_designs.Designs.idct ();
    order = Inputs.image_order ctx.seed;
    reference = lazy (Json.of_string (read_file reference_file));
  }

let prepare library nl =
  in_layer "sim" "prepare" (fun () -> Event_sim.prepare ~library nl)

(* Cycles one decode simulates: four 1-D passes, each streaming 8 vectors
   per block plus the transform's two cycles of latency. *)
let decode_cycles (img : Image.t) =
  let blocks = ((img.Image.width + 7) / 8) * ((img.Image.height + 7) / 8) in
  4 * ((8 * blocks) + 2)

type result = {
  index : int;
  image : Image.t;
  period : float;
  fresh_out : Image.t;
  aged_out : (string * Image.t * Event_sim.t) list;
}

(* One image: rate the fresh chain, then decode under every library. *)
let process st index =
  let image = Inputs.image_of_index index in
  let dct0 = prepare st.fresh st.dct and idct0 = prepare st.fresh st.idct in
  let period =
    in_layer "system_eval" "rate" (fun () ->
        System_eval.rated_chain_period ~dct:dct0 ~idct:idct0 image)
  in
  let decode dct idct =
    in_layer "system_eval" "decode" (fun () ->
        System_eval.process_image ~dct ~idct ~period image)
  in
  let fresh_out = decode dct0 idct0 in
  let aged_out =
    List.map
      (fun (label, lib) ->
        let dct = prepare lib st.dct and idct = prepare lib st.idct in
        (label, decode dct idct, dct))
      st.aged
  in
  { index; image; period; fresh_out; aged_out }

let psnr r out = System_eval.psnr_vs_original r.image out

let check reference r =
  let where = Printf.sprintf "image %d" r.index in
  let expected = member_exn (string_of_int r.index) (member_exn "images" reference) in
  let num key = json_float (member_exn key expected) in
  List.filter_map Fun.id
    ((if Image.equal r.fresh_out (System_eval.reference_image r.image) then None
      else Some (where ^ ": fresh-library decode differs from the fixed-point reference"))
     :: (if close ~rel:tolerance r.period (num "period") then None
         else Some (where ^ ": rated period differs from the reference"))
     :: List.map
          (fun (label, out, _) ->
            if close ~rel:tolerance (psnr r out) (num ("psnr_" ^ label)) then None
            else Some (Printf.sprintf "%s: %s PSNR differs from the reference" where label))
          r.aged_out)

(* Flip-flop timing errors of the aged DCT's first (row) pass at the rated
   period: the image's rows streamed through [Event_sim.run] directly. *)
let row_pass_timing_errors r =
  let width = Aging_designs.Designs.transform_io_width in
  let rows =
    Array.init 8 (fun k ->
        Array.init 8 (fun j -> Image.get r.image ~x:j ~y:k - 128))
  in
  let stimulus cycle =
    let v = rows.(min cycle 7) in
    List.concat
      (List.init 8 (fun lane ->
           List.init width (fun bit ->
               ( Printf.sprintf "I%d[%d]" lane bit,
                 (v.(lane) land ((1 lsl width) - 1)) lsr bit land 1 = 1 ))))
  in
  List.fold_left
    (fun acc (_, _, dct) ->
      let trace = Event_sim.run dct ~period:r.period ~cycles:10 ~stimulus in
      acc + trace.Event_sim.timing_errors)
    0 r.aged_out

let pass _ctx st budget ~traced ~mark =
  let t0 = now () in
  let rec loop i acc =
    if i < Array.length st.order && continue_ budget ~units:i ~elapsed:(now () -. t0)
    then loop (i + 1) (timed (fun () -> process st st.order.(i)) :: acc)
    else List.rev acc
  in
  let done_ = loop 0 [] in
  let wall = now () -. t0 in
  mark ();
  let reference = Lazy.force st.reference in
  let per_image = List.map (fun (r, _) -> check reference r) done_ in
  let units = List.length done_ in
  let decodes = List.fold_left (fun n (r, _) -> n + 1 + List.length r.aged_out) 0 done_ in
  let cycles =
    match done_ with
    | [] -> 0
    | (r, _) :: _ -> decodes * decode_cycles r.image
  in
  let timing_errors =
    if traced then
      List.fold_left (fun n (r, _) -> n + row_pass_timing_errors r) 0 done_
    else 0
  in
  {
    Workload.units;
    wall;
    attempted = units;
    failed = List.length (List.filter (( <> ) []) per_image);
    failures = List.concat per_image;
    throughput = ratio (float_of_int units) wall;
    latencies_ms = List.map (fun (_, dt) -> dt *. 1e3) done_;
    notes = [ metric "images_per_s" "1/s" (ratio (float_of_int units) wall) ];
    extras =
      {
        Layers.no_extras with
        sim_cycles = float_of_int cycles;
        sim_timing_errors = float_of_int timing_errors;
      };
  }

(* Captures the reference: rated period and aged PSNRs of every pool image. *)
let make_reference dir =
  let fresh, aged = libraries dir in
  let st =
    {
      fresh;
      aged;
      dct = Aging_designs.Designs.dct ();
      idct = Aging_designs.Designs.idct ();
      order = [||];
      reference = lazy Json.Null;
    }
  in
  let images =
    List.init Inputs.image_pool (fun index ->
        let r = process st index in
        Printf.eprintf "reference image %d\n%!" index;
        ( string_of_int index,
          Json.Obj
            (("period", Json.Float r.period)
            :: List.map
                 (fun (label, out, _) -> ("psnr_" ^ label, Json.of_float (psnr r out)))
                 r.aged_out) ))
  in
  Json.Obj
    [
      ("about",
       Json.String
         "per pool image: rated chain period [s] (fresh library) and decoded PSNR [dB] \
          under the worst-case 1, 3 and 10 year libraries; coarse axes, 8x8 blobs images");
      ("tolerance_rel", Json.Float tolerance);
      ("images", Json.Obj images);
    ]
