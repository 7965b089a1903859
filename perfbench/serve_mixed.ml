(* serve-mixed: the aging-analysis service under an open-loop load.  An
   in-process [Server] on a Unix socket serves a seeded request schedule at
   three fixed offered rates (low, mid, high; a third of the run each):
   hot delay lookups on Zipf-popular memoized corners (reads), guardband
   queries on the small DSP design (STA per request), and one cold-corner
   lookup per phase that forces a library build with memo inserts and
   evictions (writes) competing with the reads for the workers.

   The generator sends each request at its due time on one of at most
   [jobs] connections, whether or not earlier replies have come back, and
   times every request from its due time, so a stall is charged to every
   request queued behind it.  A refused or timed-out request counts as
   missing the latency limit. *)

open Common
module Server = Aging_serve.Server
module Queries = Aging_serve.Queries
module Protocol = Aging_serve.Protocol
module Frame = Aging_serve.Frame
module Deglib = Aging_core.Degradation_library

(* The tail-latency limit a rate must meet to count towards max_qps. *)
let limit_ms = 100.

(* Server-side deadline of every request: long enough for a cold build. *)
let deadline_s = 5.

type state = { queries : Queries.t; plan : Inputs.serve_plan }

let setup ctx =
  let plan = Inputs.serve_plan ctx.seed ~seconds:ctx.seconds in
  (* The memo holds exactly the fresh and hot libraries, so every cold
     build evicts one of them. *)
  let queries =
    Queries.create ~axes:Aging_liberty.Axes.coarse ~cache_dir:(fresh_dir ctx) ~jobs
      ~memo_cap:(Inputs.hot_corner_count + 1) ()
  in
  in_layer "deglib" "warm" (fun () ->
      let d = Queries.deglib queries in
      ignore (Deglib.fresh d);
      List.iter (fun c -> ignore (Deglib.corner d c)) plan.Inputs.hot);
  (* One direct guardband query loads the design catalog, which [Queries]
     builds lazily on first use.  Left cold, the first two guardband
     requests force that lazy value from two worker domains at once and one
     of them fails with [CamlinternalLazy.Undefined]. *)
  in_layer "serve" "warm" (fun () ->
      ignore
        (Queries.handle queries
           (Protocol.Guardband
              { design = Inputs.guardband_design; corner = List.hd plan.Inputs.hot })));
  { queries; plan }

type outcome = Replied of Json.t | Refused of string | Missing

(* Sends every request of [mine] at its due time on [fd]. *)
let sender fd ~t0 schedule sent mine () =
  List.iter
    (fun i ->
      let a = schedule.(i) in
      let wait = t0 +. a.Inputs.due -. now () in
      if wait > 0. then Thread.delay wait;
      sent.(i) <- now ();
      let meta = { Protocol.no_meta with id = Some i; deadline_s = Some deadline_s } in
      try Frame.write fd (Protocol.request_to_json ~meta a.Inputs.req)
      with Unix.Unix_error _ -> ())
    mine

(* Collects replies on [fd] until [expected] have arrived or the socket is
   shut down. *)
let receiver fd expected finished outcome received () =
  let rec loop n =
    if n < expected then
      match Frame.read fd with
      | Ok json -> (
        match Protocol.response_of_json json with
        | Ok (Some i, resp) when i >= 0 && i < Array.length outcome ->
          finished.(i) <- now ();
          outcome.(i) <-
            (match resp with
            | Protocol.Reply payload -> Replied payload
            | Protocol.Refused { code; message } ->
              Refused (Protocol.error_code_to_string code ^ ": " ^ message));
          Atomic.incr received;
          loop (n + 1)
        | _ -> loop n)
      | Error _ -> ()
  in
  loop 0

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let sock_counter = ref 0

(* Runs the whole schedule against a fresh server and returns, per request,
   its send time, completion time and outcome, plus the schedule's start. *)
let drive ctx st =
  incr sock_counter;
  let path = Filename.concat ctx.scratch (Printf.sprintf "s%d.sock" !sock_counter) in
  let cfg =
    {
      Server.default_config with
      addr = `Unix path;
      workers = jobs;
      default_deadline_s = Some deadline_s;
      stall_after_s = None;
    }
  in
  let server = Server.start ~handler:(Queries.handle st.queries) cfg in
  let schedule = st.plan.Inputs.schedule in
  let n = Array.length schedule in
  let sent = Array.make n Float.nan and finished = Array.make n Float.nan in
  let outcome = Array.make n Missing in
  let received = Atomic.make 0 in
  let fds = Array.init jobs (fun _ -> connect path) in
  let mine c = List.filter (fun i -> i mod jobs = c) (List.init n Fun.id) in
  let depth_max = ref 0. in
  let t0 = now () +. 0.05 in
  (* The generator runs in a domain of its own, so its timers do not wait
     for the server's connection threads on the main domain's lock. *)
  let generator () =
    let receivers =
      Array.mapi
        (fun c fd ->
          Thread.create (receiver fd (List.length (mine c)) finished outcome received) ())
        fds
    in
    let senders =
      Array.mapi (fun c fd -> Thread.create (sender fd ~t0 schedule sent (mine c)) ()) fds
    in
    let sampling = Atomic.make true in
    let sampler =
      Thread.create
        (fun () ->
          while Atomic.get sampling do
            (match Metrics.value_by_name "serve.queue_depth" with
            | Some d -> depth_max := Float.max !depth_max d
            | None -> ());
            Thread.delay 0.01
          done)
        ()
    in
    Array.iter Thread.join senders;
    let give_up = now () +. deadline_s +. 5. in
    while Atomic.get received < n && now () < give_up do
      Thread.delay 0.005
    done;
    Atomic.set sampling false;
    Thread.join sampler;
    Array.iter (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()) fds;
    Array.iter Thread.join receivers
  in
  Domain.join (Domain.spawn generator);
  Array.iter Unix.close fds;
  Server.stop server;
  Server.await server;
  (t0, sent, finished, outcome, !depth_max)

(* Every reply must equal a direct [Queries.handle] of the same request. *)
let verify st schedule outcome =
  let direct = Hashtbl.create 256 in
  let expect req =
    let key = Json.to_string (Protocol.request_to_json req) in
    match Hashtbl.find_opt direct key with
    | Some v -> v
    | None ->
      let v =
        match Queries.handle st.queries req with
        | Ok payload -> Some (Json.to_string payload)
        | Error _ -> None
      in
      Hashtbl.replace direct key v;
      v
  in
  Array.mapi
    (fun i o ->
      let a = schedule.(i) in
      let what = Printf.sprintf "request %d (%s, %s)" i a.Inputs.phase (Protocol.request_op a.Inputs.req) in
      match o with
      | Replied payload ->
        if expect a.Inputs.req = Some (Json.to_string payload) then None
        else Some (what ^ ": reply differs from a direct Queries.handle")
      | Refused code -> Some (what ^ ": refused (" ^ code ^ ")")
      | Missing -> Some (what ^ ": no reply"))
    outcome

type phase_stats = {
  phase : string;
  rate : float;  (** offered, per second *)
  lats : float list;  (** ms from due time; infinite when the request failed *)
  tl : tail;
  meets : bool;  (** tail within the limit and no growing backlog *)
  achieved : float;  (** requests over the span from phase start to last reply *)
}

(* The whole schedule is one pass; the budget does not shorten it. *)
let pass ctx st _budget ~traced:_ ~mark =
  let (t0, sent, finished, outcome, depth_max), wall =
    timed (fun () -> in_layer "gen" "schedule" (fun () -> drive ctx st))
  in
  mark ();
  let schedule = st.plan.Inputs.schedule in
  let problems = verify st schedule outcome in
  let phase_s = ctx.seconds /. float_of_int (List.length Inputs.rates) in
  (* Latency from the due time; a request without a good reply missed the
     limit, and is charged the whole deadline in the reported figures. *)
  let latency i =
    match (outcome.(i), problems.(i)) with
    | Replied _, None -> (finished.(i) -. (t0 +. schedule.(i).Inputs.due)) *. 1e3
    | _ -> Float.infinity
  in
  let shown x = if Float.is_finite x then x else deadline_s *. 1e3 in
  let indices = List.init (Array.length schedule) Fun.id in
  let phases =
    List.mapi
      (fun pi (phase, rate) ->
        let idx = List.filter (fun i -> schedule.(i).Inputs.phase = phase) indices in
        let lats = List.map latency idx in
        let tl = tail lats in
        let start = t0 +. (float_of_int pi *. phase_s) in
        let last = List.fold_left (fun m i -> Float.max m finished.(i)) 0. idx in
        (* No growing backlog: the phase's last request completes within the
           limit of the phase's end. *)
        let backlog_ok = (last -. (start +. phase_s)) *. 1e3 <= limit_ms in
        {
          phase;
          rate;
          lats;
          tl;
          meets = tl.tail_value <= limit_ms && backlog_ok;
          achieved = ratio (float_of_int (List.length idx)) (last -. start);
        })
      Inputs.rates
  in
  let max_qps =
    List.fold_left (fun best p -> if p.meets then p.achieved else best) 0. phases
  in
  let notes =
    metric "max_qps" "1/s" max_qps
    :: List.concat_map
         (fun p ->
           [
             metric ("offered_qps." ^ p.phase) "1/s" p.rate;
             metric ("achieved_qps." ^ p.phase) "1/s" p.achieved;
             metric ("lat_p50_ms." ^ p.phase) "ms" (shown (median p.lats));
             metric ("lat_tail_ms." ^ p.phase) "ms" (shown p.tl.tail_value);
             metric ("lat_tail_pct." ^ p.phase) "%" p.tl.tail_pct;
             metric ("lat_n." ^ p.phase) "count" (float_of_int p.tl.tail_n);
             metric ("meets_limit." ^ p.phase) "bool" (if p.meets then 1. else 0.);
           ])
         phases
  in
  let mid = List.find (fun p -> p.phase = "mid") phases in
  let late =
    List.filter_map
      (fun i ->
        if Float.is_nan sent.(i) then None
        else Some ((sent.(i) -. (t0 +. schedule.(i).Inputs.due)) *. 1e3))
      indices
  in
  let failures = List.filter_map Fun.id (Array.to_list problems) in
  let n = Array.length schedule in
  {
    Workload.units = n;
    wall;
    attempted = n;
    failed = List.length failures;
    failures;
    throughput = max_qps;
    latencies_ms = List.map shown mid.lats;
    notes;
    extras =
      { Layers.no_extras with queue_depth_max = depth_max; gen_late_ms_tail = (tail late).tail_value };
  }
